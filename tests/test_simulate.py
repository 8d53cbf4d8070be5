"""Step and run semantics: lookup order, acceptance, budgets, traces."""
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_reference_semantics import _busy_rows, _lambda_rows
from twsda.analysis import cross_check, enumerate_accepted
from twsda.builders import build_expo, build_mi_hat, build_trie_p
from twsda.combinators import left_quotient
from twsda.machine import END, LAMBDA, SpecificityConflict, TransitionRow, machine_from_rows
from twsda.machinefile import parse_machine
from twsda.oracles import LanguageOracle
from twsda.simulate import (
    BudgetRequired,
    Configuration,
    DeterminismError,
    EndmarkerInInput,
    Verdict,
    final_tree,
    run,
)
from twsda.tree import DOWN_L, DOWN_R, POP, ROOT_LABEL, STAY, UP, WellFormednessViolation, push


def mk(rows, *, accept=("yes",), real_time=True, non_erasing=True, alphabet=("a",)):
    return machine_from_rows(
        "m", alphabet, ("x",), "q0", accept, rows,
        real_time=real_time, non_erasing=non_erasing,
    )


def row(state, symbol, target, action=STAY, anc="-", hl="*", hr="*", label="*"):
    return TransitionRow(state, symbol, anc, hl, hr, label, target, action)


def test_no_rules_halts_immediately():
    m = mk([], accept=())
    out = run(m, "")
    assert out.verdict is Verdict.REJECTED and out.steps_taken == 0


def test_empty_word_acceptance_needs_endmarker_step():
    m = mk([row("q0", END, "yes")])
    out = run(m, "")
    assert out.accepted and out.steps_taken == 1 and out.input_fully_consumed


def test_halt_with_unread_input_rejects_even_in_accepting_state():
    # q0 is accepting but never reads anything: any nonempty word rejects.
    m = mk([], accept=("q0",))
    assert run(m, "").verdict is Verdict.REJECTED  # endmarker unread
    assert run(m, "a").verdict is Verdict.REJECTED


def test_symbol_consumption_and_step_function():
    m = mk([row("q0", "a", "q1"), row("q1", END, "yes")], accept=("yes",))
    config = Configuration(m)
    assert config.push("a") == ("a", STAY)
    assert config.state == "q1"
    assert config.push(END) == (END, STAY)
    assert config.state == "yes"
    assert config.push(None) is None  # nothing left to read: the machine halts
    out = run(m, "a")
    assert out.accepted and out.input_fully_consumed and out.steps_taken == 2


def test_lambda_steps_consume_nothing_and_need_budget():
    rows = [
        row("q0", "a", "q1"),
        row("q1", LAMBDA, "q2"),
        row("q2", END, "yes"),
    ]
    m = mk(rows, real_time=False)
    with pytest.raises(BudgetRequired):
        run(m, "a")
    out = run(m, "a", budget=10)
    assert out.accepted and out.steps_taken == 3  # exceeds |w|+1: not real time
    out = run(m, "a", budget=2)
    assert out.verdict is Verdict.BUDGET_EXHAUSTED and out.steps_taken == 2


def test_lambda_loop_after_input_can_accept():
    # λ moves may continue after the endmarker was consumed.
    rows = [
        row("q0", END, "q1"),
        row("q1", LAMBDA, "q2"),
        row("q2", LAMBDA, "yes"),
    ]
    m = mk(rows, real_time=False)
    out = run(m, "", budget=10)
    assert out.accepted and out.steps_taken == 3


def test_symbol_rule_preferred_over_lambda_conflict_raises():
    rows = [
        row("q0", "a", "q1"),
        row("q0", LAMBDA, "q2"),
    ]
    m = mk(rows, real_time=False)
    assert m._program  # building the program never raises
    with pytest.raises(DeterminismError):
        run(m, "a", budget=5)
    # every reader raises when it steps on the clash, prefix walks included
    nothing = LanguageOracle("empty", ("a",), lambda w: False, lambda w: False)
    with pytest.raises(DeterminismError):
        cross_check(m, nothing, 2, run_budget=5)
    with pytest.raises(DeterminismError):
        enumerate_accepted(m, 2, run_budget=5)
    at_end = mk(rows + [row("q0", END, "yes")], real_time=False)
    assert at_end._program
    with pytest.raises(DeterminismError):
        Configuration(at_end, 5).accepts_now()


def test_infinite_budget_allowed():
    m = mk([row("q0", "a", "q0"), row("q0", END, "yes")])
    assert run(m, "a" * 50, budget=math.inf).accepted


def test_endmarker_in_input_rejected():
    m = mk([])
    with pytest.raises(EndmarkerInInput):
        run(m, "a" + END)
    with pytest.raises(ValueError):
        run(m, "z")


def test_well_formedness_violation_outcome():
    m = mk([row("q0", "a", "q0", UP)])  # moving up at the root is illegal
    out = run(m, "a")
    assert out.verdict is Verdict.WELL_FORMEDNESS_VIOLATION
    assert out.halt_state == "q0" and out.steps_taken == 0


def test_taking_back_an_aborted_step_clears_the_violation():
    rows = [row("q0", "a", "q0"), row("q0", "b", "q0", POP)]
    config = Configuration(mk(rows, alphabet=("a", "b"), non_erasing=False))
    assert config.push("b") is None  # popping the root is illegal
    assert config.dead == 1 and isinstance(config.violation, WellFormednessViolation)
    config.pop()
    assert config.dead == 0 and config.violation is None
    assert config.push("a") == ("a", STAY)
    assert config.dead == 0 and config.violation is None


def test_accepts_now_leaves_no_violation_behind():
    # the endmarker step leads to a λ move up at the root, which aborts
    rows = [row("q0", "a", "q0"), row("q0", END, "q1"), row("q1", LAMBDA, "yes", UP)]
    config = Configuration(mk(rows, real_time=False), 5)
    assert config.push("a") == ("a", STAY)
    assert not config.accepts_now()
    assert config.dead == 0 and config.violation is None
    assert config.push("a") == ("a", STAY)
    assert config.dead == 0 and config.violation is None


def seen(config: Configuration) -> tuple:
    violation = config.violation and str(config.violation)
    return config.state, config.node.path(), config.tree.snapshot(), config.dead, violation


def attempt(step):
    """What `step()` returns, or DeterminismError when it raises that."""
    try:
        return step()
    except DeterminismError:
        return DeterminismError


# Halts only with nothing at the head: `a` and `b` push a left or right
# child, or move onto it where there is one; `¢` pops a leaf and moves up
# from any other node; `⊳` pops anywhere, so it aborts on the illegal ones.
_POPPER = [
    row("q0", "a", "q0", push("x", "l"), anc="*", hl="-"),
    row("q0", "a", "q0", DOWN_L, anc="*", hl="+"),
    row("q0", "b", "q0", push("y", "r"), anc="*", hr="-"),
    row("q0", "b", "q0", DOWN_R, anc="*", hr="+"),
    row("q0", "¢", "q0", UP, anc="*"),
    row("q0", "¢", "q0", POP, anc="l", hl="-", hr="-"),
    row("q0", "¢", "q0", POP, anc="r", hl="-", hr="-"),
    row("q0", "⊳", "q0", POP, anc="*"),
    row("q0", END, "q0", anc="*"),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["pops", "real-time", "λ"]), st.data())
def test_pop_takes_a_configuration_back_to_its_pushes(kind, data):
    """After any mix of pushes, pops and `accepts_now` calls, on real-time
    and λ machines with pops and illegal actions, a configuration is the
    one a fresh configuration reaches on the symbols still pushed."""
    lam = kind == "λ"
    rows = _POPPER if kind == "pops" else data.draw(_lambda_rows() if lam else _busy_rows())
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=not lam, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    budget = 6 if lam else None
    config = Configuration(machine, budget)
    pushed: list = []

    def fresh() -> Configuration:
        again = Configuration(machine, budget)
        for sym in pushed:
            again.push(sym)
        return again

    # as many pops as pushes, so that a dead configuration comes back to life
    ops = st.sampled_from(["a", "b", "¢"] * 2 + ["⊳", END, None] + ["pop"] * 9 + ["accepts"])
    for op in data.draw(st.lists(ops, min_size=10, max_size=40)):
        if op == "pop":
            if not pushed:
                continue
            config.pop()
            pushed.pop()
        elif op == "accepts":
            verdict = attempt(config.accepts_now)
            assert verdict == attempt(fresh().accepts_now)
            if verdict is DeterminismError:  # the steps it began stay made
                return
        elif attempt(lambda: config.push(op)) is not DeterminismError:
            pushed.append(op)
        assert seen(config) == seen(fresh()), (pushed, op)
        config.tree.check_invariants()


def test_trace_records_are_consecutive_and_complete():
    rows = [
        row("q0", "a", "q1", push("x", "l")),
        row("q1", "a", "q2", UP, anc="l"),
        row("q2", END, "yes"),
    ]
    m = mk(rows)
    out = run(m, "aa", traced=True)
    assert out.accepted
    assert [r.step_index for r in out.trace] == [0, 1, 2]
    assert [r.state_before for r in out.trace] == ["q0", "q1", "q2"]
    assert [r.consumed for r in out.trace] == ["a", "a", END]
    assert [r.pointer_after for r in out.trace] == ["l", "", ""]
    assert [r.node_count_after for r in out.trace] == [2, 2, 2]


def test_budget_does_not_truncate_natural_halt():
    m = mk([row("q0", "a", "q0"), row("q0", END, "yes")])
    out = run(m, "a" * 7)  # default budget |w|+1 exactly
    assert out.accepted and out.steps_taken == 8


def test_real_time_default_budget_rejects_mid_word_halt():
    m = mk([row("q0", "a", "q1"), row("q1", END, "yes")])
    out = run(m, "aaa")
    assert out.verdict is Verdict.REJECTED
    assert not out.input_fully_consumed and out.steps_taken == 1


@pytest.mark.parametrize(
    "machine, word",
    [
        (build_mi_hat(), "¢ab$ba▶"),
        (build_trie_p(), "ab$$b$⊳ab"),
        (left_quotient(build_trie_p(), "ab$"), "$b$⊳ab"),  # starts below the root
    ],
)
def test_trace_pointer_is_the_node_path(machine, word):
    out = run(machine, word, traced=True)
    assert out.accepted
    config = Configuration(machine)
    paths = []
    for sym in [*word, END]:
        assert config.push(sym) is not None
        paths.append(config.node.path())
    assert config.push(None) is None
    assert [rec.pointer_after for rec in out.trace] == paths


def test_final_tree_is_the_storage_where_the_run_stops():
    broken = Path(__file__).parent / "broken" / "pointer-violation.twm"
    aborting = parse_machine(broken.read_text(encoding="utf-8"))
    assert run(aborting, "a").verdict is Verdict.WELL_FORMEDNESS_VIOLATION
    assert final_tree(aborting, "a").size == 1
    # one legal push, then a step down a missing right child: the budget
    # runs out before the abort, and the storage is the one push's
    late = mk([row("q0", "a", "q1", push("x", "l")), row("q1", "a", "q1", DOWN_R, anc="l")])
    assert run(late, "aa").verdict is Verdict.WELL_FORMEDNESS_VIOLATION
    assert run(late, "aa", budget=1).verdict is Verdict.BUDGET_EXHAUSTED
    assert final_tree(late, "aa", budget=1).snapshot() == f"({ROOT_LABEL} (x . .) .)"
    expo, word = build_expo(), "a" * 32
    config = Configuration(expo)
    for budget, sym in enumerate([*word, END], start=1):
        assert config.push(sym) is not None
        if budget < 33:
            assert run(expo, word, budget=budget).verdict is Verdict.BUDGET_EXHAUSTED
        assert final_tree(expo, word, budget=budget).snapshot() == config.tree.snapshot()
    assert final_tree(expo, word).snapshot() == config.tree.snapshot()
    for word, budget in (("z", None), ("a" + END, None), ("a", 0), ("a", -1)):
        with pytest.raises(ValueError):
            final_tree(expo, word, budget=budget)


def test_untraced_run_keeps_memory_bounded():
    m = mk([row("q0", LAMBDA, "q0")], real_time=False)  # a λ loop in place
    tracemalloc.start()
    try:
        out = run(m, "", budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.verdict is Verdict.BUDGET_EXHAUSTED and out.steps_taken == 100_000
    assert peak < 1_000_000
