"""Step and run semantics: lookup order, acceptance, budgets, traces."""
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_machinefile import _actions, _random_rows, _states
from test_reference_semantics import _busy_rows, _lambda_rows, naive_run
from test_tree import QUOTIENT_PREFIXES
from twsda import analysis
from twsda.analysis import cross_check, enumerate_accepted, machines_agree
from twsda.builders import BUILTINS, build_expo, build_mi_hat, build_trie_p
from twsda.combinators import complement, left_quotient
from twsda.machine import END, LAMBDA, SpecificityConflict, TransitionRow, machine_from_rows
from twsda.machinefile import parse_machine
from twsda.oracles import LanguageOracle
from twsda.simulate import (
    BudgetRequired,
    Configuration,
    DeterminismError,
    EndmarkerInInput,
    StepRecord,
    Verdict,
    _prefix_dfs,
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


def test_accepts_now_takes_its_steps_back_when_a_clash_raises():
    # a λ step leads to q1, which has both an END rule and a λ rule
    rows = [
        row("q0", LAMBDA, "q1", anc="*"),
        row("q1", END, "yes", anc="*"),
        row("q1", LAMBDA, "q0", anc="*"),
    ]
    config = Configuration(mk(rows, real_time=False), 5)
    with pytest.raises(DeterminismError):
        config.accepts_now()
    assert config.state == "q0" and config._undo == []
    assert config.dead == 0 and config.violation is None


def seen(config: Configuration) -> tuple:
    violation = config.violation and str(config.violation)
    return config.state, config.tree.path(config.node), config.tree.snapshot(), config.dead, violation


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


@st.composite
def _hop_rows(draw):
    """`_busy_rows` where q0 trades its rows for a λ stay into `hop`, which
    has a rule on every symbol, on the endmarker and on λ: every clash
    there follows a λ step, `accepts_now`'s own in state q0."""
    rows = [r for r in draw(_busy_rows()) if r.state != "q0"]
    rows.append(row("q0", LAMBDA, "hop", anc="*"))
    for sym in ("a", "b", "¢", "⊳", END, LAMBDA):
        rows.append(row("hop", sym, draw(_states), draw(_actions), anc="*"))
    return rows


_ROWS = {"real-time": _busy_rows(), "λ": _lambda_rows(), "λ hop": _hop_rows()}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["pops", "real-time", "λ", "λ hop"]), st.data())
def test_pop_takes_a_configuration_back_to_its_pushes(kind, data):
    """After any mix of pushes, pops and `accepts_now` calls, on real-time
    and λ machines with pops, illegal actions and clashes, a configuration
    is the one a fresh configuration reaches on the symbols still pushed."""
    lam = kind.startswith("λ")
    rows = _POPPER if kind == "pops" else data.draw(_ROWS[kind])
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
            assert attempt(config.accepts_now) == attempt(fresh().accepts_now)
        elif attempt(lambda: config.push(op)) is not DeterminismError:
            pushed.append(op)
        assert seen(config) == seen(fresh()), (pushed, op)
        config.tree.check_invariants()


def hopped(machine, clash: bool):
    """`machine` with a λ hop after every step: the same words in twice
    the steps, by a machine with λ moves.  With `clash`, the hop after a
    step on ⊳ also has a rule on the endmarker, so every word that ends
    in ⊳ raises DeterminismError."""
    rows = []
    for key, (target, action) in machine.transitions.items():
        hop = "!" if clash and key.symbol == "⊳" else "'"
        rows.append(TransitionRow(*key, target + hop, action))
    for state in machine.states:
        rows.append(row(f"{state}'", LAMBDA, state, anc="*"))
        if clash:
            rows.append(row(f"{state}!", LAMBDA, state, anc="*"))
            rows.append(row(f"{state}!", END, state, anc="*"))
    return machine_from_rows(
        f"{machine.name}'", machine.input_alphabet, machine.tree_alphabet, machine.start,
        machine.accepting, rows, real_time=False, non_erasing=machine.non_erasing,
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["real-time", "complement", "λ", "hopped", "hopped, clashing"]), st.data())
def test_prefix_walk_starts_from_any_configuration(kind, data):
    """From the configuration a prefix `p` leaves, on real-time and λ
    machines, halted or aborted ones included, `accepts_now` and the walk
    give `p` and every `p + e` the verdict of `run` (or raise where it
    raises), and leave the configuration as they found it.  Complements
    never stop and accept most words; the hopped ones make λ steps between
    symbols."""
    lam = kind == "λ"
    rows = data.draw(_lambda_rows() if lam else _busy_rows())
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=not lam, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    if kind not in ("real-time", "λ"):
        machine = complement(machine)
    if kind.startswith("hopped"):
        machine, lam = hopped(machine, clash=kind.endswith("clashing")), True
    budget = data.draw(st.sampled_from([2.5, 5, 13, 20] if lam else [None, 1, 2.5, 5]))
    limit = math.inf if budget is None else budget
    config = Configuration(machine, budget)
    prefix = ""
    for sym in data.draw(st.text("ab¢⊳", min_size=1, max_size=4)):
        moved = config.push(sym)
        while moved is not None and moved[0] == LAMBDA and len(config._undo) <= limit:
            moved = config.push(sym)  # the λ steps before `sym`, then `sym`
        prefix += sym
        if len(config._undo) > limit:  # every extension runs out of budget
            break
    before = seen(config), len(config._undo)

    def verdict(word):
        return attempt(lambda: run(machine, prefix + word, budget=budget).accepted)

    assert attempt(config.accepts_now) == verdict("")
    assert (seen(config), len(config._undo)) == before
    symbols = sorted(machine.input_alphabet)
    depth = data.draw(st.integers(2, 3))
    # with the symbols in code point order, sorting gives the walk's order
    words = sorted("".join(t) for n in range(depth + 1) for t in itertools.product(symbols, repeat=n))
    visited = []

    def visit(word, accepted, dead):
        assert dead or not config.dead  # a dead configuration's extensions are dead
        visited.append((word, accepted))
        return True

    try:
        _prefix_dfs(config, symbols, depth, None, visit)
    except DeterminismError:
        assert verdict(words[len(visited)]) is DeterminismError  # the word the walk stopped in
    else:
        assert len(visited) == len(words)
        assert (seen(config), len(config._undo)) == before
        config.tree.check_invariants()
    assert [word for word, _ in visited] == words[: len(visited)]
    for word, accepted in visited:
        assert accepted == verdict(word), (prefix, word)


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
        paths.append(config.tree.path(config.node))
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


def test_traced_run_memory_is_linear_in_pointer_depth():
    """On `mi-hat`'s spine word ¢ (ab)^(n/2) $ (ba)^(n/2) ▶ the pointer
    goes n deep and back, so records that each held the pointer's path
    would take memory quadratic in n: doubling n would quadruple the peak."""
    m = build_mi_hat()

    def peak(n):
        word = "¢" + "ab" * (n // 2) + "$" + "ba" * (n // 2) + "▶"
        tracemalloc.start()
        try:
            out = run(m, word, traced=True)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.accepted and len(out.trace) == len(word) + 1
        return top

    assert peak(4000) / peak(2000) < 3


# λ machines that push and pop for ever: `PUSH_POP` pushes a left child and
# pops it; `BOTH_SIDES` pushes a left and a right child, then pops the left
# one while the right one is the newest node, then the right one.
PUSH_POP = mk(
    [row("q0", LAMBDA, "q1", push("x", "l")), row("q1", LAMBDA, "q0", POP, anc="l")],
    real_time=False, non_erasing=False,
)
BOTH_SIDES = mk(
    [
        row("q0", LAMBDA, "q1", push("x", "l"), hl="-", hr="-"),
        row("q1", LAMBDA, "q2", UP, anc="l"),
        row("q2", LAMBDA, "q3", push("x", "r")),
        row("q3", LAMBDA, "q4", UP, anc="r"),
        row("q4", LAMBDA, "q5", DOWN_L),
        row("q5", LAMBDA, "q6", POP, anc="l"),
        row("q6", LAMBDA, "q7", DOWN_R),
        row("q7", LAMBDA, "q0", POP, anc="r"),
    ],
    real_time=False, non_erasing=False,
)


@pytest.mark.parametrize("machine", [PUSH_POP, BOTH_SIDES], ids=["push-pop", "both-sides"])
def test_untraced_run_keeps_memory_bounded_under_pushes_and_pops(machine):
    """A run reuses the ids of the leaves it pops, so its node lists stay
    as long as its largest tree, whichever leaf it pops."""
    tracemalloc.start()
    try:
        out = run(machine, "", budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.verdict is Verdict.BUDGET_EXHAUSTED and out.steps_taken == 100_000
    assert peak < 1_000_000
    tree = final_tree(machine, "", budget=100_000)
    tree.check_invariants()
    assert len(tree.labels) <= 3


@pytest.mark.parametrize("machine", [PUSH_POP, BOTH_SIDES], ids=["push-pop", "both-sides"])
def test_traced_run_reuses_no_id_its_records_name(machine):
    out = run(machine, "", budget=80, traced=True)
    want = naive_run(machine, "", budget=80)
    assert [rec.pointer_after for rec in out.trace] == [rec[3] for rec in want.records]
    pushed = [rec.node_after for rec in out.trace if rec.action[0] == "push"]
    assert len(pushed) == len(set(pushed)) >= 20


@settings(max_examples=60, deadline=None)
@given(_busy_rows(), st.lists(st.text("ab¢⊳", max_size=12), min_size=1, max_size=6))
def test_traced_runs_keep_at_most_one_node_per_step(rows, words):
    """A real-time run on w makes |w| + 1 steps, each adding at most one
    node to the root: the linear-space bound.  The node count each record
    gives is the number of nodes in the run's tree."""
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=True, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    for word in words:
        out = run(machine, word, traced=True)
        assert max((rec.node_count_after for rec in out.trace), default=1) <= len(word) + 2
        if out.trace:
            tree = out.trace[-1].tree
            tree.check_invariants()
            assert out.trace[-1].node_count_after == tree.size == len(tree.nodes())


def eager_records(machine, word, budget=None) -> list:
    """The records of a traced run, built eagerly, one per step, by stepping
    a configuration: (index, state before, consumed, action, node, node
    count, pointer path) after each step.  A configuration frees no id, as
    a traced run frees none, so the two name the same nodes."""
    config = Configuration(machine)
    feed = [*word, END]
    limit = len(feed) if budget is None else math.ceil(budget)
    records: list = []
    pos = 0
    while len(records) < limit:
        state = config.state
        moved = config.push(feed[pos] if pos < len(feed) else None)
        if moved is None:
            break
        consumed, action = moved
        pos += consumed != LAMBDA
        tree = config.tree
        records.append(
            (len(records), state, consumed, action, config.node, tree.size, tree.path(config.node))
        )
    return records


def assert_trace_is_eager(machine, word, budget=None):
    """`run`'s trace reads the records of `eager_records`, field for field,
    in iteration, by index and by slice."""
    out = run(machine, word, budget=budget, traced=True)
    want = eager_records(machine, word, budget)
    assert out.steps_taken == len(out.trace) == len(want)

    def fields(rec):
        return (
            rec.step_index, rec.state_before, rec.consumed, rec.action,
            rec.node_after, rec.node_count_after, rec.pointer_after,
        )

    assert [fields(rec) for rec in out.trace] == want
    assert [fields(out.trace[i]) for i in range(len(want))] == want
    assert [fields(rec) for rec in out.trace[1::3]] == want[1::3]
    assert len({id(rec.tree) for rec in out.trace}) <= 1  # the run's own tree
    return out


def _trace_cases():
    aborting = mk([row("q0", "a", "q1", push("x", "l")), row("q1", "a", "q1", DOWN_R, anc="l")])
    lam_aborting = mk(
        [row("q0", LAMBDA, "q1", push("x", "l")), row("q1", LAMBDA, "q0", UP, anc="l"),
         row("q0", LAMBDA, "q2", anc="-", hl="+"), row("q2", LAMBDA, "q2", UP)],
        real_time=False,
    )
    exhausted, aborted = Verdict.BUDGET_EXHAUSTED, Verdict.WELL_FORMEDNESS_VIOLATION
    cases = []
    for name in sorted(BUILTINS):
        machine, prefix = BUILTINS[name](), QUOTIENT_PREFIXES[name]
        quotient = left_quotient(machine, prefix)  # its tree has more than one node
        cases.append(pytest.param(machine, prefix, None, None, id=name))
        cases.append(pytest.param(quotient, prefix, None, None, id=f"{name}-quotient"))
    cases += [
        pytest.param(build_expo(), "a" * 64, 40, exhausted, id="expo-budget-exhausted"),
        pytest.param(PUSH_POP, "", 81, exhausted, id="push-pop"),
        pytest.param(BOTH_SIDES, "", 2.5, exhausted, id="both-sides-float-budget"),
        pytest.param(BOTH_SIDES, "", 80, exhausted, id="both-sides"),
        pytest.param(aborting, "aa", None, aborted, id="aborted"),
        pytest.param(lam_aborting, "", 10, aborted, id="aborted-in-lambda-moves"),
        pytest.param(mk([]), "", None, Verdict.REJECTED, id="no-step"),
    ]
    return cases


@pytest.mark.parametrize("machine, word, budget, verdict", _trace_cases())
def test_trace_builds_the_records_an_eager_loop_builds(machine, word, budget, verdict):
    out = assert_trace_is_eager(machine, word, budget)
    assert verdict is None or out.verdict is verdict


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "busy", "λ"]), st.data(),
    st.lists(st.text("ab¢⊳", max_size=12), min_size=1, max_size=4),
)
def test_traces_of_random_machines_build_the_eager_records(kind, data, words):
    rows = {"random": _random_rows, "busy": _busy_rows, "λ": _lambda_rows}[kind]()
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], data.draw(rows),
            real_time=kind != "λ", non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    for word in words:
        assert_trace_is_eager(machine, word, 20 if kind == "λ" else None)


def test_trace_is_a_read_only_sequence_of_records():
    machine = left_quotient(build_mi_hat(), QUOTIENT_PREFIXES["mi-hat"])
    word = "ba" * 20 + "▶"
    out = run(machine, word, traced=True)
    trace = out.trace
    records = tuple(trace)
    assert out.accepted and len(trace) == len(records) == len(word) + 1
    assert tuple(trace) == records  # iterating twice reads the same records
    assert tuple(reversed(trace)) == records[::-1]
    assert all(type(rec) is StepRecord for rec in records)
    assert trace[-1] == records[-1] and trace[-len(trace)] == records[0]
    assert trace[-1].node_count_after == final_tree(machine, word).size == 1  # all 40 popped
    assert trace[0].node_count_after == machine.initial_tree.size - 1 == 40
    for part in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -2),
                 slice(30, 2, -7), slice(9, 3), slice(100, 200), slice(0, 0)):
        assert trace[part] == records[part], part
    for index in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[index]
    assert trace == records and records == trace and trace != records[:-1]
    assert trace != list(records) and trace == trace and hash(trace) == hash(records)
    again = run(machine, word, traced=True)
    assert again.trace != trace  # records compare their trees by identity
    assert hash(out) == hash(out) and out == out and out != again
    assert {out: 1}[out] == 1
    assert run(machine, word) == dataclasses.replace(out, trace=None)


def test_traced_run_holds_few_bytes_per_step():
    """A traced run keeps each step's program entry and node, and builds no
    record until one is read: on `expo` at 2^14 it holds about 33 bytes per
    step (its columns, the new nodes' ids and the grown tree), where records
    built in the loop held about 164."""
    machine, word = build_expo(), "a" * 2**14
    run(machine, word, traced=True)  # compiles the program outside the count
    tracemalloc.start()
    try:
        out = run(machine, word, traced=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.accepted and out.steps_taken == len(word) + 1
    assert held / out.steps_taken < 64


def store(config: Configuration) -> tuple:
    """A configuration's node lists, free ids, size, tree, node and state."""
    tree = config.tree
    lists = (tree.labels, tree.parents, tree.lefts, tree.rights, tree.shapes, tree.free)
    return (
        [entries[:] for entries in lists], tree.size, tree.snapshot(), config.node, config.state,
    )


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_walk_leaves_the_store_as_it_found_it(name, monkeypatch):
    """The walks of `enumerate_accepted`, `cross_check` and `machines_agree`
    from a quotient machine's configuration leave it as they found it, down
    to its node lists; so do the pushes `machines_agree` makes on its second
    configuration, once they are popped."""
    machine = left_quotient(BUILTINS[name](), QUOTIENT_PREFIXES[name])
    made = []

    class Recorded(Configuration):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, store(self)))

    monkeypatch.setattr(analysis, "Configuration", Recorded)
    max_len = 30 if name in ("expo", "fib", "cub") else 5
    anything = LanguageOracle("anything", machine.input_alphabet, lambda word: True)
    enumerate_accepted(machine, max_len)
    cross_check(machine, anything, max_len)
    machines_agree(machine, machine, max_len)
    assert len(made) == 4
    for config, before in made:
        while config._undo or config.dead:
            config.pop()
        assert store(config) == before
        config.tree.check_invariants()
