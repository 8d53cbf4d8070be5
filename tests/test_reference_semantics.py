"""Cross-check the simulator against a naive reference implementation.

The reference keeps the tree as a plain path→label mapping and transcribes
the step relation directly from `Machine.transitions`, sharing no code or
data structures with the production simulator.  Agreement on verdicts,
step counts, step traces and final trees over many machines and words pins
down the semantics from two independent sides.
"""
import itertools
import random
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_machinefile import _actions, _random_rows, _states
from twsda.analysis import cross_check, enumerate_accepted, machines_agree
from twsda.builders import BUILTINS
from twsda.combinators import (
    Dfa,
    PrefixKillsMachine,
    complement,
    intersect_regular,
    left_quotient,
)
from twsda.machine import (
    END,
    LAMBDA,
    Machine,
    SpecificityConflict,
    TransitionRow,
    machine_from_rows,
    validate,
)
from twsda.oracles import LanguageOracle
from twsda.simulate import Verdict, final_tree, run
from twsda.tree import ROOT, ROOT_LABEL, GammaTree


def labels(tree: GammaTree) -> dict[str, str]:
    """The tree as a path→label mapping."""
    out, stack = {}, [(ROOT, "")]
    while stack:
        node, path = stack.pop()
        out[path] = tree.labels[node]
        for side, child in (("l", tree.lefts[node]), ("r", tree.rights[node])):
            if child is not None:
                stack.append((child, path + side))
    return out


class NaiveOutcome(NamedTuple):
    verdict: str
    steps: int
    tree: dict  # path -> label where the run stopped
    records: list  # per step: state before, consumed, action, pointer, node count


def naive_run(machine: Machine, word: str, budget=None, endmarker=True) -> NaiveOutcome:
    """Reference semantics: the verdict's name, the step count, the final
    tree and one record per step.

    Without `endmarker` the run stops as soon as the word is consumed, with
    the verdict "consumed"; that is how a left quotient reads its prefix.
    """
    if machine.initial_tree is not None:
        tree = labels(machine.initial_tree)
        pointer = machine.initial_pointer
    else:
        tree = {"": ROOT_LABEL}
        pointer = ""
    state = machine.start
    remaining = list(word) + ([END] if endmarker else [])
    if budget is None:
        budget = len(word) + 1
    steps = 0
    records: list = []

    def stop(verdict):
        return NaiveOutcome(verdict, steps, tree, records)

    def node_type(path):
        ancestry = "-" if path == "" else path[-1]
        return (
            ancestry,
            "+" if path + "l" in tree else "-",
            "+" if path + "r" in tree else "-",
        )

    while True:
        if not (endmarker or remaining):
            return stop("consumed")
        anc, hl, hr = node_type(pointer)
        label = tree[pointer]
        rule = None
        consumes = False
        if remaining:
            rule = machine.transitions.get((state, remaining[0], anc, hl, hr, label))
            consumes = rule is not None
        if rule is None and not machine.real_time:
            lam = machine.transitions.get((state, LAMBDA, anc, hl, hr, label))
            if lam is not None:
                rule = lam
                consumes = False
        if rule is None:
            accepted = not remaining and state in machine.accepting
            return stop("accepted" if accepted else "rejected")
        if steps >= budget:
            return stop("budget-exhausted")
        target, action = rule
        kind = action[0]
        if kind == "up":
            if pointer == "":
                return stop("well-formedness-violation")
            pointer = pointer[:-1]
        elif kind == "down-l":
            if pointer + "l" not in tree:
                return stop("well-formedness-violation")
            pointer += "l"
        elif kind == "down-r":
            if pointer + "r" not in tree:
                return stop("well-formedness-violation")
            pointer += "r"
        elif kind == "pop":
            if pointer == "" or pointer + "l" in tree or pointer + "r" in tree:
                return stop("well-formedness-violation")
            del tree[pointer]
            pointer = pointer[:-1]
        elif kind == "push":
            child = pointer + action[2]
            if child in tree:
                return stop("well-formedness-violation")
            tree[child] = action[1]
            pointer = child
        records.append((state, remaining[0] if consumes else LAMBDA, action, pointer, len(tree)))
        if consumes:
            remaining.pop(0)
        state = target
        steps += 1


def agree(machine: Machine, word: str, budget=None):
    """`run` and `final_tree` give the reference's verdict, step count, step
    records and final tree."""
    got = run(machine, word, budget=budget, traced=True)
    want = naive_run(machine, word, budget=budget)
    assert got.verdict.value == want.verdict, (word, got.verdict.value, want.verdict)
    assert got.steps_taken == want.steps, (word, got.steps_taken, want.steps)
    assert [rec.step_index for rec in got.trace] == list(range(want.steps)), word
    assert [
        (r.state_before, r.consumed, r.action, r.pointer_after, r.node_count_after)
        for r in got.trace
    ] == want.records, word
    assert labels(final_tree(machine, word, budget=budget)) == want.tree, word


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reference_agreement_exhaustive_short(name):
    machine = BUILTINS[name]()
    symbols = sorted(machine.input_alphabet)
    depth = 5 if len(symbols) > 1 else 24
    for length in range(depth + 1):
        if len(symbols) == 1:
            agree(machine, symbols[0] * length)
        else:
            for parts in itertools.product(symbols, repeat=length):
                agree(machine, "".join(parts))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reference_agreement_random_long(name):
    machine = BUILTINS[name]()
    symbols = sorted(machine.input_alphabet)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(300):
        length = rng.randint(6, 40)
        word = "".join(rng.choice(symbols) for _ in range(length))
        agree(machine, word)


def test_reference_agreement_on_derived_machines():
    base = BUILTINS["mi-hat"]()
    derived = [
        complement(base),
        left_quotient(base, "¢a"),
        complement(left_quotient(base, "¢a")),
    ]
    rng = random.Random(7)
    symbols = sorted(base.input_alphabet)
    for machine in derived:
        for _ in range(200):
            length = rng.randint(0, 16)
            word = "".join(rng.choice(symbols) for _ in range(length))
            agree(machine, word)


def test_quotient_and_complement_commute():
    from twsda.analysis import machines_agree

    for name in ("expo", "mi-hat"):
        base = BUILTINS[name]()
        prefix = "a" if name == "expo" else "¢"
        one = complement(left_quotient(base, prefix))
        two = left_quotient(complement(base), prefix)
        max_len = 40 if name == "expo" else 6
        assert machines_agree(one, two, max_len) == []


# Even number of a's, over the random machines' alphabet.
EVEN_A = Dfa(
    ("even", "odd"), ("a", "b", "¢", "⊳"),
    {
        (p, sym): ("odd" if p == "even" else "even") if sym == "a" else p
        for p in ("even", "odd") for sym in ("a", "b", "¢", "⊳")
    },
    "even", frozenset({"even"}),
)


@st.composite
def _busy_rows(draw):
    """`_random_rows` over a layer of catch-all rows, one for most (state,
    symbol) pairs, so that runs get past their first step and some accept.
    The random rows are more specific and override the layer."""
    rows = draw(_random_rows())
    for state in ("q0", "q1", "loop", "final"):
        for sym in ("a", "b", "¢", "⊳", END):
            if draw(st.integers(0, 3)):
                rows.append(
                    TransitionRow(state, sym, "*", "*", "*", "*", draw(_states), draw(_actions))
                )
    return rows


@settings(max_examples=60, deadline=None)
@given(_busy_rows())
def test_random_real_time_machines_match_the_reference(rows):
    """Random tables, pops and actions illegal at their own shape included."""
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=True, non_erasing=False,
        )
    except SpecificityConflict:
        return
    assert not validate(machine)
    words = [
        "".join(parts)
        for length in range(4)
        for parts in itertools.product(sorted(machine.input_alphabet), repeat=length)
    ]
    for word in words:
        agree(machine, word)
    assert sorted(machines_agree(machine, complement(machine), 3)) == sorted(words)
    # Most random tables accept few words, so enumeration and the closure
    # operations are also checked on the complement, which accepts most.
    for m in (machine, complement(machine)):
        accepted = [w for w in words if naive_run(m, w)[0] == "accepted"]
        assert enumerate_accepted(m, 3) == accepted
        even = [w for w in accepted if w.count("a") % 2 == 0]
        assert enumerate_accepted(intersect_regular(m, EVEN_A), 3) == even
        for prefix in words[:21]:  # every prefix up to length 2
            suffixes = [u for u in words if len(prefix) + len(u) <= 3]
            try:
                quotient = left_quotient(m, prefix)
            except PrefixKillsMachine:
                assert all(prefix + u not in accepted for u in suffixes), prefix
                continue
            for u in suffixes:
                assert run(quotient, u).accepted is (prefix + u in accepted), (prefix, u)


@st.composite
def _lambda_rows(draw):
    """`_busy_rows` where one state trades all its rows for λ rows, half of
    the time under a λ catch-all, so that runs make λ moves, loop, abort
    inside λ moves or stop on their budget."""
    rows = draw(_busy_rows())
    state = draw(_states)
    rows = [r for r in rows if r.state != state]
    if draw(st.booleans()):
        rows.append(TransitionRow(state, LAMBDA, "*", "*", "*", "*", draw(_states), draw(_actions)))
    for _ in range(draw(st.integers(1, 3))):
        rows.append(
            TransitionRow(
                state, LAMBDA,
                draw(st.sampled_from(["-", "l", "r", "*"])),
                draw(st.sampled_from(["-", "+", "*"])),
                draw(st.sampled_from(["-", "+", "*"])),
                draw(st.sampled_from(["x", "y", "*"])),
                draw(_states), draw(_actions),
            )
        )
    return rows


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_random_machines_match_the_reference_within_a_budget(lam, data):
    """Machines with λ moves, and real-time ones, under explicit budgets:
    the prefix walks, the product with a DFA and the quotient all give the
    reference's verdict for every word."""
    rows = data.draw(_lambda_rows() if lam else _busy_rows())
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=not lam, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    assume(not validate(machine))
    words = [
        "".join(parts)
        for length in range(4)
        for parts in itertools.product(sorted(machine.input_alphabet), repeat=length)
    ]
    nothing = LanguageOracle("empty", machine.input_alphabet, lambda w: False, lambda w: False)
    product = intersect_regular(machine, EVEN_A)
    for budget in (1, 2, 2.5, 5, 13):  # 2.5 allows 3 steps, as `steps < 2.5` reads
        for word in words:
            agree(machine, word, budget=budget)
        accepted = [w for w in words if naive_run(machine, w, budget)[0] == "accepted"]
        assert enumerate_accepted(machine, 3, run_budget=budget) == accepted
        mismatches = cross_check(machine, nothing, 3, run_budget=budget)
        assert sorted(m.word for m in mismatches) == sorted(accepted)
        even = [w for w in accepted if w.count("a") % 2 == 0]
        assert enumerate_accepted(product, 3, run_budget=budget) == even
        for prefix in words[:21]:  # every prefix up to length 2
            verdict, steps, _, _ = naive_run(machine, prefix, budget, endmarker=False)
            try:
                quotient = left_quotient(machine, prefix, budget=budget)
            except PrefixKillsMachine:
                assert verdict in ("rejected", "well-formedness-violation"), prefix
                continue
            except ValueError:
                assert verdict == "budget-exhausted", prefix
                continue
            assert verdict == "consumed", prefix
            for u in words:
                if len(prefix) + len(u) <= 3:
                    want = naive_run(machine, prefix + u, steps + budget)[0] == "accepted"
                    assert run(quotient, u, budget=budget).accepted is want, (prefix, u)
