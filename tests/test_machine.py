"""Transition tables: wildcard expansion, specificity, validation, and the
step program compiled from them."""
import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_machinefile import _actions, _random_rows, _states
from test_reference_semantics import _busy_rows, _lambda_rows, naive_run
from test_tree import QUOTIENT_PREFIXES, steps
from twsda.builders import BUILTINS, build_expo
from twsda.combinators import PrefixKillsMachine, complement, left_quotient
from twsda.machine import (
    BAD_INITIAL_CONFIG,
    DETERMINISM_CONFLICT,
    END,
    LAMBDA,
    NON_ERASING_VIOLATION,
    REAL_TIME_VIOLATION,
    UNKNOWN_STATE,
    UNKNOWN_SYMBOL,
    _ABORT,
    _CLASH,
    _OPCODES,
    Machine,
    _compile,
    SpecificityConflict,
    TransitionKey,
    TransitionRow,
    _legal,
    expand_rows,
    machine_from_rows,
    validate,
)
from twsda.simulate import Configuration, run
from twsda.tree import POP, ROOT_LABEL, STAY, UP, GammaTree


def row(state, symbol, anc, hl, hr, label, target, action=STAY, origin=None):
    return TransitionRow(state, symbol, anc, hl, hr, label, target, action, origin)


def test_expand_concrete_row():
    table = expand_rows([row("q", "a", "-", "-", "-", ROOT_LABEL, "p")], ("x",))
    assert table == {TransitionKey("q", "a", "-", "-", "-", ROOT_LABEL): ("p", STAY)}


def test_expand_full_wildcards_skips_inconsistent_keys():
    table = expand_rows([row("q", "a", "*", "*", "*", "*", "p")], ("x",))
    # root pairs only with the root label, other ancestries only with real labels
    assert len(table) == (1 + 2) * 4
    assert TransitionKey("q", "a", "-", "-", "-", ROOT_LABEL) in table
    assert TransitionKey("q", "a", "-", "-", "-", "x") not in table
    assert TransitionKey("q", "a", "l", "+", "-", "x") in table
    assert TransitionKey("q", "a", "l", "+", "-", ROOT_LABEL) not in table


def test_specific_row_overrides_wildcard():
    table = expand_rows(
        [
            row("q", "a", "*", "*", "*", "*", "general"),
            row("q", "a", "l", "-", "-", "x", "special", UP),
        ],
        ("x",),
    )
    assert table[TransitionKey("q", "a", "l", "-", "-", "x")] == ("special", UP)
    assert table[TransitionKey("q", "a", "r", "-", "-", "x")] == ("general", STAY)


def test_override_is_order_independent():
    rows = [
        row("q", "a", "l", "-", "-", "x", "special", UP),
        row("q", "a", "*", "*", "*", "*", "general"),
    ]
    table = expand_rows(rows, ("x",))
    assert table[TransitionKey("q", "a", "l", "-", "-", "x")] == ("special", UP)


def test_equal_specificity_conflict():
    with pytest.raises(SpecificityConflict):
        expand_rows(
            [
                row("q", "a", "l", "*", "-", "x", "one"),
                row("q", "a", "*", "-", "-", "x", "two"),
            ],
            ("x",),
        )


def test_equal_specificity_same_outcome_is_fine():
    table = expand_rows(
        [
            row("q", "a", "l", "*", "-", "x", "same"),
            row("q", "a", "*", "-", "-", "x", "same"),
        ],
        ("x",),
    )
    assert table[TransitionKey("q", "a", "l", "-", "-", "x")] == ("same", STAY)


def test_shadowed_conflicts_are_decided_by_the_more_specific_row():
    # the two three-field rows disagree on their one shared key, but a
    # fully concrete row decides it, whatever the processing order
    conflicting = [
        row("q", "a", "l", "*", "-", "x", "one"),
        row("q", "a", "l", "-", "*", "x", "two"),
    ]
    decider = row("q", "a", "l", "-", "-", "x", "winner", UP)
    for order in ([*conflicting, decider], [decider, *conflicting],
                  [conflicting[0], decider, conflicting[1]]):
        table = expand_rows(order, ("x",))
        assert table[TransitionKey("q", "a", "l", "-", "-", "x")] == ("winner", UP)
    with pytest.raises(SpecificityConflict):
        expand_rows(conflicting, ("x",))


def test_machine_from_rows_reads_each_iterable_once():
    rows = [row("q", "a", "*", "*", "*", "*", "p"), row("p", "a", "l", "*", "*", "x", "q", UP)]
    built = machine_from_rows("m", "a", ("x",), "q", ["p"], rows, True, True)
    once = machine_from_rows("m", iter("a"), iter("x"), "q", iter("p"), iter(rows), True, True)
    for m in (built, once):
        assert len(m.transitions) == 12 + 4 and m.accepting == {"p"} and m.states == ("q", "p")
    assert once.transitions == built.transitions and once.tree_alphabet == ("x",)


def simple_machine(rows, real_time=True, non_erasing=True, **kw):
    return machine_from_rows(
        "test", ("a",), ("x",), "q", ["q"], rows,
        real_time=real_time, non_erasing=non_erasing, **kw
    )


def test_validate_clean():
    m = simple_machine([row("q", "a", "-", "-", "-", ROOT_LABEL, "q")])
    assert validate(m) == []


def test_validate_lambda_symbol_conflict():
    m = simple_machine(
        [
            row("q", LAMBDA, "-", "-", "-", ROOT_LABEL, "q"),
            row("q", "a", "-", "-", "-", ROOT_LABEL, "q"),
        ],
        real_time=False,
    )
    kinds = [v.kind for v in validate(m)]
    assert kinds == [DETERMINISM_CONFLICT]


def test_validate_lambda_in_real_time():
    m = simple_machine([row("q", LAMBDA, "-", "-", "-", ROOT_LABEL, "q")])
    assert [v.kind for v in validate(m)] == [REAL_TIME_VIOLATION]


def test_validate_pop_in_non_erasing():
    m = simple_machine([row("q", "a", "l", "-", "-", "x", "q", POP)])
    assert [v.kind for v in validate(m)] == [NON_ERASING_VIOLATION]


def test_validate_unknown_state():
    m = Machine(
        name="bad",
        states=("q",),
        input_alphabet=("a",),
        tree_alphabet=("x",),
        transitions={TransitionKey("q", "a", "-", "-", "-", ROOT_LABEL): ("ghost", STAY)},
        start="q",
        accepting=frozenset({"q"}),
        real_time=True,
        non_erasing=True,
    )
    assert [v.kind for v in validate(m)] == [UNKNOWN_STATE]


def test_validate_unknown_symbols():
    m = Machine(
        name="bad",
        states=("q",),
        input_alphabet=("a",),
        tree_alphabet=("x",),
        transitions={TransitionKey("q", "z", "-", "-", "-", ROOT_LABEL): ("q", STAY)},
        start="q",
        accepting=frozenset(),
        real_time=True,
        non_erasing=True,
    )
    assert [v.kind for v in validate(m)] == [UNKNOWN_SYMBOL]


def test_validate_reports_a_deep_label_outside_the_alphabet():
    tree = steps(*[
        ("z" if i in (1500, 2999) else "x") + ("l" if i % 2 else "r") for i in range(3000)
    ]).tree
    deep = "rl" * 1500
    m = simple_machine([], initial_tree=tree, initial_pointer=deep)
    assert [(v.kind, v.message) for v in validate(m)] == [
        (BAD_INITIAL_CONFIG, f"initial tree node '{path}' labeled 'z' outside the tree alphabet")
        for path in (deep[:1501], deep)
    ]


def test_validate_reports_a_pointer_off_the_l_r_alphabet():
    machine = build_expo()
    tree = GammaTree.from_snapshot(f"({ROOT_LABEL} . ({machine.tree_alphabet[0]} . .))")
    m = dataclasses.replace(machine, initial_tree=tree, initial_pointer="x")
    assert [(v.kind, v.message) for v in validate(m)] == [
        (BAD_INITIAL_CONFIG, "initial pointer 'x' not in the initial tree")
    ]


def test_validate_endmarker_key_is_fine():
    m = simple_machine([row("q", END, "-", "-", "-", ROOT_LABEL, "q")])
    assert validate(m) == []


# -- the compiled step program -------------------------------------------------


def assert_program_follows_transitions(machine: Machine) -> None:
    """Every entry of `machine._program` is what `transitions` decides: the
    symbol rule, else (not real-time) the λ rule, a clash when both exist,
    an abort when `_legal` refuses the action, and none otherwise."""
    program = machine._program
    trans = machine.transitions
    assert set(program) >= {machine.start, *machine.states}
    specs = {}
    for state, by_symbol in program.items():
        assert set(by_symbol) >= {*machine.input_alphabet, END, None}
        for sym, by_label in by_symbol.items():
            assert set(by_label) >= {*machine.tree_alphabet, ROOT_LABEL}
            for label, row in by_label.items():
                assert len(row) == 12
                for shape, got in enumerate(row):
                    anc, hl, hr = "-lr"[shape // 4], "-+"[shape >> 1 & 1], "-+"[shape & 1]
                    rule = None if sym is None else trans.get(
                        TransitionKey(state, sym, anc, hl, hr, label)
                    )
                    key = TransitionKey(state, LAMBDA, anc, hl, hr, label)
                    lam = None if machine.real_time else trans.get(key)
                    where = (state, sym, label, shape)
                    # an exact tuple: CPython specializes the unpack of no other type
                    assert got is None or type(got) is tuple, where
                    if rule is not None and lam is not None:
                        assert got is not None and got[1] == _CLASH, where
                        continue
                    consumed = sym if rule is not None else LAMBDA
                    rule = rule if rule is not None else lam
                    if rule is None:
                        assert got is None, where
                        continue
                    target, action = rule
                    got_target, got_op, got_operand, got_consumed, got_action, got_rows = got
                    assert (got_consumed, got_action) == (consumed, action), where
                    if not _legal(key, action):
                        assert (got_target, got_op, got_rows) == (None, _ABORT, None), where
                    else:
                        assert got_target == target and got_op == _OPCODES[action[0]], where
                        assert got_rows is program[target], where
                        pushed = action[1] if action[0] == "push" else None
                        assert got_operand == pushed, where
                    # equal entries are one object
                    assert specs.setdefault(got[:5], got) is got, where


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_program_of_builtins_and_their_derivatives(name):
    machine = BUILTINS[name]()
    prefix = {"expo": "aa", "fib": "aa", "cub": "a", "trie-p": "a$",
              "trie-p-hat": "ab", "mi-hat": "a"}[name]
    for m in (machine, complement(machine), left_quotient(machine, prefix)):
        assert_program_follows_transitions(m)


@settings(max_examples=60, deadline=None)
@given(_busy_rows(), st.integers(0, 3), st.data())
def test_program_of_random_machines(rows, lambdas, data):
    """Random tables with 0 to 3 λ rows on states that keep their symbol
    rows, so that some keys clash; building the program never raises."""
    for _ in range(lambdas):
        rows.append(
            TransitionRow(
                data.draw(_states), LAMBDA,
                data.draw(st.sampled_from(["-", "l", "r", "*"])),
                data.draw(st.sampled_from(["-", "+", "*"])),
                data.draw(st.sampled_from(["-", "+", "*"])),
                data.draw(st.sampled_from(["x", "y", "*"])),
                data.draw(_states), data.draw(_actions),
            )
        )
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=not lambdas, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    assert_program_follows_transitions(machine)


def assert_program_is_compiled(machine: Machine) -> None:
    """`machine._program` gives the entry a fresh `_compile(machine)` gives
    for every state, symbol, label and shape the fresh program has, and
    each entry's rows are its own program's part for the target."""
    program, fresh = machine._program, _compile(machine)
    for state, by_symbol in fresh.items():
        for sym, by_label in by_symbol.items():
            for label, row in by_label.items():
                for shape, want in enumerate(row):
                    got = program[state][sym][label][shape]
                    where = (state, sym, label, shape)
                    if want is None:
                        assert got is None, where
                        continue
                    assert got[:5] == want[:5], where
                    assert got[5] is program.get(got[0]), where
                    assert want[5] is fresh.get(want[0]), where


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_quotient_takes_over_its_machines_program(name):
    machine = BUILTINS[name]()
    quotient = left_quotient(machine, QUOTIENT_PREFIXES[name])
    again = None
    for sym in sorted(machine.input_alphabet):  # a quotient of the quotient
        try:
            again = left_quotient(quotient, sym)
            break
        except PrefixKillsMachine:
            continue
    assert quotient._program is machine._program and again._program is machine._program
    assert machine.initial_tree is None and quotient.initial_tree.size > 1
    for m in (quotient, again):
        assert_program_is_compiled(m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "busy", "λ"]), st.data(), st.text("ab¢⊳", max_size=8))
def test_random_quotients_take_over_their_machines_program(kind, data, word):
    """The quotient by the longest prefix of `word` that the machine
    consumes, on real-time and λ machines."""
    rows = {"random": _random_rows, "busy": _busy_rows, "λ": _lambda_rows}[kind]()
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], data.draw(rows),
            real_time=kind != "λ", non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    budget = 30 if kind == "λ" else None
    for end in range(len(word), -1, -1):
        try:
            quotient = left_quotient(machine, word[:end], budget)
        except (PrefixKillsMachine, ValueError):
            continue
        break
    assert quotient._program is machine._program
    assert_program_is_compiled(quotient)


def ghost_machine(start="q", target="ghost", real_time=True):
    """The machine of `test_validate_unknown_state`, whose one rule leads out
    of `states`, optionally started outside them too."""
    return Machine(
        name="bad",
        states=("q",),
        input_alphabet=("a",),
        tree_alphabet=("x",),
        transitions={
            TransitionKey(start, "a", "-", "-", "-", ROOT_LABEL): (target, STAY),
            TransitionKey(target, LAMBDA, "-", "-", "-", ROOT_LABEL): ("q", STAY),
        },
        start=start,
        accepting=frozenset({"q"}),
        real_time=real_time,
        non_erasing=True,
    )


@pytest.mark.parametrize("start", ["q", "outside"])
@pytest.mark.parametrize("real_time", [True, False])
def test_states_outside_the_table_still_run(start, real_time):
    m = ghost_machine(start=start, real_time=real_time)
    assert validate(m)
    for word in ("", "a", "aa"):
        out = run(m, word, budget=None if real_time else 4)
        want = naive_run(m, word, budget=None if real_time else 4)
        assert (out.verdict.value, out.steps_taken) == (want.verdict, want.steps), word
        assert out.verdict.value in ("rejected", "budget-exhausted")


def test_push_of_a_symbol_outside_the_alphabet_reads_as_no_rule():
    config = Configuration(build_expo())
    assert config.push("z") is None
    assert config.dead == 1 and config.violation is None
    # not real-time: only λ rules apply to it, as to the end of the input
    config = Configuration(ghost_machine(real_time=False))
    assert config.push("a") == ("a", STAY) and config.state == "ghost"
    assert config.push("z") == (LAMBDA, STAY) and config.state == "q"
    assert config.push("z") is None and config.violation is None
