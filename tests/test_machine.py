"""Transition tables: wildcard expansion, specificity, validation."""
import dataclasses

import pytest

from twsda.builders import build_expo
from twsda.machine import (
    BAD_INITIAL_CONFIG,
    DETERMINISM_CONFLICT,
    END,
    LAMBDA,
    NON_ERASING_VIOLATION,
    REAL_TIME_VIOLATION,
    UNKNOWN_STATE,
    UNKNOWN_SYMBOL,
    Machine,
    SpecificityConflict,
    TransitionKey,
    TransitionRow,
    expand_rows,
    machine_from_rows,
    validate,
)
from twsda.tree import POP, ROOT_LABEL, STAY, UP, GammaTree, push


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
    tree = GammaTree()
    node = tree.root
    for i in range(3000):
        label = "z" if i in (1500, 2999) else "x"
        node = tree.apply(node, push(label, "l" if i % 2 else "r"))[0]
    deep = "rl" * 1500
    m = simple_machine([], initial_tree=tree, initial_pointer=deep)
    assert [(v.kind, v.message) for v in validate(m)] == [
        (BAD_INITIAL_CONFIG, f"initial tree node '{path}' labeled 'z' outside the tree alphabet")
        for path in (deep[:1501], deep)
    ]


def test_validate_reports_a_pointer_off_the_l_r_alphabet():
    machine = build_expo()
    tree = GammaTree()
    tree.apply(tree.root, push(machine.tree_alphabet[0], "r"))
    m = dataclasses.replace(machine, initial_tree=tree, initial_pointer="x")
    assert [(v.kind, v.message) for v in validate(m)] == [
        (BAD_INITIAL_CONFIG, "initial pointer 'x' not in the initial tree")
    ]


def test_validate_endmarker_key_is_fine():
    m = simple_machine([row("q", END, "-", "-", "-", ROOT_LABEL, "q")])
    assert validate(m) == []
