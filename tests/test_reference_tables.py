"""Cross-check the table compile against naive references.

`naive_expand_rows`, `naive_states` and `naive_validate` are the plain
row-by-row, key-by-key forms of `expand_rows`, the state collection of
`machine_from_rows` and `validate`: every key is made through
`TransitionKey(...)`, every key is checked in sorted order, and they share
no helper with `twsda.machine`.  `naive_complement_table` builds the
complement's table by expanding a catch-all row to the sink per state and
symbol.  Agreement on tables (key order included), state order, the
conflict reported and every diagnostic, in order, pins the compile down.
"""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from test_reference_semantics import _busy_rows, _lambda_rows
from twsda.builders import BUILTINS
from twsda.combinators import complement
from twsda.machine import (
    BAD_INITIAL_CONFIG,
    DETERMINISM_CONFLICT,
    END,
    LAMBDA,
    NON_ERASING_VIOLATION,
    REAL_TIME_VIOLATION,
    UNKNOWN_STATE,
    UNKNOWN_SYMBOL,
    SpecificityConflict,
    TransitionKey,
    TransitionRow,
    Violation,
    _legal,
    expand_rows,
    machine_from_rows,
    validate,
)
from twsda.machinefile import MachineFileError, parse_machine
from twsda.tree import POP, ROOT, ROOT_LABEL, STAY, GammaTree, push

ANCESTRIES = ("-", "l", "r")
FLAGS = ("-", "+")
INPUTS = ("a", "b", "¢", "⊳")
TREE_SYMBOLS = ("x", "y")


def specificity(row):
    return sum(f != "*" for f in (row.ancestry, row.has_left, row.has_right, row.label))


def naive_expand_rows(rows, tree_alphabet):
    labels = tuple(tree_alphabet) + (ROOT_LABEL,)
    table = {}
    chosen = {}
    conflicts = {}
    for row in rows:
        ancs = ANCESTRIES if row.ancestry == "*" else (row.ancestry,)
        hls = FLAGS if row.has_left == "*" else (row.has_left,)
        hrs = FLAGS if row.has_right == "*" else (row.has_right,)
        labs = labels if row.label == "*" else (row.label,)
        rhs = (row.target, row.action)
        for anc in ancs:
            for lab in labs:
                if (anc == "-") != (lab == ROOT_LABEL):
                    continue
                for hl in hls:
                    for hr in hrs:
                        key = TransitionKey(row.state, row.symbol, anc, hl, hr, lab)
                        prev = chosen.get(key)
                        if prev is None or specificity(row) > specificity(prev):
                            chosen[key] = row
                            table[key] = rhs
                            conflicts.pop(key, None)
                        elif specificity(row) == specificity(prev) and table[key] != rhs:
                            conflicts.setdefault(key, (prev, row))
    if conflicts:
        key = min(conflicts)
        raise SpecificityConflict(key, *conflicts[key])
    return table


def naive_states(start, rows, accepting):
    states = [start]
    for row in rows:
        for st_ in (row.state, row.target):
            if st_ not in states:
                states.append(st_)
    for st_ in accepting:
        if st_ not in states:
            states.append(st_)
    return tuple(states)


def naive_validate(machine):
    out = []
    states = set(machine.states)
    inputs = set(machine.input_alphabet)
    labels = set(machine.tree_alphabet) | {ROOT_LABEL}

    if machine.start not in states:
        out.append(Violation(UNKNOWN_STATE, f"start state {machine.start!r} not among states"))
    for st_ in sorted(machine.accepting):
        if st_ not in states:
            out.append(Violation(UNKNOWN_STATE, f"accepting state {st_!r} not among states"))
    if ROOT_LABEL in machine.tree_alphabet:
        out.append(Violation(UNKNOWN_SYMBOL, f"tree alphabet may not contain the reserved root label {ROOT_LABEL}"))

    lambda_slots = set()
    symbol_slots = {}
    for key in machine.transitions:
        if key.symbol == LAMBDA:
            lambda_slots.add((key.state, key.ancestry, key.has_left, key.has_right, key.label))
        else:
            symbol_slots.setdefault(
                (key.state, key.ancestry, key.has_left, key.has_right, key.label), []
            ).append(key.symbol)

    for key in sorted(machine.transitions):
        target, action = machine.transitions[key]
        if key.state not in states:
            out.append(Violation(UNKNOWN_STATE, f"transition from unknown state {key.state!r}"))
        if target not in states:
            out.append(Violation(UNKNOWN_STATE, f"transition to unknown state {target!r}"))
        if key.symbol not in inputs and key.symbol not in (LAMBDA, END):
            out.append(Violation(UNKNOWN_SYMBOL, f"transition reads unknown symbol {key.symbol!r}"))
        if key.label not in labels:
            out.append(Violation(UNKNOWN_SYMBOL, f"transition keyed on unknown tree symbol {key.label!r}"))
        if action[0] == "push" and action[1] not in machine.tree_alphabet:
            out.append(Violation(UNKNOWN_SYMBOL, f"push of unknown tree symbol {action[1]!r}"))
        if key.symbol == LAMBDA and machine.real_time:
            out.append(
                Violation(REAL_TIME_VIOLATION, f"λ rule {tuple(key)} in a machine flagged realtime")
            )
        if action[0] == "pop" and machine.non_erasing:
            out.append(
                Violation(NON_ERASING_VIOLATION, f"pop rule {tuple(key)} in a machine flagged nonerasing")
            )

    for slot in sorted(lambda_slots):
        symbols = symbol_slots.get(slot)
        if symbols:
            state, anc, hl, hr, label = slot
            out.append(
                Violation(
                    DETERMINISM_CONFLICT,
                    f"state {state!r} at ({anc},{hl},{hr})/{label} has both a λ rule "
                    f"and rules on {sorted(symbols)}",
                )
            )

    if machine.initial_tree is not None:
        tree = machine.initial_tree
        try:
            tree.check_invariants()
        except AssertionError as exc:
            out.append(Violation(BAD_INITIAL_CONFIG, f"initial tree is inconsistent: {exc}"))
        else:
            for node in tree.nodes():
                if node != ROOT and tree.labels[node] not in machine.tree_alphabet:
                    out.append(
                        Violation(
                            BAD_INITIAL_CONFIG,
                            f"initial tree node '{tree.path(node)}' labeled "
                            f"{tree.labels[node]!r} outside the tree alphabet",
                        )
                    )
        if not tree.has(machine.initial_pointer):
            out.append(
                Violation(
                    BAD_INITIAL_CONFIG,
                    f"initial pointer '{machine.initial_pointer or 'λ'}' not in the initial tree",
                )
            )
    elif machine.initial_pointer:
        out.append(
            Violation(BAD_INITIAL_CONFIG, "initial pointer given without an initial tree")
        )
    return out


def naive_complement_table(machine, sink):
    to_sink = [
        TransitionRow(state, sym, "*", "*", "*", "*", sink, STAY)
        for state in machine.states + (sink,)
        for sym in machine.input_alphabet + (END,)
    ]
    table = naive_expand_rows(to_sink, machine.tree_alphabet)
    table.update((key, rhs) for key, rhs in machine.transitions.items() if _legal(key, rhs[1]))
    return table


def build(rows, real_time=True):
    return machine_from_rows(
        "rand", INPUTS, TREE_SYMBOLS, "q0", ["final"], rows,
        real_time=real_time, non_erasing=False,
    )


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_tables_and_states_match_the_reference(lam, data):
    """The same table in the same key order, the same states in the same
    order, or the same conflict between the same two rows; and, for a
    real-time table, the same complement table."""
    rows = data.draw(_lambda_rows() if lam else _busy_rows())
    try:
        want = naive_expand_rows(rows, TREE_SYMBOLS)
    except SpecificityConflict as exc:
        with pytest.raises(SpecificityConflict) as err:
            expand_rows(rows, TREE_SYMBOLS)
        assert err.value.key == exc.key and type(err.value.key) is TransitionKey
        assert err.value.first is exc.first and err.value.second is exc.second
        assert str(err.value) == str(exc)
        return
    got = expand_rows(rows, TREE_SYMBOLS)
    assert list(got.items()) == list(want.items())
    assert all(type(key) is TransitionKey for key in got)
    machine = build(rows, real_time=not lam)
    assert machine.states == naive_states("q0", rows, ["final"])
    assert list(machine.transitions.items()) == list(want.items())
    if not lam:
        result = complement(machine)
        assert list(result.transitions.items()) == list(
            naive_complement_table(machine, result.states[-1]).items()
        )


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_complement_tables_match_the_reference(name):
    machine = BUILTINS[name]()
    result = complement(machine)
    assert result.states == machine.states + ("sink",)
    assert list(result.transitions.items()) == list(
        naive_complement_table(machine, "sink").items()
    )


@pytest.mark.parametrize("tree_alphabet", [(), ("x", "y")])
def test_parse_reports_exactly_the_rows_the_reference_expands_to_nothing(tree_alphabet):
    """`parse_machine` reports a row's shape as inconsistent exactly when
    the naive expansion of that row makes no key, for every ancestry, flag
    and label pattern a file can spell."""
    header = (
        f"alphabet: a\ntree-symbols: {' '.join(tree_alphabet)}\n"
        "start: q\naccept: q\nrealtime: true\nnonerasing: true\n"
    )
    spelled = [("*", "*"), (ROOT_LABEL, "ROOT"), *((sym, sym) for sym in tree_alphabet)]
    for anc in ("-", "l", "r", "*"):
        for hl in ("-", "+", "*"):
            for hr in ("-", "+", "*"):
                for label, token in spelled:
                    text = header + f"trans q a ({anc},{hl},{hr}) {token} -> q stay\n"
                    try:
                        parse_machine(text)
                        kinds = []
                    except MachineFileError as exc:
                        kinds = [d.kind for d in exc.diagnostics]
                    row = TransitionRow("q", "a", anc, hl, hr, label, "q", STAY)
                    want = [] if naive_expand_rows([row], tree_alphabet) else ["inconsistent-shape"]
                    assert kinds == want, (anc, hl, hr, label)


FAULTS = (
    "unknown-source", "unknown-target", "dropped-state", "unknown-symbol", "dropped-symbol",
    "unknown-label", "dropped-label", "push-unknown", "lambda-real-time", "pop-non-erasing",
    "clash", "bad-tree-label", "stale-freed-label", "inconsistent-tree", "pointer-off-tree",
    "pointer-without-tree",
)


def inject(machine, fault, data):
    """`machine` with one fault of the named kind."""
    trans = dict(machine.transitions)
    keys = list(trans)
    pick = data.draw(st.integers(0, len(keys) - 1)) if keys else None
    key = keys[pick] if keys else TransitionKey("q0", "a", "-", "-", "-", ROOT_LABEL)
    target, action = trans.get(key, ("q0", STAY))
    replace = dataclasses.replace
    if fault == "unknown-source":
        trans[key._replace(state="ghost")] = (target, action)
    elif fault == "unknown-target":
        trans[key] = ("ghost", action)
    elif fault == "dropped-state":
        gone = data.draw(st.sampled_from(machine.states))
        return replace(machine, states=tuple(s for s in machine.states if s != gone))
    elif fault == "unknown-symbol":
        trans[key._replace(symbol="z")] = (target, action)
    elif fault == "dropped-symbol":
        gone = data.draw(st.sampled_from(INPUTS))
        return replace(machine, input_alphabet=tuple(s for s in INPUTS if s != gone))
    elif fault == "unknown-label":
        trans[key._replace(ancestry="l", label="w")] = (target, action)
    elif fault == "dropped-label":
        gone = data.draw(st.sampled_from(TREE_SYMBOLS))
        return replace(machine, tree_alphabet=tuple(s for s in TREE_SYMBOLS if s != gone))
    elif fault == "push-unknown":
        trans[key] = (target, push("w", data.draw(st.sampled_from("lr"))))
    elif fault == "lambda-real-time":
        trans[key._replace(symbol=LAMBDA)] = (target, action)
        return replace(machine, transitions=trans, real_time=True)
    elif fault == "pop-non-erasing":
        trans[key] = (target, POP)
        return replace(machine, transitions=trans, non_erasing=True)
    elif fault == "clash":
        trans[key._replace(symbol=LAMBDA)] = (target, action)
        return replace(machine, transitions=trans, real_time=False)
    else:
        tree = GammaTree()
        child = tree._add_child(ROOT, "x", "l")
        tree._add_child(child, "w" if fault == "bad-tree-label" else "y", "r")
        if fault == "stale-freed-label":  # popped and freed as a run does it
            leaf = tree._add_child(child, "w", "l")
            tree._remove_leaf(leaf)
            tree.free.append(leaf)
        if fault == "inconsistent-tree":
            tree.size += 1
        if fault == "pointer-without-tree":
            return replace(machine, initial_pointer="l")
        pointer = "rl" if fault == "pointer-off-tree" else "lr"
        return replace(machine, initial_tree=tree, initial_pointer=pointer)
    return replace(machine, transitions=trans)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_validate_matches_the_reference_on_injected_faults(lam, non_erasing, data):
    """One to four faults of any kind on a random table: the same
    diagnostics in the same order as the reference."""
    rows = data.draw(_lambda_rows() if lam else _busy_rows())
    try:
        machine = build(rows, real_time=not lam)
    except SpecificityConflict:
        machine = build(rows[:1], real_time=not lam)
    machine = dataclasses.replace(machine, non_erasing=non_erasing)
    assert validate(machine) == naive_validate(machine)
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=4)):
        machine = inject(machine, fault, data)
    assert validate(machine) == naive_validate(machine)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_validate_matches_the_reference_on_builtins_and_complements(name):
    machine = BUILTINS[name]()
    for m in (machine, complement(machine), dataclasses.replace(machine, non_erasing=True),
              dataclasses.replace(machine, tree_alphabet=machine.tree_alphabet[1:])):
        assert validate(m) == naive_validate(m)
