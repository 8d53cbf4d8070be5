"""Machine descriptions: transition tables, wildcard rows, validation."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .tree import ROOT, ROOT_LABEL, _SHAPE_BASE, GammaTree, format_action

LAMBDA = "λ"
END = "⋗"

ANCESTRIES = ("-", "l", "r")
FLAGS = ("-", "+")


class TransitionKey(NamedTuple):
    """Fully concrete lookup key of the transition function."""

    state: str
    symbol: str  # input symbol, LAMBDA or END
    ancestry: str
    has_left: str
    has_right: str
    label: str  # tree symbol or ROOT_LABEL


@dataclass
class TransitionRow:
    """One table entry before wildcard expansion.

    `ancestry`, `has_left`, `has_right` and `label` may be '*'.  `origin`
    is a source line number when the row came from a machine file.
    """

    state: str
    symbol: str
    ancestry: str
    has_left: str
    has_right: str
    label: str
    target: str
    action: tuple
    origin: int | None = None

    @property
    def specificity(self) -> int:
        return 4 - (self.ancestry, self.has_left, self.has_right, self.label).count("*")

    def describe(self) -> str:
        where = f" (line {self.origin})" if self.origin is not None else ""
        return (
            f"{self.state} {self.symbol} ({self.ancestry},{self.has_left},"
            f"{self.has_right}) {self.label} -> {self.target} "
            f"{format_action(self.action)}{where}"
        )


class SpecificityConflict(ValueError):
    """Two overlapping rows of equal specificity disagree."""

    def __init__(self, key: TransitionKey, first: TransitionRow, second: TransitionRow):
        self.key = key
        self.first = first
        self.second = second
        super().__init__(
            f"rows [{first.describe()}] and [{second.describe()}] both match "
            f"{tuple(key)} with equal specificity but different outcomes"
        )


def _node_shapes(
    ancestry: str, has_left: str, has_right: str, label: str, labels: tuple[str, ...]
) -> list[tuple[str, str, str, str]]:
    """The concrete (ancestry, has_left, has_right, label) tails of the keys
    a row pattern stands for, in the order `expand_rows` makes them:
    ancestry, then label, then has_left, then has_right.

    `labels` is what a '*' label stands for, ⊥ included.  Only consistent
    tails are made: the root is exactly the ⊥-labeled node, so ancestry
    '-' pairs only with label ⊥.
    """
    return [
        (anc, hl, hr, lab)
        for anc in (ANCESTRIES if ancestry == "*" else (ancestry,))
        for lab in (labels if label == "*" else (label,))
        if (anc == "-") == (lab == ROOT_LABEL)
        for hl in (FLAGS if has_left == "*" else (has_left,))
        for hr in (FLAGS if has_right == "*" else (has_right,))
    ]


# Makes a key without the Python-level `TransitionKey.__new__`:
# `_new_tuple(TransitionKey, fields)` equals `TransitionKey(*fields)`.
_new_tuple = tuple.__new__


def expand_rows(rows: Iterable[TransitionRow], tree_alphabet: Iterable[str]):
    """Expand wildcard rows into a concrete transition table.

    A more specific row (more concrete fields) overrides a more general one
    on the keys they share; two equally specific rows that disagree on a
    key conflict unless an even more specific row decides that key.  The
    result is independent of row order, and its keys are in the order
    they first appear: by row, then as `_node_shapes` lists them.  Only
    consistent keys are generated: the root is exactly the ⊥-labeled node,
    so ancestry '-' pairs only with label ⊥.

    The work is one dictionary probe per key made, with each row's key
    shapes worked out once per distinct wildcard pattern.  Of several
    conflicts the least key is reported.
    """
    labels = tuple(tree_alphabet) + (ROOT_LABEL,)
    table: dict[TransitionKey, tuple[str, tuple]] = {}
    chosen: dict[TransitionKey, tuple[int, TransitionRow]] = {}  # key -> (specificity, row)
    conflicts: dict[TransitionKey, tuple[TransitionRow, TransitionRow]] = {}
    shapes_of: dict[tuple, list] = {}  # row pattern -> _node_shapes of it
    for row in rows:
        pattern = (row.ancestry, row.has_left, row.has_right, row.label)
        shapes = shapes_of.get(pattern)
        if shapes is None:
            shapes = shapes_of[pattern] = _node_shapes(*pattern, labels)
        head = (row.state, row.symbol)
        rhs = (row.target, row.action)
        rank = (row.specificity, row)  # one object per row
        for shape in shapes:
            key = _new_tuple(TransitionKey, head + shape)
            prev = chosen.setdefault(key, rank)
            if prev is rank:  # a new key
                table[key] = rhs
            elif rank[0] > prev[0]:
                chosen[key] = rank
                table[key] = rhs
                conflicts.pop(key, None)
            elif rank[0] == prev[0] and table[key] != rhs:
                conflicts.setdefault(key, (prev[1], row))
    if conflicts:
        key = min(conflicts)
        raise SpecificityConflict(key, *conflicts[key])
    return table


@dataclass(frozen=True, eq=False)
class Machine:
    """A deterministic tree-walking-storage machine.

    Immutable after construction; safe to share across concurrent runs.
    `initial_tree`/`initial_pointer` override the default single-root
    starting storage (used by the left-quotient combinator); runs always
    clone the initial tree.  Variants are made with `dataclasses.replace`.
    """

    name: str
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tree_alphabet: tuple[str, ...]
    transitions: dict
    start: str
    accepting: frozenset
    real_time: bool
    non_erasing: bool
    initial_tree: GammaTree | None = None
    initial_pointer: str = ""

    @cached_property
    def _program(self) -> dict:
        """The step program; see `_compile`."""
        return _compile(self)

    def _resumed(self, name: str, start: str, tree: GammaTree, pointer: str) -> Machine:
        """This machine renamed, starting in `start` on `tree` at `pointer`,
        a configuration one of its runs reached, with its step program.

        The program is the one `_compile` would make for the copy: the
        run's states are targets of this machine's rules, and its tree's
        labels are pushed labels or labels of this machine's own tree.
        """
        resumed = replace(
            self, name=name, start=start, initial_tree=tree, initial_pointer=pointer
        )
        vars(resumed)["_program"] = self._program  # where the cached_property keeps it
        return resumed


def _legal(key: TransitionKey, action: tuple) -> bool:
    """Whether `action` may fire at a node of the key's shape."""
    kind = action[0]
    if kind == "stay":
        return True
    if kind == "up":
        return key.ancestry != "-"
    if kind == "down-l":
        return key.has_left == "+"
    if kind == "down-r":
        return key.has_right == "+"
    if kind == "pop":
        return key.ancestry != "-" and key.has_left == key.has_right == "-"
    if kind == "push":
        return (key.has_left if action[2] == "l" else key.has_right) == "-"
    raise ValueError(f"unknown action {action!r}")


# Opcodes of step-program entries.  _ABORT and _CLASH come last, so that one
# comparison (`op >= _ABORT`) finds a step that cannot be made.  A stay is 0
# and the three moves index `(None, parents, lefts, rights)`, so a stepper
# makes any of them with `if op: node = links[op][node]`.
_OP_STAY, _OP_UP, _OP_DOWN_L, _OP_DOWN_R, _OP_PUSH, _OP_POP, _ABORT, _CLASH = range(8)
_OPCODES = {
    "stay": _OP_STAY, "up": _OP_UP, "down-l": _OP_DOWN_L, "down-r": _OP_DOWN_R,
    "push": _OP_PUSH, "pop": _OP_POP,
}


_EMPTY_ROW = (None,) * 12
_CLASH_ENTRY = (None, _CLASH, None, None, None, None)


def _compile(machine: Machine) -> dict:
    """Compile `machine.transitions` into the indexed step program.

    `program[state][symbol][label][shape]` is the step the machine makes in
    `state` reading `symbol` (an input symbol, END, or None after END) at a
    node with that label and shape code, or None where it halts.  Each entry
    is settled here once: a symbol rule; else, on a machine not flagged
    real-time, a λ rule (consuming LAMBDA); a clash where both exist, which
    raises only when a run steps on it; and an abort where `_legal` refuses
    the action.  An entry carries its target's own part of the program, so
    a run never looks a state up.  The program is total over every state,
    symbol and label a run can meet, including states and labels outside
    the declared ones; a symbol outside it reads as None (λ moves only).
    Equal entries are one object, and so are all empty rows.

    An entry is a plain tuple `(target, op, operand, consumed, action,
    rows)`: the target state (None on an abort or a clash), the opcode, the
    pushed label (else None), the symbol read or LAMBDA (None on a clash),
    the action (None on a clash) and the target's part of the program
    (None on an abort or a clash).  Every step unpacks one, and CPython
    specializes that unpack for exact tuples only.
    """
    trans = machine.transitions
    states = dict.fromkeys((
        machine.start, *machine.states, *(k.state for k in trans), *(t for t, _ in trans.values())
    ))
    symbols = dict.fromkeys((
        *machine.input_alphabet, END, *(k.symbol for k in trans if k.symbol != LAMBDA), None
    ))
    labels = dict.fromkeys((
        *machine.tree_alphabet, ROOT_LABEL, *(k.label for k in trans),
        *(action[1] for _, action in trans.values() if action[0] == "push"),
    ))
    if machine.initial_tree is not None:
        tree = machine.initial_tree
        labels.update(dict.fromkeys(tree.labels[node] for node in tree.nodes()))
    no_rules = dict.fromkeys(labels, _EMPTY_ROW)
    program = {state: dict.fromkeys(symbols, no_rules) for state in states}
    interned: dict = {}  # equal entries -> one object

    def entry(key, consumed, target, action):
        if _legal(key, action):
            operand = action[1] if action[0] == "push" else None
            spec = (target, _OPCODES[action[0]], operand, consumed, action)
        else:
            spec = (None, _ABORT, None, consumed, action)
        found = interned.get(spec)
        if found is None:
            found = interned[spec] = (*spec, program.get(spec[0]))
        return found

    rows: dict = {}  # (state, symbol, label) -> row
    lambdas = []
    for key, (target, action) in trans.items():
        state, symbol, anc, hl, hr, label = key
        shape = _SHAPE_BASE[anc] + (hl == "+") * 2 + (hr == "+")  # as in GammaTree.shapes
        if symbol == LAMBDA:
            lambdas.append((key, shape, target, action))
            continue
        row = rows.get((state, symbol, label))
        if row is None:
            row = rows[state, symbol, label] = [None] * 12
        row[shape] = entry(key, symbol, target, action)
    if not machine.real_time:
        for key, shape, target, action in lambdas:
            step = entry(key, LAMBDA, target, action)
            for sym in symbols:
                row = rows.get((key.state, sym, key.label))
                if row is None:
                    row = rows[key.state, sym, key.label] = [None] * 12
                row[shape] = step if row[shape] is None else _CLASH_ENTRY
    for (state, sym, label), row in rows.items():
        if program[state][sym] is no_rules:
            program[state][sym] = dict(no_rules)
        program[state][sym][label] = tuple(row)
    return program


def machine_from_rows(
    name: str,
    input_alphabet: Iterable[str],
    tree_alphabet: Iterable[str],
    start: str,
    accepting: Iterable[str],
    rows: Iterable[TransitionRow],
    real_time: bool,
    non_erasing: bool,
    initial_tree: GammaTree | None = None,
    initial_pointer: str = "",
) -> Machine:
    """Build a Machine, collecting states in first-appearance order.

    Each iterable argument is read once, so iterators are fine.
    """
    rows = list(rows)
    tree_alphabet = tuple(tree_alphabet)
    accepting = tuple(accepting)
    states = {start: None}  # a dict keeps first appearances in order
    for row in rows:
        states[row.state] = states[row.target] = None
    states.update(dict.fromkeys(accepting))
    return Machine(
        name=name,
        states=tuple(states),
        input_alphabet=tuple(input_alphabet),
        tree_alphabet=tree_alphabet,
        transitions=expand_rows(rows, tree_alphabet),
        start=start,
        accepting=frozenset(accepting),
        real_time=real_time,
        non_erasing=non_erasing,
        initial_tree=initial_tree,
        initial_pointer=initial_pointer,
    )


# -- validation --------------------------------------------------------------

DETERMINISM_CONFLICT = "determinism-conflict"
REAL_TIME_VIOLATION = "real-time-violation"
NON_ERASING_VIOLATION = "non-erasing-violation"
UNKNOWN_STATE = "unknown-state"
UNKNOWN_SYMBOL = "unknown-symbol"
BAD_INITIAL_CONFIG = "bad-initial-config"


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def validate(machine: Machine) -> list[Violation]:
    """Diagnose a machine; an empty list means it is well put together.

    Reports λ/symbol determinism conflicts, λ rules in real-time machines,
    pops in non-erasing machines, references to unknown states or symbols,
    and a bad initial tree or pointer.  A rule whose action is illegal at
    its own key's shape is not reported: legality is a property of the key,
    and a run that reaches such a rule aborts with a WellFormednessViolation.

    The order is fixed: start and accepting states, the tree alphabet, then
    the faults of each transition in key order, then the determinism
    conflicts by slot, then the initial configuration.  The table is
    checked through the sets of its distinct states, symbols, labels and
    actions; only the keys at fault are sorted, and the λ slots are
    collected only when the table has a λ key.
    """
    out: list[Violation] = []
    states = set(machine.states)
    inputs = set(machine.input_alphabet)
    labels = set(machine.tree_alphabet) | {ROOT_LABEL}

    if machine.start not in states:
        out.append(Violation(UNKNOWN_STATE, f"start state {machine.start!r} not among states"))
    for st in sorted(machine.accepting):
        if st not in states:
            out.append(Violation(UNKNOWN_STATE, f"accepting state {st!r} not among states"))
    if ROOT_LABEL in machine.tree_alphabet:
        out.append(Violation(UNKNOWN_SYMBOL, f"tree alphabet may not contain the reserved root label {ROOT_LABEL}"))

    trans = machine.transitions
    key_states = set(map(itemgetter(0), trans))
    key_symbols = set(map(itemgetter(1), trans))
    key_labels = set(map(itemgetter(5), trans))
    outcomes = set(trans.values())
    targets = {target for target, _ in outcomes}
    actions = {action for _, action in outcomes}
    bad_sources = key_states - states
    bad_targets = targets - states
    bad_symbols = key_symbols - inputs - {LAMBDA, END}
    bad_labels = key_labels - labels
    bad_actions = {
        action for action in actions
        if (action[0] == "push" and action[1] not in machine.tree_alphabet)
        or (action[0] == "pop" and machine.non_erasing)
    }
    lambda_at_fault = machine.real_time and LAMBDA in key_symbols
    if bad_sources or bad_targets or bad_symbols or bad_labels or bad_actions or lambda_at_fault:
        at_fault = sorted(
            key for key, (target, action) in trans.items()
            if key.state in bad_sources or target in bad_targets or key.symbol in bad_symbols
            or key.label in bad_labels or action in bad_actions
            or (lambda_at_fault and key.symbol == LAMBDA)
        )
        for key in at_fault:
            out.extend(_key_violations(machine, key, *trans[key], states, inputs, labels))

    if LAMBDA in key_symbols:
        lambda_slots = set()
        symbol_slots = {}
        for key in trans:
            slot = (key.state, key.ancestry, key.has_left, key.has_right, key.label)
            if key.symbol == LAMBDA:
                lambda_slots.add(slot)
            else:
                symbol_slots.setdefault(slot, []).append(key.symbol)
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
            # Every id after the root's (0) holds a tree symbol unless a node
            # is at fault or a freed id keeps a stale label; only then are
            # the nodes walked, breadth first, so shortest paths come first
            # and 'l' before 'r'.
            if not set(machine.tree_alphabet).issuperset(tree.labels[1:]):
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


def _key_violations(machine, key, target, action, states, inputs, labels) -> list[Violation]:
    """The faults of one transition, in the order `validate` lists them."""
    out = []
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
    return out
