"""Single-step and whole-run semantics.

A configuration is a state, a storage tree and a pointer; the run feeds it
the input.  Each step looks the transition function up first under the
head input symbol (or the endmarker), and only for machines not flagged
real-time under λ; a symbol rule consumes the symbol, a λ rule consumes
nothing.  A word is accepted exactly when the machine halts in an
accepting state with the word and the endmarker consumed entirely.  The
machine's step program (`Machine._program`) settles that lookup order,
and the legality of each action, once per transition key, so a step here
is one indexed lookup.  This is the one module that reads the program:
`Configuration` steps and takes steps back, `_run` runs a word, and
`_prefix_dfs` walks every word up to a length from a configuration; on a
real-time machine it steps onto no word of the last length, but reads
each one's verdict off the entry its step would take, with the tree at
the parent word.  `_run` has two loops: a real-time machine makes one
step per symbol and one for the endmarker, in a loop over those symbols
with no position, λ or budget test per step; a machine with λ moves runs
in the general loop, which has them.  Traced runs take the same loops and
append each step's program entry and the pointer's node after it to two
lists; the run's `Trace` builds a `StepRecord` from those columns only
when it is read, so a full read pays then for what the loops skip.

Nodes are ids into the storage tree's lists (`tree.GammaTree`), and the
loops hold those lists in local variables.  A pointer move is one table
read, `node = links[op][node]` with `links = (None, parents, lefts,
rights)`, skipped by `if op:` for a stay.  `_run`'s real-time loop and
the walk edit the lists inline; the rest edit through the tree's methods.
A run frees the id of every leaf it pops (a traced run none), and
`Configuration` and the walk free none, so that taking their pushes back
drops the newest ids and leaves the lists as they were.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, count, islice, repeat
from operator import itemgetter, length_hint
from typing import Iterator, NamedTuple, Sequence

from .machine import (
    END,
    LAMBDA,
    _ABORT,
    _CLASH,
    _OP_POP,
    _OP_PUSH,
    Machine,
)
from .tree import ROOT, GammaTree, WellFormednessViolation


class EndmarkerInInput(ValueError):
    """The input word contained the reserved endmarker."""


class BudgetRequired(ValueError):
    """A step budget is mandatory for machines not flagged real-time."""


class DeterminismError(RuntimeError):
    """A configuration matched both a symbol rule and a λ rule."""


class BudgetExceeded(RuntimeError):
    """An enumeration visited more words than the caller allowed."""


class Verdict(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BUDGET_EXHAUSTED = "budget-exhausted"
    WELL_FORMEDNESS_VIOLATION = "well-formedness-violation"


class StepRecord(NamedTuple):
    """One step of a traced run, as its `Trace` builds it on read.

    `node_after` is the id of the node the pointer stands on after the
    step, in `tree`, the run's own storage, and `pointer_after` its path,
    `tree.path(node_after)`.  A traced run frees no id, and a popped leaf
    keeps its parent and side, so the path stays what it was at the step.
    Records compare their trees by identity, and `_asdict()` has
    `node_after` and `tree`, not `pointer_after`.
    """

    step_index: int
    state_before: str
    consumed: str  # input symbol, END, or LAMBDA
    action: tuple
    node_after: int
    node_count_after: int
    tree: GammaTree

    @property
    def pointer_after(self) -> str:
        return self.tree.path(self.node_after)


# Node-count change by opcode, `_OP_STAY` to `_OP_POP`: a push adds a node,
# a pop takes one away.
_GROWTH = (0,) * _OP_PUSH + (1, -1)
_TARGET, _OP, _CONSUMED, _ACTION = itemgetter(0), itemgetter(1), itemgetter(3), itemgetter(4)


class Trace:
    """The steps of a traced run: a read-only sequence of StepRecords.

    A traced run keeps two columns, the step-program entry of each step
    and the node the pointer stands on after it (`_run`), and the trace
    builds each record from them when it is read.  Step i's `state_before`
    is entry i-1's target (the start state for step 0), `consumed` and
    `action` are entry i's, and `node_count_after` is the initial tree's
    size plus one per push and less one per pop in entries 0..i.

    Records are not kept, so each read builds them anew.  Iteration streams
    them in order; reading them all costs one to two untraced runs more
    than the traced run, which costs little more than an untraced one.
    `trace[i]` adds up entries 0..i, and a slice builds every record.  A
    trace equals the tuple of its records, or another trace with equal
    records, and hashes as that tuple.
    """

    __slots__ = ("_start", "_size", "_tree", "_entries", "_nodes")

    def __init__(self, start: str, size: int, tree: GammaTree, entries: list, nodes: list):
        self._start, self._size, self._tree = start, size, tree
        self._entries, self._nodes = entries, nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[StepRecord]:
        entries = self._entries
        counts = accumulate(map(_GROWTH.__getitem__, map(_OP, entries)), initial=self._size)
        next(counts)  # the initial size, before any step
        return map(tuple.__new__, repeat(StepRecord), zip(
            count(),
            chain((self._start,), map(_TARGET, entries)),
            map(_CONSUMED, entries),
            map(_ACTION, entries),
            self._nodes,
            counts,
            repeat(self._tree),
        ))  # StepRecord(...) goes through a slower Python-level __new__

    def __reversed__(self) -> Iterator[StepRecord]:
        return reversed(tuple(self))  # by index, each read is O(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        node = self._nodes[index]  # raises IndexError past either end
        if index < 0:
            index += len(self._nodes)
        entries = self._entries
        entry = entries[index]
        growth = sum(map(_GROWTH.__getitem__, map(_OP, islice(entries, index + 1))))
        return tuple.__new__(StepRecord, (
            index,
            entries[index - 1][0] if index else self._start,
            entry[3],
            entry[4],
            node,
            self._size + growth,
            self._tree,
        ))

    def __eq__(self, other):
        if isinstance(other, Trace):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == other

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class RunOutcome:
    """What `run` returns; `trace` is the run's `Trace` when traced, else None."""

    verdict: Verdict
    halt_state: str
    steps_taken: int
    input_fully_consumed: bool
    trace: Trace | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED


class Configuration:
    """A machine's state, storage tree and pointer node id, and the one
    stepper every caller uses; the input is what the caller pushes.

    `push(sym)` makes one step reading `sym`: one indexed lookup in the
    machine's step program (`Machine._program`), which has already decided
    whether a λ rule applies and whether the action is legal at the node's
    shape, and then the entry's opcode: a pointer move, a push or a pop.
    `pop()` takes the latest step back by its opcode.  A configuration
    whose machine halted or aborted is dead: `dead` counts the pushes
    since, and it rejects every extension.  `violation` holds an abort's
    WellFormednessViolation while the configuration is dead from it, and
    is None whenever `dead` is 0.  `accepts_now()` gives the verdict if the
    endmarker came next, within `budget` steps in all (by default unbounded
    if real-time, else missing).  The pointer's path is
    `tree.path(node)`.  Its pushes append ids and its pops free none, so
    `pop()` leaves the tree's lists as they were before the `push`.

    `_run` and `_prefix_dfs` step on the same program inline, with state,
    node and tree in local variables; they come here only to raise a
    clash, and `_run` to build an abort's violation.
    """

    __slots__ = (
        "state", "tree", "node", "dead", "violation",
        "_rows", "_accepting", "_real_time", "_undo", "_budget",
    )

    def __init__(self, machine: Machine, budget: int | float | None = None):
        self.state = machine.start
        if machine.initial_tree is not None:
            self.tree = machine.initial_tree.clone()
            self.node = self.tree.node_at(machine.initial_pointer)
        else:
            self.tree = GammaTree()
            self.node = ROOT
        self.dead = 0
        self.violation: WellFormednessViolation | None = None
        self._rows = machine._program[machine.start]  # the state's part of the program
        self._accepting = machine.accepting
        self._real_time = machine.real_time
        self._undo: list = []  # per step: (state, rows, node, op) before it
        self._budget = math.inf if budget is None and machine.real_time else budget

    def push(self, sym: str | None):
        """Make one step with `sym` (an input symbol, END, or None) at the head.

        The step is the program's entry for `sym`: a rule on `sym` or, on a
        machine not flagged real-time, a λ rule.  Returns (consumed,
        action), where consumed is `sym` or LAMBDA, or None when the
        machine halts or hits an abort entry (an action illegal at the
        node's shape), which leaves the configuration dead; `violation`
        then holds the abort's WellFormednessViolation.  Raises
        DeterminismError on a key with both a rule on `sym` and a λ rule.
        """
        if self.dead:
            self.dead += 1
            return None
        node, tree = self.node, self.tree
        try:
            by_label = self._rows[sym]
        except KeyError:  # outside the input alphabet: λ rules alone apply
            by_label = self._rows[None]
        entry = by_label[tree.labels[node]][tree.shapes[node]]
        if entry is None:
            self.dead = 1
            return None
        target, op, label, consumed, action, rows = entry
        if op >= _ABORT:
            if op == _CLASH:
                raise DeterminismError(f"state {self.state!r} matches both symbol {sym!r} and λ")
            self.violation = WellFormednessViolation(action, tree.node_type(node), tree.path(node))
            self.dead = 1
            return None
        self._undo.append((self.state, self._rows, node, op))
        if op < _OP_PUSH:
            if op:  # a stay leaves the pointer where it is
                self.node = (None, tree.parents, tree.lefts, tree.rights)[op][node]
        elif op == _OP_PUSH:
            self.node = tree._add_child(node, label, action[2])
        else:  # _OP_POP
            self.node = tree._remove_leaf(node)
        self.state = target
        self._rows = rows
        return consumed, action

    def pop(self) -> None:
        """Take the latest `push` back."""
        if self.dead:
            self.dead -= 1
            if not self.dead:
                self.violation = None
            return
        self.state, self._rows, prev, op = self._undo.pop()
        if op == _OP_PUSH:
            self.tree._remove_newest(self.node)
        elif op == _OP_POP:
            self.tree._attach(prev)
        self.node = prev

    def accepts_now(self) -> bool:
        """Would the endmarker arriving here leave the machine accepting?

        One lookup on a real-time machine, which halts right after it; on
        any other, the prefix walk of the empty word from here, whose END
        and λ steps run to the halt within the budget and are taken back.
        """
        if self._budget is None:
            raise BudgetRequired("machine is not real-time: pass an explicit step budget")
        if self.dead:
            return False
        if self._real_time:  # the walk's own real-time verdict
            node, tree = self.node, self.tree
            entry = self._rows[END][tree.labels[node]][tree.shapes[node]]
            return (
                entry is not None and entry[0] in self._accepting
                and len(self._undo) < self._budget
            )
        mark = len(self._undo)
        verdicts: list[bool] = []
        try:
            _prefix_dfs(self, (), 0, None, lambda word, accepted, dead: verdicts.append(accepted))
        finally:  # a clash raises with the walk's steps still recorded
            while len(self._undo) > mark:
                self.pop()
        return verdicts[0]


def _step_budget(machine: Machine, budget, default):
    """`budget` once checked; `default` when a real-time machine has none."""
    if budget is None and not machine.real_time:
        raise BudgetRequired("machine is not real-time: pass an explicit step budget")
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive number of steps")
    return default if budget is None else budget


def _run(
    machine: Machine, word: Sequence[str], budget, trace: tuple[list, list] | None, endmarker=True
):
    """The run loop behind `run`, `final_tree` and `left_quotient`.

    Returns the verdict, the configuration the run stopped in, the number
    of steps taken and the input position: the count of word symbols
    consumed, plus one once the endmarker is.  When `trace` is a pair of
    empty lists, each step appends its program entry to the first and the
    node the pointer stands on after it to the second: the columns a
    `Trace` builds its records from, when they are read.  Without
    `endmarker` the run stops as soon as the word is consumed, before the
    endmarker or any λ move after the last symbol; the verdict is then
    REJECTED.

    Both loops step on the machine's step program itself, with no undo
    record, since a run never backtracks: the program has decided λ and
    legality, so each step is one indexed lookup and a plain pointer move
    or tree edit.  Only an abort or a clash goes through
    `Configuration.push`, which builds its violation or raises.  An
    untraced run frees each popped leaf's id for the next push to take,
    so its lists grow no longer than its largest tree; a traced run frees
    none, so that each recorded node stays the node it named.

    A real-time machine makes one step per symbol, so its loop runs over
    the word and then END, cut to the steps the budget allows; its program
    has no λ or clash entries.  A machine with λ moves runs in the general
    loop, which keeps the input position and tests the budget at every
    step.
    """
    bad = set(word) - (set(machine.input_alphabet) - {END, LAMBDA})
    if bad:
        sym = next(s for s in word if s in bad)  # the first, as the error names it
        if sym == END or sym == LAMBDA:
            raise EndmarkerInInput(f"input word may not contain {sym!r}")
        raise ValueError(f"symbol {sym!r} not in the input alphabet")
    budget = _step_budget(machine, budget, len(word) + 1)
    config = Configuration(machine)
    tree, node, state, rows = config.tree, config.node, config.state, config._rows
    labels, parents, lefts, rights, shapes, free = (
        tree.labels, tree.parents, tree.lefts, tree.rights, tree.shapes, tree.free
    )
    links = (None, parents, lefts, rights)  # by opcode: up, down-l, down-r
    # A traced run appends each step's entry and the node after it to the
    # two columns of `trace`.  A pop frees its leaf's id for the next push,
    # but not in a traced run, whose nodes must go on naming the nodes they named.
    entries, nodes = (None, None) if trace is None else trace
    freed = free if trace is None else []
    verdict = Verdict.REJECTED
    if machine.real_time:
        feed = [*word, END] if endmarker else [*word]
        allowed = math.ceil(budget) if budget < len(feed) else len(feed)
        # A list iterator's length hint is the count of symbols it has not
        # yet given, so the loop keeps no step count of its own.
        symbols = iter(feed if allowed == len(feed) else feed[:allowed])
        size = tree.size
        for sym in symbols:
            entry = rows[sym][labels[node]][shapes[node]]
            if entry is None:
                steps = allowed - 1 - length_hint(symbols)
                break
            target, op, label, _, action, next_rows = entry
            if op < _OP_PUSH:
                if op:  # a stay leaves the pointer where it is
                    node = links[op][node]
            elif op == _OP_PUSH:  # `GammaTree._add_child`, inline
                if free:
                    child = free.pop()
                    labels[child] = label
                    parents[child] = node
                else:
                    child = len(labels)
                    labels.append(label)
                    parents.append(node)
                    lefts.append(None)
                    rights.append(None)
                    shapes.append(0)
                if action[2] == "l":
                    lefts[node] = child
                    shapes[node] += 2
                    shapes[child] = 4
                else:
                    rights[node] = child
                    shapes[node] += 1
                    shapes[child] = 8
                size += 1
                node = child
            elif op == _OP_POP:  # `GammaTree._remove_leaf`, inline
                child, node = node, parents[node]
                if shapes[child] == 4:
                    lefts[node] = None
                    shapes[node] -= 2
                else:
                    rights[node] = None
                    shapes[node] -= 1
                size -= 1
                freed.append(child)
            else:  # _ABORT
                tree.size = size
                config.state, config.node, config._rows = state, node, rows
                config.push(sym)  # records the abort's violation
                steps = allowed - 1 - length_hint(symbols)
                return Verdict.WELL_FORMEDNESS_VIOLATION, config, steps, steps
            if trace is not None:
                entries.append(entry)
                nodes.append(node)
            state, rows = target, next_rows
        else:
            steps = allowed
            if allowed < len(feed):
                # Halting still beats the budget: only a machine that would
                # keep moving (or abort) counts as cut off.
                if rows[feed[allowed]][labels[node]][shapes[node]] is not None:
                    verdict = Verdict.BUDGET_EXHAUSTED
            elif endmarker and state in machine.accepting:
                verdict = Verdict.ACCEPTED
        tree.size = size
        config.state, config.node, config._rows = state, node, rows
        return verdict, config, steps, steps
    n = len(word)
    steps = pos = 0
    while True:
        if pos < n:
            sym = word[pos]
        elif not endmarker:
            break
        else:
            sym = END if pos == n else None
        entry = rows[sym][labels[node]][shapes[node]]
        if entry is None:
            break
        target, op, label, consumed, action, next_rows = entry
        if op >= _ABORT or steps >= budget:
            # Halting still beats the budget: only a machine that would
            # keep moving (or abort) counts as cut off, and its storage
            # stays as the run left it.
            if op == _CLASH or steps < budget:
                config.state, config.node, config._rows = state, node, rows
                config.push(sym)  # raises on a clash; records an abort's violation
                return Verdict.WELL_FORMEDNESS_VIOLATION, config, steps, pos
            verdict = Verdict.BUDGET_EXHAUSTED
            break
        if op < _OP_PUSH:
            if op:
                node = links[op][node]
        elif op == _OP_PUSH:
            node = tree._add_child(node, label, action[2])
        else:  # _OP_POP
            freed.append(node)
            node = tree._remove_leaf(node)
        if consumed != LAMBDA:
            pos += 1
        if trace is not None:
            entries.append(entry)
            nodes.append(node)
        steps += 1
        state, rows = target, next_rows
    config.state, config.node, config._rows = state, node, rows
    if verdict is Verdict.REJECTED and pos > n and state in machine.accepting:
        verdict = Verdict.ACCEPTED
    return verdict, config, steps, pos


def run(
    machine: Machine,
    word: Sequence[str],
    budget: int | float | None = None,
    traced: bool = False,
) -> RunOutcome:
    """Run `machine` on `word` (a string of, or sequence of, input symbols).

    `budget` bounds the number of steps.  It defaults to |word|+1 for
    real-time machines, which is exact; machines that can make λ moves are
    not guaranteed to halt, so for them the budget must be given (math.inf
    is accepted at the caller's own risk).  With `traced` the outcome's
    `trace` is the run's `Trace`.
    """
    columns =([], []) if traced else None
    verdict, config, steps, pos = _run(machine, word, budget, columns)
    trace = None
    if traced:
        size = 1 if machine.initial_tree is None else machine.initial_tree.size
        trace = Trace(machine.start, size, config.tree, *columns)
    return RunOutcome(verdict, config.state, steps, pos > len(word), trace)


def final_tree(machine: Machine, word: Sequence[str], budget=None) -> GammaTree:
    """The storage tree at the moment the run stops, whatever the verdict.

    The run is the one `run` makes, so the same arguments are refused: a
    symbol outside the input alphabet or a budget below 1 raises
    ValueError.  A run cut off by its budget or aborted by an illegal
    action yields the tree as it stood then; the illegal action itself
    changes nothing.
    """
    return _run(machine, word, budget, None)[1].tree


# Opcode of the undo record that opens the steps of one symbol, or of one
# verdict, on a machine with λ moves; taking those steps back ends with it.
_MARK = -1


def _prefix_dfs(config: Configuration, symbols, max_len, budget, visit):
    """Depth-first walk of `config` over all words up to `max_len`, with
    backtracking.

    `config` is any configuration with a budget, and the words walked are
    what is pushed after it; `symbols` are input symbols of its machine.
    `visit(word, accepted, dead)` runs once per word, in
    length-then-lexicographic order along each branch, and returns whether
    the subtree below the word should be explored.  `accepted` is the
    verdict of the configuration's input so far followed by the word;
    `dead` is true when the machine halted, aborted or ran out of its run
    budget before or inside the word, or is real-time and has no step left
    for the endmarker, so that it rejects every extension.
    `budget` caps the number of words visited (None for no cap); the first
    word past it raises BudgetExceeded.  The walk leaves `config` as it
    found it, except when it raises: `config` then stands where the walk
    was, with its steps there still on the undo list (a clash raises
    DeterminismError where it was met).

    The walk steps on the machine's step program inline, as `_run` does,
    and keeps one undo record `(state, rows, node, op)` per step on
    `config._undo`, which it takes back by opcode.  Its pushes append ids,
    as the configuration's tree has none freed, and taking one back drops
    the last id, so the walk leaves the tree's lists as it found them.
    A real-time machine makes one step per symbol, and a word's verdict is
    one END lookup and a step count below the run budget; a word whose
    count has reached the budget is dead, as no extension has a step left
    either, so no step tests the budget.  At the last level, the children
    of a live word of length `max_len - 1`, the walk makes no step: it
    reads each child's entry, then the END entry at the node and shape
    that step would leave (the node moved to, the pushed child, or the
    parent less the popped child), with the run budget counting the one
    step more.  During those visits the tree stands at the parent word,
    and nothing is recorded or taken back.  A machine with λ moves also
    makes the λ steps before each symbol, and a step begun with the run
    budget spent leaves the word dead.  For its verdict the same loop runs
    the END and λ steps to the halt, and takes them back once `visit` has
    returned.  On such a machine each symbol's steps, and each verdict's,
    open with a `_MARK` record.

    The current word is one `str` whose first `depth` characters are the
    prefix.  Taking a symbol back only lowers `depth`, so the symbol taken
    back is still `word[depth]`, and the next one to try is its successor
    in `symbols`.  The next symbol is appended in place when nothing was
    taken back since; otherwise the prefix is cut once, as `stem`, and
    every later sibling is `stem + sym`; a child read off the program at
    the last level is `word + sym`.  So a visit costs O(1) amortized
    on a deep path (a unary walk never copies the word), and one
    concatenation no longer than the word on a bushy tree.
    """
    symbols = list(symbols)
    if any(len(s) != 1 for s in symbols) or len(set(symbols)) != len(symbols):
        raise ValueError("prefix enumeration expects distinct single-character symbols")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    budget = math.inf if budget is None else budget
    last = max_len - 1  # the depth whose children a real-time walk reads off
    first = symbols[0] if symbols else None
    successor = dict(zip(symbols, symbols[1:] + [None]))
    tree, node, state, rows = config.tree, config.node, config.state, config._rows
    labels, parents, lefts, rights, shapes = (
        tree.labels, tree.parents, tree.lefts, tree.rights, tree.shapes
    )
    links = (None, parents, lefts, rights)  # by opcode: up, down-l, down-r
    accepting, real_time, run_budget = config._accepting, config._real_time, config._budget
    undo = config._undo
    steps = len(undo)  # with λ moves: the step records in `undo`
    dead = config.dead  # symbols fed since the machine stopped, the stopping one included
    visited = depth = 0
    word = ""
    stem = None  # word[:depth] once cut; reset on moving to another node
    sym = None  # what the next steps read: a symbol, END, or nothing at the root
    verdict = False  # whether those steps are a verdict's
    spent = False  # whether a live real-time word has no step left for END
    while True:
        if sym is not None:
            if dead:
                dead += 1
            else:
                if not real_time:
                    undo.append((state, rows, node, _MARK))
                while True:
                    entry = rows[sym][labels[node]][shapes[node]]
                    if entry is None:
                        dead = 1
                        break
                    target, op, label, consumed, action, next_rows = entry
                    if op >= _ABORT:
                        if op == _CLASH:
                            config.state, config.node, config._rows = state, node, rows
                            config.push(sym)  # raises DeterminismError
                        dead = 1
                        break
                    undo.append((state, rows, node, op))
                    if op < _OP_PUSH:
                        if op:
                            node = links[op][node]
                    elif op == _OP_PUSH:  # `GammaTree._add_child`, which appends here
                        child = len(labels)
                        labels.append(label)
                        parents.append(node)
                        lefts.append(None)
                        rights.append(None)
                        if action[2] == "l":
                            lefts[node] = child
                            shapes[node] += 2
                            shapes.append(4)
                        else:
                            rights[node] = child
                            shapes[node] += 1
                            shapes.append(8)
                        tree.size += 1
                        node = child
                    else:  # _OP_POP: `GammaTree._remove_leaf`, inline
                        child, node = node, parents[node]
                        if shapes[child] == 4:
                            lefts[node] = None
                            shapes[node] -= 2
                        else:
                            rights[node] = None
                            shapes[node] -= 1
                        tree.size -= 1
                    state, rows = target, next_rows
                    if real_time:
                        break
                    steps += 1
                    if steps - 1 >= run_budget:  # begun with the budget spent, as in `_run`
                        dead = 1
                        break
                    if consumed == END:
                        sym = None
                    elif consumed != LAMBDA:
                        break
        if verdict:  # the END and λ steps halted, aborted or ran out of budget
            accepted = entry is None and sym is None and state in accepting
            dead = 0
        else:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"visited more than {budget} prefixes")
            if dead:
                accepted = False
            elif real_time:
                # with no step left for END, none is left for a later symbol
                spent = len(undo) >= run_budget
                entry = rows[END][labels[node]][shapes[node]]
                accepted = entry is not None and entry[0] in accepting and not spent
            else:
                verdict = True
                sym = END
                continue
        if visit(word, accepted, dead or spent) and depth < max_len:
            if depth < last or dead or not real_time:
                sym = first
                stem = None
            else:
                # The children of a live real-time word at the last level:
                # each one's verdict is the END entry at the node and shape
                # its step would leave, read with the tree left as it is.
                label, shape = labels[node], shapes[node]
                spent = len(undo) + 1 >= run_budget
                for sym in symbols:
                    entry = rows[sym][label][shape]
                    if entry is None or entry[1] >= _ABORT:
                        accepted, stopped = False, 1
                    else:
                        _, op, pushed, _, action, next_rows = entry
                        if op < _OP_PUSH:
                            at = links[op][node] if op else node
                            entry = next_rows[END][labels[at]][shapes[at]]
                        elif op == _OP_PUSH:
                            entry = next_rows[END][pushed][4 if action[2] == "l" else 8]
                        else:  # _OP_POP: the parent, less the child's bit
                            at = parents[node]
                            entry = next_rows[END][labels[at]][
                                shapes[at] - (2 if shape == 4 else 1)
                            ]
                        accepted = entry is not None and entry[0] in accepting and not spent
                        stopped = spent
                    visited += 1
                    if visited > budget:
                        raise BudgetExceeded(f"visited more than {budget} prefixes")
                    visit(word + sym, accepted, stopped)
                sym = None
        else:
            sym = None
        # Take back the verdict's steps, then every symbol whose subtree is
        # done, until there is a next symbol.
        take_back = verdict
        verdict = False
        while True:
            if take_back:
                while True:
                    state, rows, prev, op = undo.pop()
                    if op == _OP_PUSH:  # `GammaTree._remove_newest`, inline
                        del labels[-1], parents[-1], lefts[-1], rights[-1]
                        if shapes.pop() == 4:
                            lefts[prev] = None
                            shapes[prev] -= 2
                        else:
                            rights[prev] = None
                            shapes[prev] -= 1
                        tree.size -= 1
                    elif op == _OP_POP:  # `GammaTree._attach`, inline
                        parent = parents[prev]
                        if shapes[prev] == 4:
                            lefts[parent] = prev
                            shapes[parent] += 2
                        else:
                            rights[parent] = prev
                            shapes[parent] += 1
                        tree.size += 1
                    node = prev
                    if real_time or op == _MARK:
                        break
                    steps -= 1
            if sym is not None:
                break
            if not depth:
                return
            depth -= 1
            if dead:
                dead -= 1
                # of the symbols fed to a stopped machine, only the one that
                # stopped a machine with λ moves left steps behind
                take_back = not (dead or real_time)
            else:
                take_back = True
            sym = successor[word[depth]]
            if sym is None:
                stem = None
        # `word += sym` is an in-place append in CPython only as a statement
        # of its own that stores straight back to `word`
        if stem is not None:
            word = stem + sym
        elif len(word) == depth:
            word += sym
        else:
            stem = word[:depth]
            word = stem + sym
        depth += 1
