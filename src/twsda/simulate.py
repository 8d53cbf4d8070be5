"""Single-step and whole-run semantics.

A configuration is a state, a storage tree and a pointer; the run feeds it
the input.  Each step looks the transition function up first under the
head input symbol (or the endmarker), and only for machines not flagged
real-time under λ; a symbol rule consumes the symbol, a λ rule consumes
nothing.  A word is accepted exactly when the machine halts in an
accepting state with the word and the endmarker consumed entirely.  The
machine's step program (`Machine._program`) settles that lookup order,
and the legality of each action, once per transition key, so a step here
is one indexed lookup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .machine import (
    END,
    LAMBDA,
    _ABORT,
    _CLASH,
    _OP_DOWN_L,
    _OP_DOWN_R,
    _OP_POP,
    _OP_PUSH,
    _OP_STAY,
    _OP_UP,
    Machine,
)
from .tree import GammaTree, WellFormednessViolation


class EndmarkerInInput(ValueError):
    """The input word contained the reserved endmarker."""


class BudgetRequired(ValueError):
    """A step budget is mandatory for machines not flagged real-time."""


class DeterminismError(RuntimeError):
    """A configuration matched both a symbol rule and a λ rule."""


class Verdict(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BUDGET_EXHAUSTED = "budget-exhausted"
    WELL_FORMEDNESS_VIOLATION = "well-formedness-violation"


class StepRecord(NamedTuple):
    step_index: int
    state_before: str
    consumed: str  # input symbol, END, or LAMBDA
    action: tuple
    pointer_after: str
    node_count_after: int


@dataclass(frozen=True)
class RunOutcome:
    verdict: Verdict
    halt_state: str
    steps_taken: int
    input_fully_consumed: bool
    trace: tuple[StepRecord, ...] | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED


class Configuration:
    """A machine's state, storage tree and pointer node, and the one
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
    if real-time, else missing).  The pointer's path is `node.path()`.

    `run` and the prefix walks of `twsda.analysis` step on the same program
    inline, with state, node and tree in local variables; they come here
    only to raise a clash, and `run` to build an abort's violation.
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
            self.node = self.tree.root
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
        node = self.node
        try:
            by_label = self._rows[sym]
        except KeyError:  # outside the input alphabet: λ rules alone apply
            by_label = self._rows[None]
        entry = by_label[node.label][node._shape]
        if entry is None:
            self.dead = 1
            return None
        target, op, label, consumed, action, rows = entry
        if op >= _ABORT:
            if op == _CLASH:
                raise DeterminismError(f"state {self.state!r} matches both symbol {sym!r} and λ")
            self.violation = WellFormednessViolation(action, node.node_type(), node.path())
            self.dead = 1
            return None
        self._undo.append((self.state, self._rows, node, op))
        if op == _OP_UP:  # a stay leaves the pointer where it is
            self.node = node.parent
        elif op == _OP_DOWN_L:
            self.node = node.left
        elif op == _OP_DOWN_R:
            self.node = node.right
        elif op == _OP_PUSH:
            self.node = self.tree._add_child(node, label, action[2])
        elif op == _OP_POP:
            self.node = self.tree._remove_leaf(node)
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
            self.tree._remove_leaf(self.node)
        elif op == _OP_POP:
            self.tree._attach(prev)
        self.node = prev

    def accepts_now(self) -> bool:
        """Would the endmarker arriving here leave the machine accepting?

        One lookup on a real-time machine, which halts right after it; any
        other steps on it and λ moves to the halt and back, within a budget.
        """
        if self._budget is None:
            raise BudgetRequired("machine is not real-time: pass an explicit step budget")
        if self.dead:
            return False
        if not self._real_time:
            mark = len(self._undo)
            sym = END
            try:
                while True:
                    moved = self.push(sym)  # may raise DeterminismError
                    if moved is None:  # halted, or aborted with a violation
                        accepted = (
                            sym is None and self.violation is None
                            and self.state in self._accepting
                        )
                        self.pop()  # revive: a halt or an abort made no step
                        break
                    if len(self._undo) - 1 >= self._budget:  # begun with the budget spent
                        accepted = False
                        break
                    if moved[0] == END:
                        sym = None
            finally:
                while len(self._undo) > mark:
                    self.pop()
            return accepted
        node = self.node
        entry = self._rows[END][node.label][node._shape]
        return (
            entry is not None and entry.target in self._accepting
            and len(self._undo) < self._budget
        )


def _step_budget(machine: Machine, budget, default):
    """`budget` once checked; `default` when a real-time machine has none."""
    if budget is None and not machine.real_time:
        raise BudgetRequired("machine is not real-time: pass an explicit step budget")
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive number of steps")
    return default if budget is None else budget


def _run(machine: Machine, word: Sequence[str], budget, trace: list | None, endmarker=True):
    """The run loop behind `run`, `final_tree` and `left_quotient`.

    Returns the verdict, the configuration the run stopped in, the number
    of steps taken and the input position: the count of word symbols
    consumed, plus one once the endmarker is.  Appends one StepRecord per
    step to `trace` when it is a list.  Without `endmarker` the run stops
    as soon as the word is consumed, before the endmarker or any λ move
    after the last symbol; the verdict is then REJECTED.

    The loop steps on the machine's step program itself, with no undo
    record, since a run never backtracks: the program has decided λ and
    legality, so each step is one indexed lookup and a plain pointer move
    or tree edit.  Only an abort or a clash goes through
    `Configuration.push`, which builds its violation or raises.
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
    n = len(word)
    pointer = machine.initial_pointer
    steps = pos = 0
    verdict = None
    while True:
        if pos < n:
            sym = word[pos]
        elif not endmarker:
            break
        else:
            sym = END if pos == n else None
        entry = rows[sym][node.label][node._shape]
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
        if op == _OP_STAY:
            pass
        elif op == _OP_UP:
            node = node.parent
        elif op == _OP_DOWN_L:
            node = node.left
        elif op == _OP_DOWN_R:
            node = node.right
        elif op == _OP_PUSH:
            node = tree._add_child(node, label, action[2])
        else:  # _OP_POP
            node = tree._remove_leaf(node)
        if consumed != LAMBDA:
            pos += 1
        steps += 1
        if trace is not None:
            if op == _OP_UP or op == _OP_POP:
                pointer = pointer[:-1]
            elif op != _OP_STAY:  # down or push: onto the child
                pointer += node.side
            trace.append(StepRecord(steps - 1, state, consumed, action, pointer, tree.size))
        state, rows = target, next_rows
    config.state, config.node, config._rows = state, node, rows
    if verdict is None:
        accepted = pos > n and state in machine.accepting
        verdict = Verdict.ACCEPTED if accepted else Verdict.REJECTED
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
    is accepted at the caller's own risk).
    """
    trace: list[StepRecord] | None = [] if traced else None
    verdict, config, steps, pos = _run(machine, word, budget, trace)
    return RunOutcome(
        verdict, config.state, steps, pos > len(word), tuple(trace) if traced else None
    )


def final_tree(machine: Machine, word: Sequence[str], budget=None) -> GammaTree:
    """The storage tree at the moment the run stops, whatever the verdict.

    The run is the one `run` makes, so the same arguments are refused: a
    symbol outside the input alphabet or a budget below 1 raises
    ValueError.  A run cut off by its budget or aborted by an illegal
    action yields the tree as it stood then; the illegal action itself
    changes nothing.
    """
    return _run(machine, word, budget, None)[1].tree
