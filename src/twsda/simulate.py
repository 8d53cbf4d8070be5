"""Single-step and whole-run semantics.

A configuration is a state, a storage tree and a pointer; the run feeds it
the input.  Each step looks the transition function up first under the
head input symbol (or the endmarker), and only for machines not flagged
real-time under λ; a symbol rule consumes the symbol, a λ rule consumes
nothing.  A word is accepted exactly when the machine halts in an
accepting state with the word and the endmarker consumed entirely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .machine import END, LAMBDA, Machine
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

    `push(sym)` makes one step reading `sym`; `pop()` takes the latest step
    back, undoing its structural edit.  A prefix walk moves by symbol: by
    `push`/`pop` on a real-time machine, else by `_feed`/`_unfeed`, which
    add the λ moves before each symbol, within `budget` steps along the path
    (by default unbounded if real-time, else missing).  A configuration whose
    machine halted or aborted, or whose `_feed` ran out of budget, is dead:
    `dead` counts the pushes since, and it rejects every extension.  The
    pointer's path is `node.path()`.
    """

    __slots__ = (
        "state", "tree", "node", "dead", "violation",
        "_trans", "_accepting", "_real_time", "_undo", "_budget", "_marks",
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
        self._trans = machine._table
        self._accepting = machine.accepting
        self._real_time = machine.real_time
        self._undo: list = []
        self._budget = math.inf if budget is None and machine.real_time else budget
        self._marks: list[int] = []  # len(_undo) before each `_feed`

    def push(self, sym: str | None):
        """Make one step with `sym` (an input symbol, END, or None) at the head.

        The rule is looked up in the machine's step table under `sym`
        first and, for machines not flagged real-time, under λ.  Returns
        (consumed, action), where consumed is `sym` or LAMBDA, or None when
        the machine halts or hits an abort entry (an action illegal at the
        node's shape), which leaves the configuration dead;
        `violation` holds the abort's WellFormednessViolation, or None
        after a halt.
        """
        if self.dead:
            self.dead += 1
            return None
        node = self.node
        key = (
            self.state,
            sym,
            node.side,
            "-" if node.left is None else "+",
            "-" if node.right is None else "+",
            node.label,
        )
        hit = self._trans.get(key)
        if not self._real_time:
            lam = self._trans.get((self.state, LAMBDA) + key[2:])
            if lam is not None:
                if hit is not None:
                    raise DeterminismError(
                        f"state {self.state!r} matches both symbol {sym!r} and λ"
                    )
                hit, sym = lam, LAMBDA
        if hit is None:
            self.violation = None
            self.dead = 1
            return None
        target, action = hit
        if target is None:
            self.violation = WellFormednessViolation(action, node.node_type(), node.path())
            self.dead = 1
            return None
        new_node, record = self.tree.apply(node, action)
        self._undo.append((self.state, node, record))
        self.state = target
        self.node = new_node
        return sym, action

    def pop(self) -> None:
        """Take the latest `push` back."""
        if self.dead:
            self.dead -= 1
            return
        state, node, record = self._undo.pop()
        self.tree.undo(record)
        self.state = state
        self.node = node

    def _feed(self, sym: str) -> bool:
        """Consume `sym` and the λ moves before it (after END, every move to
        the halt); True if it did (after END: and did not abort).  A step past
        the budget is taken back and leaves the configuration dead, as a halt.
        """
        self._marks.append(len(self._undo))
        while True:
            moved = self.push(sym)
            if moved is None:
                return sym is None and self.violation is None
            if len(self._undo) - 1 >= self._budget:  # as in `_run`
                self.pop()
                self.dead = 1
                return False
            if moved[0] == END:
                sym = None
            elif moved[0] != LAMBDA:
                return True

    def _unfeed(self) -> None:
        """Take the latest `_feed` back, λ moves included."""
        mark = self._marks.pop()
        self.pop()
        while len(self._undo) > mark:
            self.pop()

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
            accepted = self._feed(END) and self.state in self._accepting
            self._unfeed()
            return accepted
        node = self.node
        hit = self._trans.get(
            (
                self.state,
                END,
                node.side,
                "-" if node.left is None else "+",
                "-" if node.right is None else "+",
                node.label,
            )
        )
        return hit is not None and hit[0] in self._accepting and len(self._undo) < self._budget


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
    """
    for sym in word:
        if sym == END or sym == LAMBDA:
            raise EndmarkerInInput(f"input word may not contain {sym!r}")
        if sym not in machine.input_alphabet:
            raise ValueError(f"symbol {sym!r} not in the input alphabet")
    budget = _step_budget(machine, budget, len(word) + 1)
    config = Configuration(machine)
    push, forget = config.push, config._undo.pop  # a run never backtracks
    n = len(word)
    pointer = machine.initial_pointer
    steps = pos = 0
    while True:
        if pos < n:
            sym = word[pos]
        elif not endmarker:
            break
        else:
            sym = END if pos == n else None
        if steps >= budget:
            # Halting still beats the budget: only a machine that would
            # keep moving counts as cut off.  The look-ahead step is taken
            # back, so the storage stays as the run left it.
            if push(sym) is not None:
                config.pop()
            elif config.violation is None:
                break
            return Verdict.BUDGET_EXHAUSTED, config, steps, pos
        state_before = config.state
        moved = push(sym)
        if moved is None:
            if config.violation is not None:
                return Verdict.WELL_FORMEDNESS_VIOLATION, config, steps, pos
            break
        forget()
        consumed, action = moved
        if consumed != LAMBDA:
            pos += 1
        steps += 1
        if trace is not None:
            kind = action[0]
            if kind == "up" or kind == "pop":
                pointer = pointer[:-1]
            elif kind == "push":
                pointer += action[2]
            elif kind != "stay":  # down-l, down-r
                pointer += kind[-1]
            trace.append(
                StepRecord(steps - 1, state_before, consumed, action, pointer, config.tree.size)
            )
    accepted = pos > n and config.state in machine.accepting
    return (Verdict.ACCEPTED if accepted else Verdict.REJECTED), config, steps, pos


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
