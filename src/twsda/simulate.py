"""Single-step and whole-run semantics.

A configuration is (state, unread input, tree, pointer).  Each step looks
the transition function up first under the head input symbol (or the
endmarker), and only for machines not flagged real-time under λ; a symbol
rule consumes the symbol, a λ rule consumes nothing.  A word is accepted
exactly when the machine halts in an accepting state with the word and the
endmarker consumed entirely.
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
    """One run's mutable state.  Owned by a single run; never shared.

    The pointer is a direct node reference, so a step costs O(1); its path
    is computed from the node only when asked for.
    """

    __slots__ = ("state", "word", "pos", "tree", "node")

    def __init__(self, machine: Machine, word: Sequence[str]):
        self.state = machine.start
        self.word = word
        self.pos = 0
        if machine.initial_tree is not None:
            self.tree = machine.initial_tree.clone()
            self.node = self.tree.node_at(machine.initial_pointer)
        else:
            self.tree = GammaTree()
            self.node = self.tree.root

    @property
    def path(self) -> str:
        return self.node.path()

    def head(self) -> str | None:
        """Next unread symbol: a word symbol, then END, then nothing."""
        if self.pos < len(self.word):
            return self.word[self.pos]
        if self.pos == len(self.word):
            return END
        return None

    def input_fully_consumed(self) -> bool:
        return self.pos > len(self.word)


def _lookup(machine: Machine, config: Configuration):
    """Find the applicable rule; returns (consumed_symbol, target, action)."""
    node = config.node
    ntype = (
        node.side,
        "-" if node.left is None else "+",
        "-" if node.right is None else "+",
        node.label,
    )
    sym = config.head()
    hit = None
    if sym is not None:
        hit = machine.transitions.get((config.state, sym) + ntype)
    if machine.real_time:
        return (sym, *hit) if hit is not None else None
    lam = machine.transitions.get((config.state, LAMBDA) + ntype)
    if hit is not None:
        if lam is not None:
            raise DeterminismError(
                f"state {config.state!r} matches both symbol {sym!r} and λ"
            )
        return (sym, *hit)
    if lam is not None:
        return (LAMBDA, *lam)
    return None


def _advance(machine: Machine, config: Configuration):
    """Execute one step in place; returns (consumed, action) or None on halt.

    Raises WellFormednessViolation when the matched rule's action is
    illegal at the current node.
    """
    found = _lookup(machine, config)
    if found is None:
        return None
    consumed, target, action = found
    config.node = config.tree.apply(config.node, action)[0]
    config.state = target
    if consumed != LAMBDA:
        config.pos += 1
    return consumed, action


def step(machine: Machine, config: Configuration) -> Configuration | None:
    """Advance `config` by one step in place; None when the machine halts.

    Raises WellFormednessViolation when the matched rule's action is
    illegal at the current node.
    """
    return config if _advance(machine, config) is not None else None


def _run(machine: Machine, word: Sequence[str], budget, trace: list | None):
    """The run loop behind `run` and `final_tree`.

    Returns the verdict, the configuration the run stopped in, and the
    number of steps taken; appends one StepRecord per step to `trace` when
    it is a list.
    """
    for sym in word:
        if sym == END or sym == LAMBDA:
            raise EndmarkerInInput(f"input word may not contain {sym!r}")
        if sym not in machine.input_alphabet:
            raise ValueError(f"symbol {sym!r} not in the input alphabet")
    if budget is None:
        if not machine.real_time:
            raise BudgetRequired("machine is not real-time: pass an explicit step budget")
        budget = len(word) + 1
    elif budget is not math.inf and budget < 1:
        raise ValueError("budget must be a positive number of steps")

    config = Configuration(machine, word)
    pointer = machine.initial_pointer
    steps = 0
    while True:
        if steps >= budget:
            # Halting still beats the budget: only a machine that would
            # keep moving counts as cut off.
            if _lookup(machine, config) is None:
                break
            return Verdict.BUDGET_EXHAUSTED, config, steps
        state_before = config.state
        try:
            moved = _advance(machine, config)
        except WellFormednessViolation:
            return Verdict.WELL_FORMEDNESS_VIOLATION, config, steps
        if moved is None:
            break
        steps += 1
        if trace is not None:
            consumed, action = moved
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
    accepted = config.input_fully_consumed() and config.state in machine.accepting
    return (Verdict.ACCEPTED if accepted else Verdict.REJECTED), config, steps


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
    verdict, config, steps = _run(machine, word, budget, trace)
    return RunOutcome(
        verdict, config.state, steps, config.input_fully_consumed(),
        tuple(trace) if traced else None,
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
