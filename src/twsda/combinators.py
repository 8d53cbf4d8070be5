"""Closure operations on machines: complement, regular intersection, quotient."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .machine import (
    END,
    Machine,
    TransitionKey,
    TransitionRow,
    _legal,
    expand_rows,
    validate,
)
from .simulate import Verdict, _run
from .tree import STAY


class NotRealTime(ValueError):
    """The operation relies on the machine halting within |w|+1 steps."""


class AlphabetMismatch(ValueError):
    """Two combined acceptors read different alphabets."""


class PrefixKillsMachine(ValueError):
    """The machine halted or aborted while consuming the quotient prefix."""


# -- deterministic finite automata --------------------------------------------


@dataclass(frozen=True)
class Dfa:
    """A total DFA used as the regular side of products and as an oracle."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transition: dict
    start: str
    accepting: frozenset

    def __post_init__(self):
        for q in self.states:
            for sym in self.alphabet:
                if (q, sym) not in self.transition:
                    raise ValueError(f"transition not total: missing ({q!r}, {sym!r})")
        outside = {self.start, *self.transition.values(), *self.accepting} - set(self.states)
        if outside:
            raise ValueError(f"states outside the DFA's states: {sorted(outside, key=repr)}")


def dfa_run(dfa: Dfa, word: Sequence[str]) -> bool:
    state = dfa.start
    for sym in word:
        state = dfa.transition[(state, sym)]
    return state in dfa.accepting


# -- complement ----------------------------------------------------------------


def complement(machine: Machine) -> Machine:
    """Machine accepting exactly the words `machine` does not accept.

    Real time makes every run halt by itself, so it suffices to route every
    undefined lookup, and every rule whose action is illegal at its own
    key's shape (a run that aborts there rejects), into a sink state that
    consumes the rest of the input, and then to flip which states accept.
    """
    if not machine.real_time:
        raise NotRealTime("complement is defined for real-time machines")
    sink = "sink"
    while sink in machine.states:
        sink += "+"
    to_sink = [
        TransitionRow(state, sym, "*", "*", "*", "*", sink, STAY)
        for state in machine.states + (sink,)
        for sym in machine.input_alphabet + (END,)
    ]
    transitions = expand_rows(to_sink, machine.tree_alphabet)
    transitions.update(
        (key, rhs) for key, rhs in machine.transitions.items() if _legal(key, rhs[1])
    )
    result = replace(
        machine,
        name=f"non-{machine.name}",
        states=machine.states + (sink,),
        transitions=transitions,
        accepting=frozenset(set(machine.states) - machine.accepting) | {sink},
    )
    assert not validate(result)
    return result


# -- intersection with a regular language --------------------------------------


def intersect_regular(machine: Machine, dfa: Dfa) -> Machine:
    """Product machine accepting L(machine) ∩ L(dfa).

    The DFA advances on consumed input symbols only: λ moves and the
    endmarker leave its component unchanged.
    """
    if sorted(machine.input_alphabet) != sorted(dfa.alphabet):
        raise AlphabetMismatch(
            f"machine reads {sorted(machine.input_alphabet)}, "
            f"DFA reads {sorted(dfa.alphabet)}"
        )

    def pair(q: str, p: str) -> str:
        return f"{q}&{p}"

    transitions = {}
    for key in machine.transitions:
        target, action = machine.transitions[key]
        for p in dfa.states:
            p2 = dfa.transition[(p, key.symbol)] if key.symbol in dfa.alphabet else p
            new_key = TransitionKey(
                pair(key.state, p), key.symbol, key.ancestry,
                key.has_left, key.has_right, key.label,
            )
            transitions[new_key] = (pair(target, p2), action)
    result = replace(
        machine,
        name=f"{machine.name}&dfa",
        states=tuple(pair(q, p) for q in machine.states for p in dfa.states),
        transitions=transitions,
        start=pair(machine.start, dfa.start),
        accepting=frozenset(
            pair(q, p) for q in machine.accepting for p in dfa.accepting
        ),
    )
    assert not validate(result)
    return result


# -- left quotient by a fixed word ---------------------------------------------


def left_quotient(machine: Machine, prefix: Sequence[str], budget=None) -> Machine:
    """Machine accepting { u | prefix·u ∈ L(machine) }.

    Runs `machine` over `prefix` as `run` does, refusing the same
    arguments, but stops as soon as the prefix is consumed: the endmarker
    belongs after the quotient word instead.  The reached configuration
    becomes the new machine's starting state and storage; the storage is
    renumbered first when the run freed ids, so that no run of the quotient
    copies them (`GammaTree.compacted`).  The quotient takes over the
    machine's step program, which the prefix run has compiled, and is
    named `<name>-after-<prefix>`: a `str` prefix as it is, a sequence's
    symbols joined by `|`.  Raises
    PrefixKillsMachine when the machine halts or aborts before the prefix
    is consumed: every quotient word would be rejected anyway, and no
    single frozen configuration can express that.  Raises ValueError when
    `budget` steps do not consume the prefix.
    """
    verdict, config, _, pos = _run(machine, prefix, budget, None, endmarker=False)
    if verdict is Verdict.BUDGET_EXHAUSTED:
        raise ValueError(f"prefix not consumed within {budget} steps")
    if verdict is Verdict.WELL_FORMEDNESS_VIOLATION:
        raise PrefixKillsMachine(f"machine aborted inside the prefix: {config.violation}")
    if pos < len(prefix):
        raise PrefixKillsMachine(
            f"machine halted in state {config.state!r} after consuming "
            f"{pos} of {len(prefix)} prefix symbols"
        )

    shown = prefix if isinstance(prefix, str) else "|".join(prefix)
    result = machine._resumed(
        f"{machine.name}-after-{shown or 'λ'}",
        config.state,
        config.tree.compacted(),
        config.tree.path(config.node),
    )
    assert not validate(result)
    return result
