"""Counting helpers, equivalence classes, shape predicates, cross-checks.

Everything here is exact integer or combinatorial work; no floating point
enters any reported value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .machine import Machine
from .oracles import LanguageOracle
# `twsda.analysis.BudgetExceeded` stays importable: the drivers below
# raise it, from the walk.
from .simulate import BudgetExceeded, Configuration, _prefix_dfs, _step_budget
from .tree import ROOT, GammaTree


# -- exact sequences and bounds ------------------------------------------------


def fibonacci(i: int) -> int:
    """The i-th Fibonacci number with f(1) = f(2) = 1."""
    if i < 1:
        raise ValueError("defined for i >= 1")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def catalan(n: int) -> int:
    """The n-th Catalan number via the exact quotient recurrence.

    C(0) = 1 and C(k+1) = (4k+2)·C(k)/(k+2); the division is always exact.
    """
    if n < 0:
        raise ValueError("defined for n >= 0")
    c = 1
    for k in range(n):
        num = (4 * k + 2) * c
        assert num % (k + 2) == 0
        c = num // (k + 2)
    return c


def expo_moves(level: int) -> int:
    """Tour moves spent growing a complete binary tree from level 1 to `level`."""
    if level < 1:
        raise ValueError("defined for level >= 1")
    return 2 ** (level + 2) - 4 * level - 4


def fib_moves(level: int) -> int:
    """Tour moves spent growing a Fibonacci tree from level 1 to `level`."""
    if level < 1:
        raise ValueError("defined for level >= 1")
    return 2 * fibonacci(level + 4) - 4 * level - 6


def class_upper_bound(state_count: int, tree_symbol_count: int, ell: int) -> int:
    """Cap on the ℓ-equivalence classes a real-time machine can separate.

    Equals 2^(p·2^ℓ) for p = log2(states) + 4·(2 + log2(tree symbols + 1)),
    computed exactly as (states · 2^8 · (symbols+1)^4)^(2^ℓ).
    """
    if state_count < 1 or tree_symbol_count < 1 or ell < 1:
        raise ValueError("all arguments must be >= 1")
    base = state_count * 256 * (tree_symbol_count + 1) ** 4
    return base ** (2 ** ell)


# -- equivalence classes -------------------------------------------------------


@dataclass(frozen=True)
class ClassPartition:
    ell: int
    classes: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


class _MembershipStepper:
    """An oracle stepper for an oracle with `membership` alone: each
    `member()` is one `membership` call on the word plus the pushes."""

    __slots__ = ("_membership", "_word")

    def __init__(self, membership, word: str):
        self._membership = membership
        self._word = word

    def push(self, sym: str) -> None:
        self._word += sym

    def pop(self) -> None:
        self._word = self._word[:-1]

    def member(self) -> bool:
        return self._membership(self._word)


def count_classes(
    oracle: LanguageOracle,
    sample: Iterable[str],
    ell: int,
    extension_alphabet: Sequence[str],
) -> ClassPartition:
    """Partition `sample` into ℓ-equivalence classes with respect to `oracle`.

    Words are grouped by their membership signature over all extensions of
    length at most ℓ (concatenations of up to ℓ entries of
    `extension_alphabet`), so two words share a class exactly when they
    are ℓ-equivalent.  The class count lower-bounds the number of classes
    of the whole language.

    Each word gets one oracle stepper (`LanguageOracle.stepper`, or one
    `membership` call per extension without it), and the extensions are
    walked depth first by pushing and popping the symbols of each entry.
    The walk is planned once: in `plan`, a symbol is pushed, None pops
    one, and True records `member()` into the word's signature.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    make = oracle.stepper or partial(_MembershipStepper, oracle.membership)
    entries = list(extension_alphabet)
    plan: list = []

    def extend(depth):
        for entry in entries:
            plan.extend(entry)
            plan.append(True)
            if depth:
                extend(depth - 1)
            plan.extend([None] * len(entry))

    if ell:
        extend(ell - 1)
    groups: dict[tuple, list[str]] = {}
    for word in sample:
        stepper = make(word)
        push, pop, member = stepper.push, stepper.pop, stepper.member
        sig = [member()]
        put = sig.append
        for op in plan:
            if op is None:
                pop()
            elif op is True:
                put(member())
            else:
                push(op)
        groups.setdefault(tuple(sig), []).append(word)
    classes = sorted(
        (tuple(sorted(ws, key=lambda w: (len(w), w))) for ws in groups.values()),
        key=lambda c: (len(c[0]), c[0]),
    )
    return ClassPartition(ell, tuple(classes))


# -- tree shapes ---------------------------------------------------------------


def is_complete_binary(tree: GammaTree, level: int) -> bool:
    """Whether the tree is complete of the given level (level 0 is empty).

    A tree of the wrong node count, 2^level - 1, is refused at once; the
    rest is one walk of the nodes with the level each subtree must have.
    """
    if level < 1 or tree.size != 2**level - 1:
        return False  # a stored tree always has its root
    stack = [(ROOT, level)]
    while stack:
        node, height = stack.pop()
        left, right = tree.children(node)
        if height == 1:
            if left is not None or right is not None:
                return False
        elif left is None or right is None:
            return False
        else:
            stack += ((left, height - 1), (right, height - 1))
    return True


def is_fibonacci_tree(tree: GammaTree, level: int) -> bool:
    """Whether the tree has the recursive Fibonacci shape of the given level.

    That shape is a leaf at level 1 and, above it, a root over shapes of
    the two levels below, left then right, with level 0 empty.  A tree of
    the wrong node count is refused at once; the rest is one walk of the
    nodes with the level each subtree must have.
    """
    if level < 1:
        return False
    below, count = 0, 1  # node counts of the levels 0 and 1
    for _ in range(level - 1):
        below, count = count, count + below + 1
        if count > tree.size:
            return False
    if count != tree.size:
        return False
    stack = [(ROOT, level)]
    while stack:
        node, height = stack.pop()
        left, right = tree.children(node)
        if height == 1:
            if left is not None or right is not None:
                return False
            continue
        if left is None or (right is None) != (height == 2):
            return False
        stack.append((left, height - 1))
        if right is not None:
            stack.append((right, height - 2))
    return True


# -- exhaustive machine checks -------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    word: str
    machine_accepts: bool
    oracle_accepts: bool

    def __str__(self) -> str:
        return (
            f"word={self.word or 'λ'} machine="
            f"{'ACCEPT' if self.machine_accepts else 'REJECT'} oracle="
            f"{'ACCEPT' if self.oracle_accepts else 'REJECT'}"
        )


def cross_check(
    machine: Machine,
    oracle: LanguageOracle,
    max_len: int,
    budget: int | None = None,
    run_budget: int | float | None = None,
) -> list[Mismatch]:
    """Compare machine and oracle on every word up to `max_len`.

    The walk backtracks over the prefix tree, for machines with λ moves
    too, and `run_budget` bounds each word's run as in `run`.  A subtree is
    skipped only when the machine has already halted or run out of budget
    inside the prefix (so it rejects every extension) and the oracle's
    `viable_prefix` says no extension is ever a member; the two sides are
    then guaranteed to agree on the whole subtree.  `budget` caps the
    number of prefixes visited.  Mismatches come in the order of the walk.
    """
    if sorted(machine.input_alphabet) != sorted(oracle.alphabet):
        raise ValueError(
            f"alphabets differ: machine {sorted(machine.input_alphabet)}, "
            f"oracle {sorted(oracle.alphabet)}"
        )
    config = Configuration(machine, _step_budget(machine, run_budget, math.inf))
    viable = oracle.viable_prefix
    member = oracle.membership
    mismatches: list[Mismatch] = []

    def visit(word: str, accepted: bool, dead: int) -> bool:
        oracle_accepts = member(word)
        if accepted != oracle_accepts:
            mismatches.append(Mismatch(word, accepted, oracle_accepts))
        return not (dead and viable is not None and not viable(word))

    _prefix_dfs(config, sorted(machine.input_alphabet), max_len, budget, visit)
    return mismatches


def enumerate_accepted(
    machine: Machine,
    max_len: int,
    budget: int | None = None,
    run_budget: int | float | None = None,
) -> list[str]:
    """All accepted words of length at most `max_len`, shortest first.

    Every machine, λ moves included, is walked by prefix, skipping the
    prefixes it has halted (or, with λ moves, run out of budget) inside.
    `run_budget` bounds each word's run as in `run`; `budget` caps visits.
    """
    config = Configuration(machine, _step_budget(machine, run_budget, math.inf))
    words: list[str] = []

    def visit(word: str, accepted: bool, dead: int) -> bool:
        if accepted:
            words.append(word)
        return not dead

    _prefix_dfs(config, sorted(machine.input_alphabet), max_len, budget, visit)
    words.sort(key=lambda w: (len(w), w))
    return words


def machines_agree(
    first: Machine, second: Machine, max_len: int, budget: int | None = None
) -> list[str]:
    """Words up to `max_len` on which the two real-time machines disagree.

    Subtrees where both machines have halted are skipped: two halted
    deterministic machines reject every extension alike.
    """
    if sorted(first.input_alphabet) != sorted(second.input_alphabet):
        raise ValueError("machines have different alphabets")
    if not (first.real_time and second.real_time):
        raise ValueError("prefix walking requires a real-time machine")
    other = Configuration(second)
    depth = 0  # symbols pushed on `other`
    differ: list[str] = []

    def visit(word: str, accepted: bool, dead: int) -> bool:
        # `other` holds the last visited word, and `word` extends one of its
        # prefixes by one symbol
        nonlocal depth
        if word:
            while depth >= len(word):
                other.pop()
                depth -= 1
            other.push(word[-1])
            depth += 1
        if accepted != other.accepts_now():
            differ.append(word)
        return not (dead and other.dead)

    _prefix_dfs(Configuration(first), sorted(first.input_alphabet), max_len, budget, visit)
    return differ
