"""Counting helpers, equivalence classes, shape predicates, cross-checks.

Everything here is exact integer or combinatorial work; no floating point
enters any reported value.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .machine import Machine
from .oracles import LanguageOracle
from .simulate import Configuration, _step_budget
from .tree import GammaTree, TreeNode


class BudgetExceeded(RuntimeError):
    """An enumeration visited more words than the caller allowed."""


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


def _extensions(alphabet: Sequence[str], ell: int) -> list[str]:
    if ell < 0:
        raise ValueError("ell must be >= 0")
    out = [""]
    for length in range(1, ell + 1):
        out.extend("".join(p) for p in itertools.product(alphabet, repeat=length))
    return out


def l_equivalent(
    oracle: LanguageOracle, w1: str, w2: str, ell: int, extension_alphabet: Sequence[str]
) -> bool:
    """Whether no extension of length at most ℓ (λ included) separates w1, w2.

    ℓ = 0 is allowed as a degenerate case and compares membership only.
    """
    member = oracle.membership
    return all(
        member(w1 + u) == member(w2 + u) for u in _extensions(extension_alphabet, ell)
    )


@dataclass(frozen=True)
class ClassPartition:
    ell: int
    classes: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def count_classes(
    oracle: LanguageOracle,
    sample: Iterable[str],
    ell: int,
    extension_alphabet: Sequence[str],
) -> ClassPartition:
    """Partition `sample` into ℓ-equivalence classes with respect to `oracle`.

    Words are grouped by their membership signature over all extensions of
    length at most ℓ, so two words share a class exactly when they are
    ℓ-equivalent.  The class count lower-bounds the number of classes of
    the whole language.
    """
    exts = _extensions(extension_alphabet, ell)
    member = oracle.membership
    groups: dict[tuple, list[str]] = {}
    for word in sample:
        sig = tuple(member(word + u) for u in exts)
        groups.setdefault(sig, []).append(word)
    classes = sorted(
        (tuple(sorted(ws, key=lambda w: (len(w), w))) for ws in groups.values()),
        key=lambda c: (len(c[0]), c[0]),
    )
    return ClassPartition(ell, tuple(classes))


# -- tree shapes ---------------------------------------------------------------


def _complete_shape(node: TreeNode | None, level: int) -> bool:
    if node is None:
        return level == 0
    return (
        level >= 1
        and _complete_shape(node.left, level - 1)
        and _complete_shape(node.right, level - 1)
    )


def is_complete_binary(tree: GammaTree, level: int) -> bool:
    """Whether the tree is complete of the given level (level 0 is empty)."""
    if level == 0:
        return False  # a stored tree always has its root
    return _complete_shape(tree.root, level)


def _fib_shape(node: TreeNode | None, level: int) -> bool:
    if node is None:
        return level == 0
    if level == 1:
        return node.left is None and node.right is None
    if level < 1:
        return False
    return _fib_shape(node.left, level - 1) and _fib_shape(node.right, level - 2)


def is_fibonacci_tree(tree: GammaTree, level: int) -> bool:
    """Whether the tree has the recursive Fibonacci shape of the given level."""
    if level == 0:
        return False
    return _fib_shape(tree.root, level)


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


def _walker(machine: Machine, run_budget: int | float | None):
    """A configuration to walk `machine` by prefix, with its push and pop."""
    w = Configuration(machine, _step_budget(machine, run_budget, math.inf))
    return (w, w.push, w.pop) if machine.real_time else (w, w._feed, w._unfeed)


def _prefix_dfs(symbols, max_len, budget, push, pop, visit):
    """Depth-first walk over all words up to `max_len`, with backtracking.

    `visit(word)` runs once per word, in length-then-lexicographic order
    along each branch, and returns whether the subtree below the word
    should be explored; `push`/`pop` advance and retreat the caller's
    machine state by one symbol.  `budget` caps the number of words
    visited (None for no cap); the first word past it raises
    BudgetExceeded.

    The current word is one `str` whose first `depth` characters are the
    prefix.  A pop only lowers `depth`.  The next push appends in place when
    nothing was popped since; otherwise it cuts the prefix once, as `stem`,
    and every later sibling is `stem + sym`.  So a visit costs O(1)
    amortized on a deep path (a unary walk never copies the word), and one
    concatenation no longer than the word on a bushy tree.
    """
    if any(len(s) != 1 for s in symbols):
        raise ValueError("prefix enumeration expects single-character symbols")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    budget = math.inf if budget is None else budget
    if budget < 1:
        raise BudgetExceeded(f"visited more than {budget} prefixes")
    if not visit("") or max_len == 0:
        return
    visited = 1
    word = ""
    depth = 0
    stem = None  # word[:depth] once cut; reset on moving to another node
    iterators = [iter(symbols)]
    while iterators:
        sym = next(iterators[-1], None)
        if sym is None:
            iterators.pop()
            if depth:
                depth -= 1
                stem = None
                pop()
            continue
        push(sym)
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
        visited += 1
        if visited > budget:
            raise BudgetExceeded(f"visited more than {budget} prefixes")
        if visit(word) and depth < max_len:
            iterators.append(iter(symbols))
            stem = None
        else:
            depth -= 1
            pop()


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
    walker, push, pop = _walker(machine, run_budget)
    viable = oracle.viable_prefix
    member = oracle.membership
    mismatches: list[Mismatch] = []

    def visit(word: str) -> bool:
        machine_accepts = walker.accepts_now()
        oracle_accepts = member(word)
        if machine_accepts != oracle_accepts:
            mismatches.append(Mismatch(word, machine_accepts, oracle_accepts))
        return not (walker.dead and viable is not None and not viable(word))

    _prefix_dfs(sorted(machine.input_alphabet), max_len, budget, push, pop, visit)
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
    walker, push, pop = _walker(machine, run_budget)
    accepted: list[str] = []

    def visit(word: str) -> bool:
        if walker.accepts_now():
            accepted.append(word)
        return not walker.dead

    _prefix_dfs(sorted(machine.input_alphabet), max_len, budget, push, pop, visit)
    accepted.sort(key=lambda w: (len(w), w))
    return accepted


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
    a, b = Configuration(first), Configuration(second)
    differ: list[str] = []

    def push(sym: str) -> None:
        a.push(sym)
        b.push(sym)

    def pop() -> None:
        a.pop()
        b.pop()

    def visit(word: str) -> bool:
        if a.accepts_now() != b.accepts_now():
            differ.append(word)
        return not (a.dead and b.dead)

    _prefix_dfs(sorted(first.input_alphabet), max_len, budget, push, pop, visit)
    return differ
