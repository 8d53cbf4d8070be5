"""Counting helpers, equivalence classes, shape predicates, cross-checks.

Everything here is exact integer or combinatorial work; no floating point
enters any reported value.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


# Opcode of the undo record that opens the steps of one symbol, or of one
# verdict, on a machine with λ moves; taking those steps back ends with it.
_MARK = -1


def _prefix_dfs(config: Configuration, symbols, max_len, budget, visit):
    """Depth-first walk of `config` over all words up to `max_len`, with
    backtracking.

    `config` is fresh from `Configuration(machine, run_budget)`, and
    `symbols` are input symbols of its machine.  `visit(word, accepted,
    dead)` runs once per word, in length-then-lexicographic order along
    each branch, and returns whether the subtree below the word should be
    explored.  `accepted` is the word's verdict; `dead` is true when the
    machine halted, aborted or ran out of its run budget inside the word,
    so that it rejects every extension.  `budget` caps the number of words
    visited (None for no cap); the first word past it raises
    BudgetExceeded.

    The walk steps on the machine's step program inline, as `_run` does,
    and keeps one undo record `(state, rows, node, op)` per step, which it
    takes back by opcode.  A real-time machine makes one step per symbol,
    and a word's verdict is one END lookup and a step count below the run
    budget.  A machine with λ moves also makes the λ steps before each
    symbol, and a step begun with the run budget spent leaves the word
    dead.  For its verdict the same loop runs the END and λ steps to the
    halt, and takes them back once `visit` has returned.  On such a machine
    each symbol's steps, and each verdict's, open with a `_MARK` record.

    The current word is one `str` whose first `depth` characters are the
    prefix.  Taking a symbol back only lowers `depth`, so the symbol taken
    back is still `word[depth]`, and the next one to try is its successor
    in `symbols`.  The next symbol is appended in place when nothing was
    taken back since; otherwise the prefix is cut once, as `stem`, and
    every later sibling is `stem + sym`.  So a visit costs O(1) amortized
    on a deep path (a unary walk never copies the word), and one
    concatenation no longer than the word on a bushy tree.
    """
    symbols = list(symbols)
    if any(len(s) != 1 for s in symbols) or len(set(symbols)) != len(symbols):
        raise ValueError("prefix enumeration expects distinct single-character symbols")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    budget = math.inf if budget is None else budget
    first = symbols[0] if symbols else None
    successor = dict(zip(symbols, symbols[1:] + [None]))
    tree, node, state, rows = config.tree, config.node, config.state, config._rows
    accepting, real_time, run_budget = config._accepting, config._real_time, config._budget
    undo: list = []
    steps = 0  # with λ moves: the step records in `undo`
    dead = 0  # symbols fed since the machine stopped, the stopping one included
    visited = depth = 0
    word = ""
    stem = None  # word[:depth] once cut; reset on moving to another node
    sym = None  # what the next steps read: a symbol, END, or nothing at the root
    verdict = False  # whether those steps are a verdict's
    while True:
        if sym is not None:
            if dead:
                dead += 1
            else:
                if not real_time:
                    undo.append((state, rows, node, _MARK))
                while True:
                    entry = rows[sym][node.label][node._shape]
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
                entry = rows[END][node.label][node._shape]
                accepted = (
                    entry is not None and entry.target in accepting and len(undo) < run_budget
                )
            else:
                verdict = True
                sym = END
                continue
        if visit(word, accepted, dead) and depth < max_len:
            sym = first
            stem = None
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
                    if op == _OP_PUSH:
                        tree._remove_leaf(node)
                    elif op == _OP_POP:
                        tree._attach(prev)
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
