"""Factories for the concrete machines the library ships.

Every factory returns a validated, immutable Machine.  All of them are
real-time (they consume one input symbol per step), and all but the
palindrome matcher are non-erasing.
"""
from __future__ import annotations

from .machine import END, Machine, TransitionRow, machine_from_rows, validate
from .tree import DOWN_L, DOWN_R, POP, STAY, UP, push

BULLET = "•"
CENT = "¢"
MARK = "⊳"    # separates inserted words from the query in the trie languages
MARK1 = "▷"   # same role in the skim variant
MARK2 = "▶"   # closes a palindrome word


def _row(state, symbol, anc, hl, hr, label, target, action):
    return TransitionRow(state, symbol, anc, hl, hr, label, target, action)


def _build(name, alphabet, tree_alphabet, start, accepting, rows, *, non_erasing):
    machine = machine_from_rows(
        name, alphabet, tree_alphabet, start, accepting, rows,
        real_time=True, non_erasing=non_erasing,
    )
    problems = validate(machine)
    if problems:
        raise AssertionError(f"builder {name} produced an invalid machine: {problems}")
    return machine


def build_expo() -> Machine:
    """Machine over {a} accepting exactly the words of length 2^n, n ≥ 0.

    Runs in phases, each growing the storage by one complete level: walk to
    the leftmost leaf, give every leaf two children in depth-first order,
    and detect the phase end when the pointer returns to the root from the
    right.  Growing level ℓ to ℓ+1 takes 2^(ℓ+2)−4 moves; an 8-move startup
    delay and a 4-move delay before each phase pad the totals so that phase
    ends line up exactly with the lengths 16, 32, 64, ...  Lengths 1, 2, 4
    and 8 are accepted from the startup delay states directly.
    """
    rows = [
        # Startup delay: eight stay moves at the root.
        *(_row(f"init{i}", "a", "-", "*", "*", "*", f"init{i + 1}", STAY) for i in range(8)),
        *(_row(f"init{i}", END, "-", "*", "*", "*", "final", STAY) for i in (1, 2, 4, 8)),
        # Four stay moves before each phase; the fourth lands in the walker.
        _row("init8", "a", "-", "*", "*", "*", "gap1", STAY),
        _row("done", "a", "-", "*", "*", "*", "gap1", STAY),
        _row("gap1", "a", "-", "*", "*", "*", "gap2", STAY),
        _row("gap2", "a", "-", "*", "*", "*", "gap3", STAY),
        _row("gap3", "a", "-", "*", "*", "*", "walk", STAY),
        # Phase: depth-first doubling tour.
        _row("walk", "a", "*", "+", "*", "*", "walk", DOWN_L),
        _row("walk", "a", "*", "-", "-", "*", "pushed", push(BULLET, "l")),
        _row("pushed", "a", "l", "-", "-", "*", "need-right", UP),
        _row("need-right", "a", "*", "+", "-", "*", "pushed", push(BULLET, "r")),
        _row("pushed", "a", "r", "-", "-", "*", "done", UP),
        _row("done", "a", "l", "*", "*", "*", "need-right", UP),
        _row("done", "a", "r", "*", "*", "*", "done", UP),
        _row("need-right", "a", "*", "+", "+", "*", "walk", DOWN_R),
        # A phase end with the input exhausted is an accepting halt.
        _row("done", END, "-", "*", "*", "*", "final", STAY),
    ]
    return _build("expo", ("a",), (BULLET,), "init0", ("final",), rows, non_erasing=True)


def build_fib() -> Machine:
    """Machine over {a} accepting words of length 2n for Fibonacci numbers n.

    Same phase discipline as `build_expo`, but each phase rebuilds the
    storage from one Fibonacci-tree level to the next: every visited leaf
    gets a left child, and every node missing its right subtree gets a
    single right child.  Reaching level ℓ costs 2·f(ℓ+4)−4ℓ−6 tour moves
    in total; a 6-move startup delay plus a 4-move delay before the first
    and after every phase make the accepting checkpoints fall on 10, 16,
    26, 42, ...  Lengths 2, 4 and 6 accept from the delay states.
    """
    rows = [
        *(_row(f"init{i}", "a", "-", "*", "*", "*", f"init{i + 1}", STAY) for i in range(6)),
        *(_row(f"init{i}", END, "-", "*", "*", "*", "final", STAY) for i in (2, 4, 6)),
        # Four stay moves after startup and after each phase; the last one
        # lands in the walker, which is also the accepting checkpoint.
        _row("init6", "a", "-", "*", "*", "*", "gap1", STAY),
        _row("done", "a", "-", "*", "*", "*", "gap1", STAY),
        _row("gap1", "a", "-", "*", "*", "*", "gap2", STAY),
        _row("gap2", "a", "-", "*", "*", "*", "gap3", STAY),
        _row("gap3", "a", "-", "*", "*", "*", "walk", STAY),
        _row("walk", END, "-", "*", "*", "*", "final", STAY),
        # Phase: bottom-up level increase of a Fibonacci tree.
        _row("walk", "a", "*", "+", "*", "*", "walk", DOWN_L),
        _row("walk", "a", "*", "-", "-", "*", "pushed", push(BULLET, "l")),
        _row("pushed", "a", "*", "*", "*", "*", "done", UP),
        _row("done", "a", "l", "*", "*", "*", "need-right", UP),
        _row("done", "a", "r", "*", "*", "*", "done", UP),
        _row("need-right", "a", "*", "+", "-", "*", "pushed", push(BULLET, "r")),
        _row("need-right", "a", "*", "+", "+", "*", "walk", DOWN_R),
    ]
    return _build("fib", ("a",), (BULLET,), "init0", ("final",), rows, non_erasing=True)


def _trie_insertion_rows(close: str, after: str) -> list[TransitionRow]:
    """The insertion and climb rows both trie machines share.

    They read x1 $^|x1| ... xk $^|xk| into the trie; the symbol `close`,
    read at the root, ends the insertions and moves to state `after`.
    """
    rows = [
        _row("start", "a", "-", "-", "-", "*", "first-a", STAY),
        _row("start", "b", "-", "-", "-", "*", "first-b", STAY),
        _row("start", close, "-", "-", "-", "*", after, STAY),
    ]
    for cur, side, flag in (("a", "l", "hl"), ("b", "r", "hr")):
        for nxt in ("a", "b", "$"):
            target = f"mid-{nxt}" if nxt != "$" else "climb-first"
            label = "n" if nxt != "$" else "e"
            absent = ("-", "*") if flag == "hl" else ("*", "-")
            present = ("+", "*") if flag == "hl" else ("*", "+")
            down = DOWN_L if side == "l" else DOWN_R
            # Processing a pending letter: push a fresh child or walk into
            # the existing one.  "first-*" states are only defined at the
            # root, which is what detects a wrong $ count.
            rows.append(_row(f"first-{cur}", nxt, "-", *absent, "*", target, push(label, side)))
            rows.append(_row(f"first-{cur}", nxt, "-", *present, "*", target, down))
            rows.append(_row(f"mid-{cur}", nxt, "*", *absent, "*", target, push(label, side)))
            rows.append(_row(f"mid-{cur}", nxt, "*", *present, "*", target, down))
    for nxt, target in (("a", "first-a"), ("b", "first-b"), ("$", "climb"), (close, after)):
        # First $ of a padding run: the pointer sits on the end node of the
        # inserted word.  Requiring a flagged leaf enforces the order
        # condition exactly: a child would prove an earlier insertion ran
        # strictly through this node, of which the current word would be a
        # proper prefix.
        rows.append(_row("climb-first", nxt, "*", "-", "-", "e", target, UP))
        for label in ("n", "e"):
            rows.append(_row("climb", nxt, "*", "*", "*", label, target, UP))
    return rows


def build_trie_p() -> Machine:
    """Trie dictionary machine over {a, b, $, ⊳}.

    Accepts words x1 $^|x1| ... xk $^|xk| ⊳ y where no later xi is a proper
    prefix of an earlier one and y equals some xm.  Each xi is inserted as
    a root path (a = left edge, b = right edge); nodes are labeled at push
    time, 'e' exactly at the node where an xi ends, 'n' elsewhere.  Since
    the machine only learns that a letter was the last of its block when
    the following symbol arrives, every tree action runs one symbol behind
    the input, with the pending symbol kept in the state.  The $ padding
    walks back up to the root one level per $; any count mismatch, or an
    insertion ending on an unflagged interior node, leaves the machine
    without an applicable rule, which rejects.  After ⊳ the query y is
    walked down the trie and the endmarker accepts only on an 'e' node.
    """
    rows = _trie_insertion_rows(MARK, "match-root") + [
        _row("match-root", "a", "-", "+", "*", "*", "match", DOWN_L),
        _row("match-root", "b", "-", "*", "+", "*", "match", DOWN_R),
        _row("match", "a", "*", "+", "*", "*", "match", DOWN_L),
        _row("match", "b", "*", "*", "+", "*", "match", DOWN_R),
        _row("match", END, "*", "*", "*", "e", "final", STAY),
    ]
    return _build(
        "trie-p", ("a", "b", "$", MARK), ("n", "e"), "start", ("final",), rows,
        non_erasing=True,
    )


def build_trie_p_hat() -> Machine:
    """Trie dictionary machine with a skimmed middle section.

    Same language as `build_trie_p` except that the insertions are followed
    by ¢, an arbitrary stretch over {a, b, $} that is read with the pointer
    parked at the root, and ▷ which starts the query match.
    """
    rows = _trie_insertion_rows(CENT, "skim") + [
        # The skimmed stretch never moves the pointer; being keyed at the
        # root also verifies the final $ run returned there.
        _row("skim", "a", "-", "*", "*", "*", "skim", STAY),
        _row("skim", "b", "-", "*", "*", "*", "skim", STAY),
        _row("skim", "$", "-", "*", "*", "*", "skim", STAY),
        _row("skim", MARK1, "-", "*", "*", "*", "match-root", STAY),
        _row("match-root", "a", "-", "+", "*", "*", "match", DOWN_L),
        _row("match-root", "b", "-", "*", "+", "*", "match", DOWN_R),
        _row("match", "a", "*", "+", "*", "*", "match", DOWN_L),
        _row("match", "b", "*", "*", "+", "*", "match", DOWN_R),
        _row("match", END, "*", "*", "*", "e", "final", STAY),
    ]
    return _build(
        "trie-p-hat", ("a", "b", "$", CENT, MARK1), ("n", "e"), "start", ("final",),
        rows, non_erasing=True,
    )


def build_mi_hat() -> Machine:
    """Pushdown-style matcher for x ¢ v $ v^R ▶ with x over {a,b,$}, v over {a,b}.

    The prefix x is skimmed at the root, v is pushed letter by letter onto a
    left spine, and after the $ each letter of v^R pops the spine if it
    matches the leaf label.  ▶ is only readable back at the root with the
    spine gone.  This is the one shipped machine that erases.
    """
    rows = [
        _row("scan", "a", "-", "*", "*", "*", "scan", STAY),
        _row("scan", "b", "-", "*", "*", "*", "scan", STAY),
        _row("scan", "$", "-", "*", "*", "*", "scan", STAY),
        _row("scan", CENT, "-", "*", "*", "*", "load", STAY),
        # spine nodes are labeled with the letter they store
        _row("load", "a", "*", "-", "*", "*", "load", push("a", "l")),
        _row("load", "b", "*", "-", "*", "*", "load", push("b", "l")),
        _row("load", "$", "*", "*", "*", "*", "unload", STAY),
        _row("unload", "a", "l", "-", "-", "a", "unload", POP),
        _row("unload", "b", "l", "-", "-", "b", "unload", POP),
        _row("unload", MARK2, "-", "-", "-", "*", "finish", STAY),
        _row("finish", END, "-", "-", "-", "*", "final", STAY),
    ]
    return _build(
        "mi-hat", ("a", "b", "$", CENT, MARK2), ("a", "b"), "scan", ("final",),
        rows, non_erasing=False,
    )


def build_cub() -> Machine:
    """Machine over {a} accepting exactly the words of length n³, n ≥ 0.

    One of several possible designs; its correctness contract is the
    exhaustive cross-check against the cube predicate plus the real-time
    flag.  The storage is a comb: a left spine whose j-th node hangs a
    chain ("tooth") off its right child.  Between the checkpoints n³ and
    (n+1)³ the machine spends exactly 3n²+3n+1 moves on one stay plus a
    single depth-first tour that extends every tooth by three nodes and
    ends by adding one spine node with a fresh two-node tooth.  The comb
    entered by tour n has 3n(n−1)/2 edges and every edge is crossed twice,
    which telescopes to n³ consumed symbols at the n-th return to the root.
    """
    rows = [
        # Checkpoints: the empty word and every return to the root.
        _row("begin", END, "-", "-", "-", "*", "final", STAY),
        _row("begin", "a", "-", "-", "-", "*", "ascend", STAY),
        _row("ascend", END, "-", "*", "*", "*", "final", STAY),
        _row("ascend", "a", "-", "*", "*", "*", "descend", STAY),
        _row("ascend", "a", "*", "*", "*", "S", "ascend", UP),
        _row("ascend", "a", "*", "*", "*", "T", "ascend", UP),
        # Walk down the spine; at each spine node detour into its tooth.
        _row("descend", "a", "-", "+", "*", "*", "descend", DOWN_L),
        _row("descend", "a", "*", "*", "+", "S", "tooth", DOWN_R),
        _row("tooth", "a", "*", "+", "*", "T", "tooth", DOWN_L),
        # Tooth tip: lengthen by three, then climb back to the spine.
        _row("tooth", "a", "*", "-", "-", "T", "grow2", push("T", "l")),
        _row("grow2", "a", "*", "-", "-", "T", "grow3", push("T", "l")),
        _row("grow3", "a", "*", "-", "-", "T", "back", push("T", "l")),
        _row("back", "a", "*", "*", "*", "T", "back", UP),
        _row("back", "a", "*", "+", "*", "S", "descend", DOWN_L),
        # Spine bottom: append the next spine node and its starter tooth.
        _row("back", "a", "*", "-", "*", "S", "new-spine", push("S", "l")),
        _row("descend", "a", "-", "-", "*", "*", "new-spine", push("S", "l")),
        _row("new-spine", "a", "*", "*", "-", "S", "new-tooth", push("T", "r")),
        _row("new-tooth", "a", "*", "-", "-", "T", "ascend", push("T", "l")),
    ]
    return _build("cub", ("a",), ("S", "T"), "begin", ("final",), rows, non_erasing=True)


BUILTINS = {
    "expo": build_expo,
    "fib": build_fib,
    "cub": build_cub,
    "trie-p": build_trie_p,
    "trie-p-hat": build_trie_p_hat,
    "mi-hat": build_mi_hat,
}
