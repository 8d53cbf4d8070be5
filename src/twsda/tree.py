"""Labeled binary tree storage navigated by a pointer.

The storage is a finite, non-empty, prefix-closed set of paths over
``{l, r}``.  The root (empty path) carries the reserved label ``⊥`` and is
never removed; every other node carries a label from the machine's tree
alphabet.  All navigation and edit operations at the pointer are O(1).

A node is an integer id into the parallel lists of one `GammaTree`:
`labels`, `parents`, `lefts`, `rights` (None where there is no node) and
`shapes`, the shape code side·4 + 2·has_left + has_right with side 0 for
the root, 1 for a left child and 2 for a right child.  The root is id 0
(`ROOT`).  A node's parent and side are fixed when it is made, and a
popped leaf keeps both, with its label, until its id is used again.
Whether an action is legal depends only on the shape code, which every
transition key spells out, so a machine decides it, and whether a λ rule
applies, once per key when it compiles its step program
(`Machine._program`); the edits here do not check legality.  A pointer
move is one list read.  Ids are handed out last in, first out:

* a push takes the most recently freed id, or else appends a new one;
* a run (`simulate._run`) frees the id of each leaf it pops, so an
  untraced run takes memory bounded by its largest tree, while a traced
  run frees none, so that every id its records name stays that node;
* a stepper (`simulate.Configuration`, the prefix walk) frees none, so its
  pushes append, and taking a push back (`_remove_newest`) drops the last
  id: undoing its steps leaves the lists as they were.

Action tuples are data: the rows of a machine, its file and its trace.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

ROOT_LABEL = "⊥"
ROOT = 0  # the root's node id

# side -> shape code of a leaf on that side; a node's code adds 2 for a
# left child and 1 for a right child
_SHAPE_BASE = {"-": 0, "l": 4, "r": 8}

# Actions are plain tuples so they hash fast and serialize trivially.
UP = ("up",)
STAY = ("stay",)
DOWN_L = ("down-l",)
DOWN_R = ("down-r",)
POP = ("pop",)


def push(symbol: str, side: str) -> tuple:
    """Action appending a new child labeled `symbol` on `side` ('l' or 'r')."""
    if side not in ("l", "r"):
        raise ValueError(f"push side must be 'l' or 'r', got {side!r}")
    return ("push", symbol, side)


def format_action(action: tuple) -> str:
    if action[0] == "push":
        return f"push({action[1]},{action[2]})"
    return action[0]


class NodeType(NamedTuple):
    """Shape of a node as seen by the transition function.

    `ancestry` is '-' for the root, 'l' for a left child, 'r' for a right
    child; `has_left` / `has_right` are '+' or '-'.
    """

    ancestry: str
    has_left: str
    has_right: str

    def __str__(self) -> str:
        return f"({self.ancestry},{self.has_left},{self.has_right})"


class PathAbsent(KeyError):
    """A path was looked up that is not a node of the tree."""


class WellFormednessViolation(Exception):
    """A step fired an action that its node's shape forbids."""

    def __init__(self, action: tuple, ntype: NodeType, path: str):
        self.action = action
        self.node_type = ntype
        self.path = path
        super().__init__(
            f"illegal action {format_action(action)} at node "
            f"'{path or 'λ'}' of type {ntype}"
        )


class GammaTree:
    """Mutable tree storage; starts as a single ⊥-labeled root.

    `size` counts the nodes in the tree, which may be fewer than the ids
    in the lists; `free` holds the ids a run freed, the next to reuse last.
    """

    __slots__ = ("labels", "parents", "lefts", "rights", "shapes", "free", "size")

    def __init__(self):
        self.labels: list[str] = [ROOT_LABEL]
        self.parents: list[int | None] = [None]
        self.lefts: list[int | None] = [None]
        self.rights: list[int | None] = [None]
        self.shapes: list[int] = [0]
        self.free: list[int] = []
        self.size = 1

    # -- lookup ------------------------------------------------------------

    def node_at(self, path: str) -> int:
        node = ROOT
        for step in path:
            node = self.lefts[node] if step == "l" else self.rights[node] if step == "r" else None
            if node is None:
                raise PathAbsent(path)
        return node

    def has(self, path: str) -> bool:
        try:
            self.node_at(path)
            return True
        except PathAbsent:
            return False

    def path(self, node: int) -> str:
        """The node's path from the root, 'l' and 'r' per edge."""
        parents, shapes = self.parents, self.shapes
        parts = []
        while node:
            parts.append("lr"[(shapes[node] >> 2) - 1])
            node = parents[node]
        return "".join(reversed(parts))

    def node_type(self, node: int) -> NodeType:
        shape = self.shapes[node]
        return NodeType("-lr"[shape >> 2], "-+"[shape >> 1 & 1], "-+"[shape & 1])

    def children(self, node: int) -> tuple[int | None, int | None]:
        """The node's left and right child, None where it has none."""
        return self.lefts[node], self.rights[node]

    # -- mutation ----------------------------------------------------------

    def _add_child(self, node: int, label: str, side: str) -> int:
        """Push a child labeled `label` on `side` of `node` and return it.

        Unchecked: that side must be free.  The child takes the last freed
        id, or else a new one at the end of the lists.  The hot loops of
        `simulate` make this edit, and the three below, inline.
        """
        if self.free:
            child = self.free.pop()
            self.labels[child] = label
            self.parents[child] = node
        else:
            child = len(self.labels)
            self.labels.append(label)
            self.parents.append(node)
            self.lefts.append(None)
            self.rights.append(None)
            self.shapes.append(0)
        if side == "l":
            self.lefts[node] = child
            self.shapes[node] += 2
            self.shapes[child] = 4
        else:
            self.rights[node] = child
            self.shapes[node] += 1
            self.shapes[child] = 8
        self.size += 1
        return child

    def _remove_leaf(self, node: int) -> int:
        """Pop `node` and return its parent.

        Unchecked: `node` must be a leaf other than the root.  Its id is
        not freed here, and it keeps its entries, so `_attach` can put it
        back.
        """
        parent = self.parents[node]
        if self.shapes[node] == 4:  # a left leaf
            self.lefts[parent] = None
            self.shapes[parent] -= 2
        else:
            self.rights[parent] = None
            self.shapes[parent] -= 1
        self.size -= 1
        return parent

    def _attach(self, node: int) -> int:
        """Hang the popped leaf `node` under its parent again and return it."""
        parent = self.parents[node]
        if self.shapes[node] == 4:
            self.lefts[parent] = node
            self.shapes[parent] += 2
        else:
            self.rights[parent] = node
            self.shapes[parent] += 1
        self.size += 1
        return node

    def _remove_newest(self, node: int) -> int:
        """Take back the push that made `node`, the last id in the lists,
        and return its parent; the lists lose its entries."""
        parent = self.parents.pop()
        if self.shapes.pop() == 4:
            self.lefts[parent] = None
            self.shapes[parent] -= 2
        else:
            self.rights[parent] = None
            self.shapes[parent] -= 1
        self.labels.pop()
        self.lefts.pop()
        self.rights.pop()
        self.size -= 1
        return parent

    # -- serialization and checks -------------------------------------------

    def clone(self) -> "GammaTree":
        """An independent copy with the same node ids, made by list copies.

        Its free list starts empty, so the ids the original freed stay
        unused in the copy.
        """
        other = GammaTree.__new__(GammaTree)
        other.labels = self.labels[:]
        other.parents = self.parents[:]
        other.lefts = self.lefts[:]
        other.rights = self.rights[:]
        other.shapes = self.shapes[:]
        other.free = []
        other.size = self.size
        return other

    def compacted(self) -> "GammaTree":
        """This tree if it has freed no id, else a copy of it without the
        freed ids: its nodes numbered 0, 1, ... in depth-first order, left
        before right, as `from_snapshot` numbers them."""
        if not self.free:
            return self
        labels, lefts, rights = self.labels, self.lefts, self.rights
        other = GammaTree()
        stack = [(rights[ROOT], ROOT, "r"), (lefts[ROOT], ROOT, "l")]
        while stack:
            node, parent, side = stack.pop()
            if node is not None:
                child = other._add_child(parent, labels[node], side)
                stack.append((rights[node], child, "r"))
                stack.append((lefts[node], child, "l"))
        return other

    def nodes(self) -> list[int]:
        """Every node of the tree, breadth first with left before right,
        so shorter paths come first."""
        lefts, rights = self.lefts, self.rights
        out = [ROOT]
        for node in out:
            if lefts[node] is not None:
                out.append(lefts[node])
            if rights[node] is not None:
                out.append(rights[node])
        return out

    def snapshot(self, render: Callable[[str], str] = str) -> str:
        """Depth-first text form: `(label left right)` with `.` for absence."""
        labels, lefts, rights = self.labels, self.lefts, self.rights
        parts: list[str] = []
        stack: list = [ROOT]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item is None:
                parts.append(".")
            else:
                parts.append(f"({render(labels[item])} ")
                stack.extend((")", rights[item], " ", lefts[item]))
        return "".join(parts)

    @classmethod
    def from_snapshot(cls, text: str, resolve: Callable[[str], str] = str) -> "GammaTree":
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        tree = cls()
        open_nodes: list[int] = []  # innermost last
        slots: list[list] = []  # child entries parsed so far per open node
        closed_root = False
        pos = 0
        while pos < len(tokens):
            token = tokens[pos]
            if closed_root:
                raise ValueError("trailing tokens in snapshot")
            if token == "(":
                pos += 1
                if pos == len(tokens) or tokens[pos] in ("(", ")", "."):
                    raise ValueError("snapshot ended inside a node")
                label = resolve(tokens[pos])
                if not open_nodes:
                    if label != ROOT_LABEL:
                        raise ValueError(f"root label must be {ROOT_LABEL}, got {label!r}")
                    node = ROOT
                else:
                    if len(slots[-1]) > 1:
                        raise ValueError("node with more than two children")
                    side = "l" if not slots[-1] else "r"
                    node = tree._add_child(open_nodes[-1], label, side)
                    slots[-1].append(node)
                open_nodes.append(node)
                slots.append([])
            elif token == ".":
                if not open_nodes or len(slots[-1]) > 1:
                    raise ValueError("misplaced absence marker")
                slots[-1].append(None)
            elif token == ")":
                if not open_nodes:
                    raise ValueError("unbalanced ')'")
                if len(slots[-1]) != 2:
                    raise ValueError("every node needs exactly two child entries")
                open_nodes.pop()
                slots.pop()
                closed_root = not open_nodes
            else:
                raise ValueError(f"bad snapshot near token {pos}: {token!r}")
            pos += 1
        if not closed_root:
            raise ValueError("snapshot must contain at least the root")
        return tree

    def check_invariants(self) -> None:
        """Assert prefix-closure bookkeeping, labels, shape codes and size
        are consistent, and that no freed id is in the tree."""
        labels, parents, lefts, rights, shapes = (
            self.labels, self.parents, self.lefts, self.rights, self.shapes
        )
        assert len({len(labels), len(parents), len(lefts), len(rights), len(shapes)}) == 1
        assert labels[ROOT] == ROOT_LABEL and parents[ROOT] is None and shapes[ROOT] >> 2 == 0
        nodes = self.nodes()
        for node in nodes:
            if node != ROOT:
                assert labels[node] != ROOT_LABEL
                parent, side = parents[node], shapes[node] >> 2
                assert side in (1, 2)
                assert (lefts if side == 1 else rights)[parent] == node
            assert shapes[node] & 3 == 2 * (lefts[node] is not None) + (rights[node] is not None)
        assert len(nodes) == self.size, f"size {self.size} != actual {len(nodes)}"
        assert len(set(nodes)) == len(nodes), "a node is reachable twice"
        assert not set(self.free) & set(nodes), "a freed id is in the tree"
