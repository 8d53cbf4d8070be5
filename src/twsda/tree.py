"""Labeled binary tree storage navigated by a pointer.

The storage is a finite, non-empty, prefix-closed set of paths over
``{l, r}``.  The root (empty path) carries the reserved label ``⊥`` and is
never removed; every other node carries a label from the machine's tree
alphabet.  All navigation and edit operations at the pointer are O(1).
Each node keeps its shape code (`TreeNode._shape`), which the edits here
keep up to date.  Whether an action is legal depends only on that shape,
which every transition key spells out, so a machine decides it, and
whether a λ rule applies, once per key when it compiles its step program
(`Machine._program`).  A step is one of the program's opcodes: a pointer
move, a push (`_add_child`) or a pop (`_remove_leaf`), taken back by
`_remove_leaf` or `_attach`; these edits do not check legality.  A push
builds its node and hangs it under the parent in the one call; `_attach`
only puts a popped leaf back.  Action tuples are data: the rows of a
machine, its file and its trace.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

ROOT_LABEL = "⊥"

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


class TreeNode:
    __slots__ = ("label", "side", "parent", "left", "right", "_shape")

    def __init__(self, label: str, side: str, parent: "TreeNode | None"):
        self.label = label
        self.side = side  # '-', 'l' or 'r'; fixed at creation
        self.parent = parent
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self._shape = _SHAPE_BASE[side]  # side·4 + 2·has_left + has_right

    def node_type(self) -> NodeType:
        return NodeType(
            self.side,
            "-" if self.left is None else "+",
            "-" if self.right is None else "+",
        )

    def path(self) -> str:
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.side)
            node = node.parent
        return "".join(reversed(parts))


class GammaTree:
    """Mutable tree storage; starts as a single ⊥-labeled root."""

    __slots__ = ("root", "size")

    def __init__(self):
        self.root = TreeNode(ROOT_LABEL, "-", None)
        self.size = 1

    # -- lookup ------------------------------------------------------------

    def node_at(self, path: str) -> TreeNode:
        node = self.root
        for step in path:
            node = node.left if step == "l" else node.right if step == "r" else None
            if node is None:
                raise PathAbsent(path)
        return node

    def has(self, path: str) -> bool:
        try:
            self.node_at(path)
            return True
        except PathAbsent:
            return False

    # -- mutation ----------------------------------------------------------

    def _add_child(self, node: TreeNode, label: str, side: str) -> TreeNode:
        """Push a child labeled `label` on `side` of `node` and return it.

        Unchecked: that side must be free.  The child is linked and the
        parent's shape code and the size are updated here, not through
        `_attach`, since every push of a run comes this way.
        """
        child = TreeNode(label, side, node)
        if side == "l":
            node.left = child
            node._shape += 2
        else:
            node.right = child
            node._shape += 1
        self.size += 1
        return child

    def _remove_leaf(self, node: TreeNode) -> TreeNode:
        """Pop `node` and return its parent.

        Unchecked: `node` must be a leaf other than the root.  It keeps
        its parent and side, so `_attach` can put it back.
        """
        parent = node.parent
        if node.side == "l":
            parent.left = None
            parent._shape -= 2
        else:
            parent.right = None
            parent._shape -= 1
        self.size -= 1
        return parent

    def _attach(self, node: TreeNode) -> TreeNode:
        """Hang the detached `node` under its parent again and return it."""
        parent = node.parent
        if node.side == "l":
            parent.left = node
            parent._shape += 2
        else:
            parent.right = node
            parent._shape += 1
        self.size += 1
        return node

    # -- serialization and checks -------------------------------------------

    def clone(self) -> "GammaTree":
        """An independent copy, built node by node with shape codes copied."""
        other = GammaTree()
        stack = [(self.root, other.root)]
        while stack:
            src, dst = stack.pop()
            dst._shape = src._shape
            child = src.left
            if child is not None:
                dst.left = copy = TreeNode(child.label, "l", dst)
                stack.append((child, copy))
            child = src.right
            if child is not None:
                dst.right = copy = TreeNode(child.label, "r", dst)
                stack.append((child, copy))
        other.size = self.size
        return other

    def snapshot(self, render: Callable[[str], str] = str) -> str:
        """Depth-first text form: `(label left right)` with `.` for absence."""
        parts: list[str] = []
        stack: list = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item is None:
                parts.append(".")
            else:
                parts.append(f"({render(item.label)} ")
                stack.extend((")", item.right, " ", item.left))
        return "".join(parts)

    @classmethod
    def from_snapshot(cls, text: str, resolve: Callable[[str], str] = str) -> "GammaTree":
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        tree = cls()
        open_nodes: list[TreeNode] = []  # innermost last
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
                    node = tree.root
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
        are consistent."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node is self.root:
                assert node.label == ROOT_LABEL and node.side == "-" and node.parent is None
            else:
                assert node.label != ROOT_LABEL
                assert node.parent is not None
                attached = node.parent.left if node.side == "l" else node.parent.right
                assert attached is node
            assert node._shape == (
                _SHAPE_BASE[node.side] + 2 * (node.left is not None) + (node.right is not None)
            )
            if node.left is not None:
                assert node.left.side == "l"
                stack.append(node.left)
            if node.right is not None:
                assert node.right.side == "r"
                stack.append(node.right)
        assert count == self.size, f"size {self.size} != actual {count}"
