"""Labeled binary tree storage navigated by a pointer.

The storage is a finite, non-empty, prefix-closed set of paths over
``{l, r}``.  The root (empty path) carries the reserved label ``⊥`` and is
never removed; every other node carries a label from the machine's tree
alphabet.  All navigation and edit operations at the pointer are O(1).
Whether an action is legal depends only on the shape of its node, which
every transition key spells out, so a machine decides it once per key
(`Machine._table`) and `GammaTree.apply` does not check it.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

ROOT_LABEL = "⊥"

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
    __slots__ = ("label", "side", "parent", "left", "right")

    def __init__(self, label: str, side: str, parent: "TreeNode | None"):
        self.label = label
        self.side = side  # '-', 'l' or 'r'; fixed at creation
        self.parent = parent
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None

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

    def apply(self, node: TreeNode, action: tuple):
        """Apply `action` at `node`; returns the new pointer node and an
        undo record for `undo`.

        Unchecked: the action must be legal at the node's shape.  A move
        needs its target node, a push needs its side free, and a pop needs
        a leaf other than the root.  A machine's step table decides this
        once per transition key (`Machine._table`).
        """
        kind = action[0]
        if kind == "stay":
            return node, None
        if kind == "up":
            return node.parent, None
        if kind == "down-l":
            return node.left, None
        if kind == "down-r":
            return node.right, None
        if kind == "push":
            side = action[2]
            child = TreeNode(action[1], side, node)
            if side == "l":
                node.left = child
            else:
                node.right = child
            self.size += 1
            return child, ("push", child)
        # pop
        parent = node.parent
        if node.side == "l":
            parent.left = None
        else:
            parent.right = None
        self.size -= 1
        return parent, ("pop", node)

    def undo(self, record) -> None:
        """Revert a structural edit made by `apply`."""
        if record is None:
            return
        kind, node = record
        if kind == "push":
            if node.side == "l":
                node.parent.left = None
            else:
                node.parent.right = None
            self.size -= 1
        else:  # pop: the detached node still knows its parent and side
            if node.side == "l":
                node.parent.left = node
            else:
                node.parent.right = node
            self.size += 1

    # -- serialization and checks -------------------------------------------

    def clone(self) -> "GammaTree":
        other = GammaTree()
        stack = [(self.root, other.root)]
        while stack:
            src, dst = stack.pop()
            if src.left is not None:
                dst.left = TreeNode(src.left.label, "l", dst)
                other.size += 1
                stack.append((src.left, dst.left))
            if src.right is not None:
                dst.right = TreeNode(src.right.label, "r", dst)
                other.size += 1
                stack.append((src.right, dst.right))
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
                    holder = open_nodes[-1]
                    side = "l" if not slots[-1] else "r"
                    node = TreeNode(label, side, holder)
                    if side == "l":
                        holder.left = node
                    else:
                        holder.right = node
                    tree.size += 1
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
        """Assert prefix-closure bookkeeping, labels and size are consistent."""
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
            if node.left is not None:
                assert node.left.side == "l"
                stack.append(node.left)
            if node.right is not None:
                assert node.right.side == "r"
                stack.append(node.right)
        assert count == self.size, f"size {self.size} != actual {count}"
