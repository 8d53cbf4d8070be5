"""Storage tree: node types, actions, invariants."""
import pytest
from hypothesis import given, strategies as st

from test_reference_semantics import labels, naive_run
from twsda.builders import BUILTINS
from twsda.combinators import left_quotient
from twsda.machine import TransitionRow, machine_from_rows
from twsda.simulate import Configuration
from twsda.tree import (
    DOWN_L,
    DOWN_R,
    POP,
    ROOT,
    ROOT_LABEL,
    STAY,
    UP,
    GammaTree,
    NodeType,
    PathAbsent,
    WellFormednessViolation,
    push,
)


def one_rule_machine(tree: GammaTree, path: str, action: tuple):
    """A machine whose one rule fires `action` on `a` at any node, started
    on a copy of `tree` with the pointer at `path`."""
    rule = TransitionRow("q", "a", "*", "*", "*", "*", "q", action)
    return machine_from_rows("one-rule", "a", "x", "q", (), [rule], True, False, tree, path)


def step_once(tree: GammaTree, path: str, action: tuple) -> Configuration:
    config = Configuration(one_rule_machine(tree, path, action))
    config.push("a")
    return config


# A real-time machine whose input names its steps: `xl` pushes an x as a left
# child, `yr` a y as a right one (for x, y and z on either side), `u` moves up.
_STEPS = {label + side: push(label, side) for label in "xyz" for side in "lr"}
_STEPS["u"] = UP
STEPPER = machine_from_rows(
    "stepper", tuple(_STEPS), ("x", "y", "z"), "q", (),
    [TransitionRow("q", sym, "*", "*", "*", "*", "q", action) for sym, action in _STEPS.items()],
    True, False,
)


def steps(*symbols: str) -> Configuration:
    """A fresh `STEPPER` configuration after the steps `symbols` name."""
    config = Configuration(STEPPER)
    for sym in symbols:
        assert config.push(sym) is not None
    return config


def test_fresh_tree_is_single_root():
    tree = GammaTree()
    assert tree.size == 1
    assert labels(tree) == {"": ROOT_LABEL}
    assert tree.node_type(ROOT) == NodeType("-", "-", "-")


def test_node_type_of_fresh_left_leaf():
    config = steps("xl")
    tree, node = config.tree, config.node
    assert tree.path(node) == "l"
    assert tree.node_type(tree.node_at("l")) == ("l", "-", "-")
    assert tree.node_type(ROOT) == ("-", "+", "-")


def complete_tree(level: int) -> GammaTree:
    """Build a complete binary tree of the given level by pushes and moves up."""
    config = steps()

    def grow(remaining: int):
        if remaining == 0:
            return
        node = config.node
        for side in ("l", "r"):
            config.push("x" + side)
            grow(remaining - 1)
            config.push("u")
            assert config.node == node

    grow(level - 1)
    return config.tree


def test_node_type_complete_level_three():
    tree = complete_tree(3)
    assert tree.size == 7
    assert tree.node_type(ROOT) == ("-", "+", "+")
    assert tree.node_type(tree.node_at("lr")) == ("r", "-", "-")


def test_stay_changes_nothing():
    before = labels(GammaTree())
    config = step_once(GammaTree(), "", STAY)
    assert config.tree.path(config.node) == "" and labels(config.tree) == before


def test_push_appends_and_descends():
    config = steps("xr")
    assert config.tree.path(config.node) == "r"
    assert sorted(labels(config.tree)) == ["", "r"]


def test_pop_at_root_is_a_violation():
    config = step_once(GammaTree(), "", POP)
    assert isinstance(config.violation, WellFormednessViolation)


def test_pop_requires_leaf():
    tree = complete_tree(2)
    assert isinstance(step_once(tree, "", POP).violation, WellFormednessViolation)
    config = step_once(tree, "l", POP)
    assert config.tree.path(config.node) == "" and config.tree.size == 2


@pytest.mark.parametrize(
    "action", [UP, DOWN_L, DOWN_R, POP, push("x", "l"), push("x", "r")]
)
def test_action_legality_matches_apply(action):
    for builder in (GammaTree, lambda: complete_tree(2)):
        tree = builder()
        for path in labels(tree):
            machine = one_rule_machine(tree, path, action)
            config = Configuration(machine)
            legal = config.push("a") is not None
            assert isinstance(config.violation, WellFormednessViolation) is not legal
            assert (naive_run(machine, "a")[0] != "well-formedness-violation") is legal


def test_push_existing_side_is_a_violation():
    config = step_once(complete_tree(2), "", push("x", "l"))
    assert isinstance(config.violation, WellFormednessViolation)


def test_path_absent():
    tree = GammaTree()
    with pytest.raises(PathAbsent):
        tree.node_at("lr")
    tree = steps("xr").tree
    with pytest.raises(PathAbsent):
        tree.node_at("x")


def test_snapshot_round_trip():
    tree = complete_tree(3)
    text = tree.snapshot()
    again = GammaTree.from_snapshot(text)
    assert labels(again) == labels(tree)
    assert again.snapshot() == text


def test_snapshot_of_root():
    assert GammaTree().snapshot() == f"({ROOT_LABEL} . .)"


def test_clone_is_independent():
    config = steps("xr", "u", "xl")  # complete of level 2, at node l
    tree = config.tree
    twin = tree.clone()
    config.push("yl")
    assert twin.size == 3 and tree.size == 4


def assert_clone_matches(tree: GammaTree) -> None:
    """`tree.clone()` has the same nodes, labels, shape codes and size, and
    editing it leaves `tree` unchanged."""
    twin = tree.clone()
    twin.check_invariants()
    assert twin.snapshot() == tree.snapshot() and twin.size == tree.size
    nodes = tree.nodes()
    assert twin.nodes() == nodes
    for entries in ("labels", "parents", "lefts", "rights", "shapes"):
        assert getattr(twin, entries) is not getattr(tree, entries)
    for node in nodes:
        assert twin.shapes[node] == tree.shapes[node]
    before = tree.snapshot(), tree.size, [tree.shapes[node] for node in nodes]
    twin._add_child(next(node for node in nodes if twin.lefts[node] is None), "z", "l")
    leaf = next((node for node in reversed(nodes) if twin.shapes[node] in (4, 8)), None)
    if leaf is not None:  # a leaf of the copy other than its root
        twin._remove_leaf(leaf)
    twin.labels[ROOT] = "z"
    assert (tree.snapshot(), tree.size, [tree.shapes[node] for node in nodes]) == before
    tree.check_invariants()


@given(st.lists(st.sampled_from([*_STEPS, "pop"]), max_size=80))
def test_clone_of_grown_and_shrunk_trees(moves):
    config = steps()
    made = 0
    for move in moves:
        if move == "pop":
            if made:
                config.pop()
                made -= 1
        elif config.push(move) is None:  # an abort: take it back
            config.pop()
        else:
            made += 1
    assert_clone_matches(config.tree)


# Prefixes the six built-ins survive, leaving trees of 7 to 73 nodes.
QUOTIENT_PREFIXES = {
    "expo": "a" * 300,
    "fib": "a" * 300,
    "cub": "a" * 300,
    "trie-p": "aab$$$bab$$$abba$$$$",
    "trie-p-hat": "aab$$$bab$$$¢ab$ba$",
    "mi-hat": "ab$a¢" + "ab" * 40 + "$" + "ba" * 20,
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_clone_of_quotient_initial_trees(name):
    machine = left_quotient(BUILTINS[name](), QUOTIENT_PREFIXES[name])
    assert_clone_matches(machine.initial_tree)


def test_compacted_drops_freed_ids_only_when_there_are_some():
    tree = GammaTree()
    a = tree._add_child(ROOT, "x", "l")
    b = tree._add_child(a, "y", "r")
    c = tree._add_child(ROOT, "z", "r")
    tree._add_child(c, "x", "l")
    assert tree.compacted() is tree
    for node in (b, a):  # freed as a run frees popped leaves
        tree._remove_leaf(node)
        tree.free.append(node)
    tree._add_child(tree.node_at("rl"), "y", "l")  # takes a's id back
    packed = tree.compacted()
    packed.check_invariants()
    assert packed.free == [] and len(packed.labels) == packed.size == tree.size == 4
    assert packed.snapshot() == tree.snapshot() == "(⊥ . (z (x (y . .) .) .))"
    assert [packed.node_at(path) for path in ("", "r", "rl", "rll")] == [0, 1, 2, 3]


@given(st.lists(st.sampled_from(["u", "s", "dl", "dr", "pop", "pl", "pr"]), max_size=60))
def test_random_walk_keeps_invariants(moves):
    """Legal actions keep the tree prefix-closed with the root in place;
    push and pop change the size by exactly one."""
    tree = GammaTree()
    path = ""
    actions = {
        "u": UP, "s": STAY, "dl": DOWN_L, "dr": DOWN_R,
        "pop": POP, "pl": push("x", "l"), "pr": push("x", "r"),
    }
    for code in moves:
        action = actions[code]
        size = tree.size
        machine = one_rule_machine(tree, path, action)
        config = Configuration(machine)
        config.push("a")
        want = naive_run(machine, "a")
        if want.verdict == "well-formedness-violation":
            assert isinstance(config.violation, WellFormednessViolation)
            continue
        assert config.violation is None
        new_path = want.records[0][3]  # the reference's pointer after the step
        assert config.tree.path(config.node) == new_path
        # up and pop drop the last step; the rest append their side, if any
        assert new_path == (path[:-1] if code in ("u", "pop") else path + code[1:])
        path = new_path
        tree = config.tree
        assert labels(tree) == want.tree
        tree.check_invariants()
        assert tree.has(path)
        expected = size + (1 if action[0] == "push" else -1 if action[0] == "pop" else 0)
        assert tree.size == expected


@pytest.mark.parametrize(
    "bad",
    [
        "",
        ".",
        "(x . .)",  # root must carry the root label
        "(⊥ . . .)",
        "(⊥ .)",
        "(⊥ . .",
        "(⊥ . .) junk",
        "(⊥ . .) (⊥ . .)",
        "(⊥ (x . . .) .)",
    ],
)
def test_snapshot_rejects_malformed(bad):
    with pytest.raises(ValueError):
        GammaTree.from_snapshot(bad)


def test_deep_tree_clone_and_snapshot():
    # a 1500-deep spine exceeds the default recursion limit if any of the
    # tree walks recurse
    tree = steps(*["xl"] * 1500).tree
    twin = tree.clone()
    assert twin.size == tree.size == 1501
    text = tree.snapshot()
    again = GammaTree.from_snapshot(text)
    assert again.size == 1501 and again.snapshot() == text
