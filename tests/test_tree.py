"""Storage tree: node types, actions, invariants."""
import pytest
from hypothesis import given, strategies as st

from test_reference_semantics import labels, naive_run
from twsda.machine import TransitionRow, machine_from_rows
from twsda.simulate import Configuration
from twsda.tree import (
    DOWN_L,
    DOWN_R,
    POP,
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


def test_fresh_tree_is_single_root():
    tree = GammaTree()
    assert tree.size == 1
    assert labels(tree) == {"": ROOT_LABEL}
    assert tree.root.node_type() == NodeType("-", "-", "-")


def test_node_type_of_fresh_left_leaf():
    tree = GammaTree()
    node, _ = tree.apply(tree.root, push("x", "l"))
    assert node.path() == "l"
    assert tree.node_at("l").node_type() == ("l", "-", "-")
    assert tree.root.node_type() == ("-", "+", "-")


def complete_tree(level: int) -> GammaTree:
    """Build a complete binary tree of the given level by pushes only."""
    tree = GammaTree()

    def grow(node, remaining: int):
        if remaining == 0:
            return
        for side in ("l", "r"):
            child, _ = tree.apply(node, push("x", side))
            grow(child, remaining - 1)
            back, _ = tree.apply(child, UP)
            assert back is node

    grow(tree.root, level - 1)
    return tree


def test_node_type_complete_level_three():
    tree = complete_tree(3)
    assert tree.size == 7
    assert tree.root.node_type() == ("-", "+", "+")
    assert tree.node_at("lr").node_type() == ("r", "-", "-")


def test_stay_changes_nothing():
    tree = GammaTree()
    before = labels(tree)
    node, _ = tree.apply(tree.root, STAY)
    assert node.path() == "" and labels(tree) == before


def test_push_appends_and_descends():
    tree = GammaTree()
    node, _ = tree.apply(tree.root, push("x", "r"))
    assert node.path() == "r"
    assert sorted(labels(tree)) == ["", "r"]


def test_pop_at_root_is_a_violation():
    config = step_once(GammaTree(), "", POP)
    assert isinstance(config.violation, WellFormednessViolation)


def test_pop_requires_leaf():
    tree = complete_tree(2)
    assert isinstance(step_once(tree, "", POP).violation, WellFormednessViolation)
    config = step_once(tree, "l", POP)
    assert config.node.path() == "" and config.tree.size == 2


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
    tree.apply(tree.root, push("x", "r"))
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
    tree = complete_tree(2)
    twin = tree.clone()
    tree.apply(tree.node_at("l"), push("y", "l"))
    assert twin.size == 3 and tree.size == 4


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
        node = tree.node_at(path)
        size = tree.size
        machine = one_rule_machine(tree, path, action)
        config = Configuration(machine)
        config.push("a")
        if naive_run(machine, "a")[0] == "well-formedness-violation":
            assert isinstance(config.violation, WellFormednessViolation)
            continue
        assert config.violation is None
        new_path = tree.apply(node, action)[0].path()
        assert config.node.path() == new_path
        # up and pop drop the last step; the rest append their side, if any
        assert new_path == (path[:-1] if code in ("u", "pop") else path + code[1:])
        path = new_path
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
    tree = GammaTree()
    node = tree.root
    for _ in range(1500):
        node, _ = tree.apply(node, push("x", "l"))
    twin = tree.clone()
    assert twin.size == tree.size == 1501
    text = tree.snapshot()
    again = GammaTree.from_snapshot(text)
    assert again.size == 1501 and again.snapshot() == text
