"""The shipped machines: languages, storage shapes, move accounting."""
import pytest

from twsda.analysis import (
    enumerate_accepted,
    fibonacci,
    is_complete_binary,
    is_fibonacci_tree,
)
from twsda.builders import BUILTINS
from twsda.machine import LAMBDA, validate
from twsda.simulate import final_tree, run
from twsda.tree import ROOT, STAY

MACHINES = {name: factory() for name, factory in BUILTINS.items()}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_builders_validate_clean(name):
    assert validate(MACHINES[name]) == []


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_all_real_time_no_lambda(name):
    m = MACHINES[name]
    assert m.real_time
    assert all(key.symbol != LAMBDA for key in m.transitions)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_erasing_flags_match_tables(name):
    m = MACHINES[name]
    has_pop = any(action[0] == "pop" for _, action in m.transitions.values())
    assert m.non_erasing == (name != "mi-hat")
    assert has_pop == (name == "mi-hat")


def test_expo_language_small():
    m = MACHINES["expo"]
    assert [n for n in range(70) if run(m, "a" * n).accepted] == [1, 2, 4, 8, 16, 32, 64]


def test_expo_boundary_lengths_accept():
    m = MACHINES["expo"]
    for n in (1, 2, 4, 8):
        assert run(m, "a" * n).accepted


@pytest.mark.parametrize("x", range(4, 10))
def test_expo_final_tree_is_complete(x):
    tree = final_tree(MACHINES["expo"], "a" * 2**x)
    assert tree.size == 2 ** (x - 2) - 1
    assert is_complete_binary(tree, x - 2)


def test_fib_language_small():
    m = MACHINES["fib"]
    got = [n for n in range(120) if run(m, "a" * n).accepted]
    assert got == [2, 4, 6, 10, 16, 26, 42, 68, 110]


def test_fib_rejects_fourteen():
    assert not run(MACHINES["fib"], "a" * 14).accepted


def test_fib_110_gives_level_six_tree_with_20_nodes():
    out = run(MACHINES["fib"], "a" * 110, traced=True)
    assert out.accepted
    assert out.trace[-1].node_count_after == 20
    tree = final_tree(MACHINES["fib"], "a" * 110)
    assert tree.size == 20 and is_fibonacci_tree(tree, 6)


@pytest.mark.parametrize("x", range(5, 13))
def test_fib_final_tree_shape(x):
    tree = final_tree(MACHINES["fib"], "a" * (2 * fibonacci(x)))
    assert tree.size == fibonacci(x - 2) - 1
    assert is_fibonacci_tree(tree, x - 4)


def test_cub_language_small():
    m = MACHINES["cub"]
    assert run(m, "a" * 27).accepted
    assert not run(m, "a" * 28).accepted
    got = [n for n in range(0, 1001) if run(m, "a" * n).accepted]
    assert got == [0, 1, 8, 27, 64, 125, 216, 343, 512, 729, 1000]


@pytest.mark.parametrize("n", range(2, 8))
def test_cub_storage_is_a_comb(n):
    """At the n-th checkpoint the storage is a left spine of n-1 nodes whose
    j-th node hangs a chain of 3(n-j)-1 nodes off its right child; the comb
    then has 3n(n-1)/2 edges, which is what makes the step count telescope
    to n³."""
    tree = final_tree(MACHINES["cub"], "a" * n**3)
    spine = []
    node = tree.lefts[ROOT]
    while node is not None:
        spine.append(node)
        node = tree.lefts[node]
    assert len(spine) == n - 1
    assert tree.rights[ROOT] is None
    total_edges = len(spine)
    for j, spine_node in enumerate(spine, start=1):
        assert tree.labels[spine_node] == "S"
        tooth = tree.rights[spine_node]
        length = 0
        while tooth is not None:
            assert tree.labels[tooth] == "T" and tree.rights[tooth] is None
            length += 1
            tooth = tree.lefts[tooth]
        assert length == 3 * (n - j) - 1
        total_edges += length
    assert total_edges == 3 * n * (n - 1) // 2
    assert tree.size == total_edges + 1


def test_trie_p_examples():
    m = MACHINES["trie-p"]
    assert run(m, "ab$$b$⊳ab").accepted
    assert not run(m, "ab$$b$⊳a").accepted  # proper prefix of an insert, unflagged
    assert not run(m, "⊳").accepted  # nothing inserted matches the empty query
    assert run(m, "a$a$⊳a").accepted  # duplicate inserts are allowed
    assert not run(m, "ab$$a$⊳a").accepted  # later proper prefix of earlier word
    assert not run(m, "a$aa$$a$⊳a").accepted  # same, via an intervening extension
    assert run(m, "a$ab$$⊳ab").accepted  # extension of an earlier word is fine


def test_trie_p_dollar_count_mismatches_reject():
    m = MACHINES["trie-p"]
    assert not run(m, "ab$b$⊳b").accepted  # one $ short
    assert not run(m, "a$$b$⊳b").accepted  # one $ long
    assert not run(m, "ab⊳ab").accepted  # padding missing entirely


def test_trie_p_hat_examples():
    m = MACHINES["trie-p-hat"]
    assert run(m, "a$¢bb$a▷a").accepted
    assert not run(m, "a$¢▷b").accepted
    assert not run(m, "a$▷a").accepted  # separator missing halts before the end
    assert run(m, "ab$$¢▷ab").accepted  # z may be empty
    assert not run(m, "¢ab▷").accepted  # nothing inserted, empty query


def test_mi_hat_examples():
    m = MACHINES["mi-hat"]
    assert run(m, "¢ab$ba▶").accepted
    assert not run(m, "¢ab$ab▶").accepted
    assert run(m, "a$b¢$▶").accepted  # empty middle word
    assert not run(m, "¢ab$b▶").accepted  # popped too little
    assert not run(m, "¢a$ab▶").accepted  # popped too much


def test_non_erasing_machines_never_shrink():
    for name, m in MACHINES.items():
        if not m.non_erasing:
            continue
        word = {"expo": "a" * 16, "fib": "a" * 16, "cub": "a" * 27,
                "trie-p": "ab$$b$⊳ab", "trie-p-hat": "a$¢b$▷a"}[name]
        out = run(m, word, traced=True)
        counts = [1] + [r.node_count_after for r in out.trace]
        assert all(x <= y for x, y in zip(counts, counts[1:])), name


def test_mi_hat_pop_shrinks_by_one_each():
    out = run(MACHINES["mi-hat"], "¢ab$ba▶", traced=True)
    counts = [1] + [r.node_count_after for r in out.trace]
    deltas = [y - x for x, y in zip(counts, counts[1:])]
    assert deltas.count(-1) == 2 and all(d in (-1, 0, 1) for d in deltas)


def test_expo_first_step_consumes_and_stays():
    from twsda.simulate import Configuration

    m = MACHINES["expo"]
    config = Configuration(m)
    assert config.push("a") == ("a", STAY)
    assert config.tree.path(config.node) == "" and config.tree.size == 1


def test_expo_initial_delay_is_eight_stays():
    out = run(MACHINES["expo"], "a" * 16, traced=True)
    first = out.trace[:8]
    assert all(r.action == ("stay",) and r.pointer_after == "" for r in first)
    gap = out.trace[8:12]
    assert all(r.action == ("stay",) for r in gap)
    assert out.trace[12].action[0] == "push"


def test_fib_initial_delay_is_six_then_four_stays():
    out = run(MACHINES["fib"], "a" * 16, traced=True)
    assert all(r.action == ("stay",) for r in out.trace[:10])
    assert out.trace[10].action[0] == "push"


def test_enumeration_matches_run_for_trie_p():
    m = MACHINES["trie-p"]
    words = enumerate_accepted(m, 7)
    assert "a$⊳a" in words and "ab$$⊳ab" in words
    for w in words:
        assert run(m, w).accepted


def test_trie_p_hat_agrees_with_its_oracle():
    from twsda.analysis import cross_check
    from twsda.oracles import ORACLES

    assert cross_check(MACHINES["trie-p-hat"], ORACLES["lp-hat"](), 11) == []


def test_union_witness_covers_both_machines():
    from twsda.oracles import ORACLES

    union = ORACLES["union-witness"]()
    hat_words = enumerate_accepted(MACHINES["trie-p-hat"], 8)
    mi_words = enumerate_accepted(MACHINES["mi-hat"], 8)
    assert hat_words and mi_words
    for w in hat_words + mi_words:
        assert union.membership(w)
    assert not union.membership("▷▶")
