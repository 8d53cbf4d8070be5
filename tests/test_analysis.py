"""Exact sequences, equivalence classes, shape predicates, cross-checks."""
import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from twsda.analysis import (
    catalan,
    class_upper_bound,
    count_classes,
    cross_check,
    enumerate_accepted,
    expo_moves,
    fib_moves,
    fibonacci,
    is_complete_binary,
    is_fibonacci_tree,
    machines_agree,
)
from test_machinefile import _states
from test_reference_semantics import _busy_rows, naive_run
from test_tree import complete_tree
from twsda.builders import BUILTINS, build_expo, build_fib, build_trie_p
from twsda.combinators import complement, left_quotient
from twsda.machine import (
    END,
    LAMBDA,
    SpecificityConflict,
    TransitionRow,
    machine_from_rows,
    validate,
)
from twsda.oracles import (
    ORACLES,
    LanguageOracle,
    lh_class_sample,
    oracle_expo,
    oracle_fib,
    oracle_lh,
)
from twsda.simulate import (
    BudgetExceeded,
    BudgetRequired,
    Configuration,
    Verdict,
    _prefix_dfs,
    run,
)
from twsda.tree import DOWN_L, DOWN_R, POP, ROOT, ROOT_LABEL, STAY, UP, GammaTree, push


def test_fibonacci_prefix():
    assert [fibonacci(i) for i in range(1, 12)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert fibonacci(6) == 8
    with pytest.raises(ValueError):
        fibonacci(0)


def test_fibonacci_partial_sums():
    for ell in range(1, 26):
        assert sum(fibonacci(i) for i in range(1, ell + 1)) == fibonacci(ell + 2) - 1


def binomial_catalan(n: int) -> int:
    """Independent route: C(n) = binom(2n, n)/(n+1)."""
    return math.comb(2 * n, n) // (n + 1)


def test_catalan_against_binomial_oracle():
    for n in range(0, 31):
        assert catalan(n) == binomial_catalan(n)


def test_catalan_prefix_and_bound():
    assert [catalan(n) for n in range(11)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    ]
    for n in range(31):
        assert catalan(n) <= 4**n


def test_move_formulas():
    assert expo_moves(1) == 0
    assert expo_moves(2) == 4
    assert fib_moves(1) == 0
    assert fib_moves(2) == 2
    # phase deltas stay positive and grow
    deltas = [expo_moves(l + 1) - expo_moves(l) for l in range(1, 10)]
    assert deltas == [2 ** (l + 1) - 4 for l in range(2, 11)]


def test_class_upper_bound_values():
    assert class_upper_bound(1, 1, 1) == 2**24
    assert class_upper_bound(1, 1, 2) == 2**48
    assert class_upper_bound(2, 1, 1) == 2**26
    for ell in range(1, 5):
        assert class_upper_bound(3, 2, ell) <= class_upper_bound(3, 2, ell + 1)
    with pytest.raises(ValueError):
        class_upper_bound(0, 1, 1)


def l_equivalent(oracle, w1, w2, ell):
    """Whether no extension over {a} of length at most ℓ separates w1 and
    w2: whether the two words make one class."""
    return count_classes(oracle, [w1, w2], ell, ("a",)).count == 1


def test_l_equivalent_examples():
    oracle = oracle_expo()
    assert l_equivalent(oracle, "aaaa", "aaaa", 3)
    assert l_equivalent(oracle, "aaa", "a" * 7, 1)
    assert not l_equivalent(oracle, "aaa", "aaaa", 1)
    # lambda-only degenerate case compares membership
    assert l_equivalent(oracle, "a", "aa", 0)
    assert not l_equivalent(oracle, "a", "aaa", 0)


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=3))
def test_l_equivalent_is_an_equivalence(ns):
    oracle = oracle_fib()
    w = ["a" * n for n in ns]
    eq = lambda x, y: l_equivalent(oracle, x, y, 2)
    assert eq(w[0], w[0])
    assert eq(w[0], w[1]) == eq(w[1], w[0])
    if eq(w[0], w[1]) and eq(w[1], w[2]):
        assert eq(w[0], w[2])


def test_negative_ell_is_refused():
    for ell in (-1, -2):
        with pytest.raises(ValueError, match="ell must be >= 0"):
            count_classes(oracle_expo(), ["a", "aa"], ell, ("a",))
        with pytest.raises(ValueError, match="ell must be >= 0"):
            l_equivalent(oracle_expo(), "a", "aa", ell)


def test_count_classes_singleton():
    part = count_classes(oracle_expo(), ["aaa"], 2, ("a",))
    assert part.count == 1


def test_count_classes_expo_sample():
    part = count_classes(oracle_expo(), ["a" * n for n in range(21)], 1, ("a",))
    for cls in part.classes:
        if "aaa" in cls:
            assert "a" * 7 in cls
            break
    else:
        pytest.fail("a^3 not found")


def test_count_classes_subset_sample_is_exponential():
    part = count_classes(ORACLES["lh"](), lh_class_sample(1), 1, ("0", "1", "2", "3"))
    assert part.count == 16


def reference_partition(oracle, sample, ell, extension_alphabet):
    """Classes of `sample` from one `membership` call per word and
    extension string, the extensions listed up front."""
    extensions = [
        "".join(parts)
        for length in range(ell + 1)
        for parts in itertools.product(extension_alphabet, repeat=length)
    ]
    groups: dict = {}
    for word in sample:
        sig = tuple(oracle.membership(word + u) for u in extensions)
        groups.setdefault(sig, []).append(word)
    return sorted(sorted(ws, key=lambda w: (len(w), w)) for ws in groups.values())


def assert_walks_agree(sample, ell, extension_alphabet):
    """`lh`'s stepper, the `membership` adapter and the reference give the
    same partition."""
    lh = oracle_lh()
    walked = count_classes(lh, sample, ell, extension_alphabet)
    adapted = count_classes(dataclasses.replace(lh, stepper=None), sample, ell, extension_alphabet)
    assert walked == adapted
    assert sorted(map(list, walked.classes)) == reference_partition(
        lh, sample, ell, extension_alphabet
    )
    return walked


BLOCKS = ("0", "1", "2", "3")


@functools.lru_cache(maxsize=1)
def lh_sample_2():
    return lh_class_sample(2)


def test_stepper_walk_gives_the_adapter_partition_on_the_l1_sample():
    part = assert_walks_agree(lh_class_sample(1), 1, BLOCKS)
    assert part.count == 16


@pytest.mark.parametrize("seed", range(4))
def test_stepper_walk_gives_the_adapter_partition_on_l2_subsets(seed):
    sample = random.Random(seed).sample(lh_sample_2(), 40)
    part = assert_walks_agree(sample, 2, BLOCKS)
    assert part.count == 40


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.text(alphabet=oracle_lh().alphabet, max_size=10), max_size=12),
    st.sampled_from([0, 1, 2]),
)
def test_stepper_walk_gives_the_adapter_partition_on_random_words(sample, ell):
    # the CLI's default extensions: the oracle's whole alphabet
    assert_walks_agree(sample, ell, oracle_lh().alphabet)


def test_stepper_walk_pushes_every_symbol_of_an_entry():
    sample = [*lh_class_sample(1), "ab⊳", "ba⊳", "aab$a⊳", "⊳0"]
    for ell in (0, 1, 2, 3):
        assert_walks_agree(sample, ell, ("01", "2", "2"))


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_membership_adapter_calls_once_per_word_and_extension(ell):
    lh = oracle_lh()
    calls = 0

    def membership(word):
        nonlocal calls
        calls += 1
        return lh.membership(word)

    entries = ("01", "2", "2", "3")
    sample = lh_class_sample(1)
    count_classes(dataclasses.replace(lh, membership=membership, stepper=None),
                  sample, ell, entries)
    assert calls == len(sample) * sum(len(entries) ** k for k in range(ell + 1))


def test_count_classes_below_machine_bound():
    import itertools

    samples = {
        build_expo: ["a" * n for n in range(40)],
        build_fib: ["a" * n for n in range(40)],
        build_trie_p: ["".join(p) for p in itertools.product("ab$⊳", repeat=3)],
    }
    for factory, sample in samples.items():
        machine = factory()
        oracle = LanguageOracle(
            machine.name,
            tuple(machine.input_alphabet),
            lambda word, machine=machine: run(machine, word).accepted,
        )
        for ell in (1, 2):
            part = count_classes(oracle, sample, ell, machine.input_alphabet)
            bound = class_upper_bound(len(machine.states), len(machine.tree_alphabet), ell)
            assert part.count <= bound


def test_shape_predicates_base_cases():
    single = GammaTree()
    assert is_complete_binary(single, 1)
    assert is_fibonacci_tree(single, 1)
    assert not is_complete_binary(single, 2)
    assert not is_fibonacci_tree(single, 2)
    assert not is_complete_binary(single, 0)


def test_complete_tree_level_three():
    tree = complete_tree(3)
    assert tree.size == 7
    assert is_complete_binary(tree, 3)
    assert not is_complete_binary(tree, 2)
    assert not is_fibonacci_tree(tree, 3)


def test_fib_tree_matches_node_count():
    # level 6 shape from the recursive definition via snapshot assembly
    def build(level):
        if level <= 0:
            return None
        return ("x", build(level - 1), build(level - 2))

    def render(shape):
        if shape is None:
            return "."
        return f"({shape[0]} {render(shape[1])} {render(shape[2])})"

    shape = build(6)
    shape = (ROOT_LABEL, shape[1], shape[2])
    tree = GammaTree.from_snapshot(render(shape))
    assert tree.size == fibonacci(8) - 1 == 20
    assert is_fibonacci_tree(tree, 6)
    assert not is_fibonacci_tree(tree, 5)


def left_spine(nodes: int) -> GammaTree:
    """A tree of `nodes` nodes, each but the last the left parent of the next."""
    return GammaTree.from_snapshot(
        f"({ROOT_LABEL} " + "(x " * (nodes - 1) + ". .)" + " .)" * (nodes - 1)
    )


def test_shape_predicates_refuse_a_deep_spine():
    # a 3 000-deep spine exceeds the default recursion limit if the
    # predicates recurse along it
    tree = left_spine(3000)
    assert tree.size == 3000
    assert not is_complete_binary(tree, 5000)
    assert not is_fibonacci_tree(tree, 5000)


def test_shape_predicates_walk_a_tree_of_the_right_count():
    # a level's node count: 2^level - 1, and fibonacci(level + 2) - 1
    assert not is_complete_binary(left_spine(2**12 - 1), 12)
    assert not is_fibonacci_tree(left_spine(fibonacci(17) - 1), 15)
    assert is_fibonacci_tree(left_spine(2), 2)


def test_cross_check_agreement():
    assert cross_check(build_fib(), ORACLES["fib"](), 200) == []


def test_cross_check_disagreement_reports_first_at_one():
    mm = cross_check(build_expo(), ORACLES["fib"](), 10)
    words = [m.word for m in mm]
    assert words[0] == "a"  # in the doubling language, not in the Fibonacci one
    assert "a" * 6 in words  # Fibonacci member that is no power of two
    assert all(m.machine_accepts != m.oracle_accepts for m in mm)


def test_cross_check_alphabet_mismatch():
    with pytest.raises(ValueError):
        cross_check(build_trie_p(), ORACLES["fib"](), 3)


def test_enumerate_accepted_expo():
    words = enumerate_accepted(build_expo(), 20)
    assert words == ["a", "aa", "aaaa", "a" * 8, "a" * 16]


def test_enumerate_accepted_length_zero():
    assert enumerate_accepted(build_expo(), 0) == []
    rows = [TransitionRow("q", "⋗", "-", "-", "-", ROOT_LABEL, "q", STAY)]
    accepts_empty = machine_from_rows(
        "eps", ("a",), ("x",), "q", ["q"], rows, real_time=True, non_erasing=True
    )
    assert enumerate_accepted(accepts_empty, 0) == [""]


def test_negative_max_len_is_refused():
    expo = build_expo()
    expo_lambda = dataclasses.replace(expo, real_time=False)
    for max_len in (-1, -2):
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            enumerate_accepted(expo, max_len)
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            enumerate_accepted(expo_lambda, max_len, run_budget=8)
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            cross_check(expo, ORACLES["expo"](), max_len)
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            machines_agree(expo, expo, max_len)


def test_prefix_walks_refuse_repeated_or_long_symbols():
    expo = build_expo()
    for alphabet in (("a", "a"), ("aa",)):
        machine = dataclasses.replace(expo, input_alphabet=alphabet)
        with pytest.raises(ValueError, match="distinct single-character symbols"):
            enumerate_accepted(machine, 3)


def test_budget_exceeded():
    expo, oracle = build_expo(), ORACLES["expo"]()
    expo_lambda = dataclasses.replace(expo, real_time=False)
    drivers = {
        "cross_check": lambda n, budget: cross_check(expo, oracle, n, budget=budget),
        "enumerate_accepted": lambda n, budget: enumerate_accepted(expo, n, budget=budget),
        "machines_agree": lambda n, budget: machines_agree(expo, expo, n, budget=budget),
        "cross_check λ": lambda n, budget: cross_check(
            expo_lambda, oracle, n, budget=budget, run_budget=n + 1
        ),
        "enumerate_accepted λ": lambda n, budget: enumerate_accepted(
            expo_lambda, n, budget=budget, run_budget=n + 1
        ),
    }
    for driver in drivers.values():
        with pytest.raises(BudgetExceeded):
            driver(100, 5)
        # words up to length 5 are the six words λ, a, ..., aaaaa
        driver(5, 6)
        for budget in (5, 0):
            with pytest.raises(BudgetExceeded, match=f"more than {budget} "):
                driver(5, budget)


def _depth_first(symbols, max_len, stop, word=""):
    """The words `_prefix_dfs` visits, by plain recursion over fresh strings."""
    yield word
    if word not in stop and len(word) < max_len:
        for sym in symbols:
            yield from _depth_first(symbols, max_len, stop, word + sym)


def spelling_machine(*, lam: bool):
    """Reads a, b or c by pushing it as a left child and moving onto it, so
    the storage's left spine spells the word read; accepts every word.

    With `lam`, a λ hop follows every push, so the machine is not real-time
    and a word of length n takes 2n+1 steps.
    """
    after_push = "hop" if lam else "q"
    rows = [TransitionRow("q", END, "*", "*", "*", "*", "yes", STAY)]
    rows += [TransitionRow("q", s, "*", "*", "*", "*", after_push, push(s, "l")) for s in "abc"]
    if lam:
        rows.append(TransitionRow("hop", LAMBDA, "*", "*", "*", "*", "q", STAY))
    return machine_from_rows(
        "spell", ("a", "b", "c"), ("a", "b", "c"), "q", ["yes"], rows,
        real_time=not lam, non_erasing=True,
    )


def spine(tree: GammaTree) -> str:
    labels = []
    node = tree.lefts[ROOT]
    while node is not None:
        labels.append(tree.labels[node])
        node = tree.lefts[node]
    return "".join(labels)


@given(
    symbols=st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
    max_len=st.integers(0, 5),
    lam=st.booleans(),
    data=st.data(),
)
def test_prefix_dfs_visits_in_depth_first_order(symbols, max_len, lam, data):
    stop = data.draw(st.sets(st.text(alphabet=symbols, max_size=max_len)))
    expected = list(_depth_first(symbols, max_len, stop))
    machine = spelling_machine(lam=lam)
    visited: list[str] = []
    config = None

    def stands_at(word):
        """The word the tree spells while `word` is visited: a real-time
        walk reads the last level off the step program, with the tree
        still at the parent."""
        return word[:-1] if word and len(word) == max_len and not lam else word

    def visit(word, accepted, dead):
        at = stands_at(word)
        assert config.tree.size == len(at) + 1  # pushes minus pops
        assert spine(config.tree) == at  # no stale tail after a backtrack
        assert accepted and not dead
        visited.append(word)
        return word not in stop

    def walk(budget):
        nonlocal config
        config = Configuration(machine, 2 * max_len + 1)
        visited.clear()
        _prefix_dfs(config, symbols, max_len, budget, visit)

    walk(None)
    assert visited == expected
    fresh = Configuration(machine, 2 * max_len + 1)
    assert (config.state, config.node, config.dead, config._undo) == (
        fresh.state, fresh.node, fresh.dead, fresh._undo
    )
    assert config.tree.snapshot() == fresh.tree.snapshot()
    assert len(config.tree.labels) == len(fresh.tree.labels)  # every id dropped again
    config.tree.check_invariants()

    budget = data.draw(st.integers(0, len(expected) + 1))
    if budget < len(expected):
        with pytest.raises(BudgetExceeded):
            walk(budget)
        # the refused word was pushed, or read off the program at the last level
        assert spine(config.tree) == stands_at(expected[budget])
    else:
        walk(budget)
    assert visited == expected[:budget]


_SHAPES = st.tuples(st.sampled_from("-lr"), st.sampled_from("-+"), st.sampled_from("-+"))


@st.composite
def _shape_sensitive_rows(draw):
    """`_busy_rows` plus rows for concrete node shapes: symbol rows whose
    actions are legal there, so that walks live on through moves, pushes
    and pops, and endmarker rows, so that a verdict depends on the shape a
    step leaves behind."""
    rows = draw(_busy_rows())
    keys = draw(st.sets(st.tuples(_states, st.sampled_from("ab¢⊳"), _SHAPES), max_size=24))
    for state, sym, (anc, has_left, has_right) in sorted(keys):
        legal = [STAY]
        legal += [push("x", "l")] if has_left == "-" else [DOWN_L]
        legal += [push("y", "r")] if has_right == "-" else [DOWN_R]
        if anc != "-":
            legal += [UP, POP] if has_left == has_right == "-" else [UP]
        rows.append(
            TransitionRow(
                state, sym, anc, has_left, has_right, "*", draw(_states), draw(st.sampled_from(legal))
            )
        )
    for state in ("q0", "q1", "loop", "final"):
        for anc, has_left, has_right in sorted(draw(st.sets(_SHAPES, max_size=8))):
            rows.append(
                TransitionRow(
                    state, END, anc, has_left, has_right, "*",
                    draw(st.sampled_from(["q1", "final"])), STAY,
                )
            )
    return rows


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_real_time_walks_match_the_reference_on_random_machines(data):
    """From a configuration after a drawn prefix, on random real-time
    machines and their complements, the walk's visits are the plain
    recursive walk's words, each with `naive_run`'s verdict and with dead
    exactly when the run stopped inside the word or has no step left for
    the endmarker; a visit cap raises after the same visits."""
    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"],
            data.draw(_shape_sensitive_rows()),
            real_time=True, non_erasing=False,
        )
    except SpecificityConflict:
        assume(False)
    assume(not validate(machine))
    symbols = sorted(machine.input_alphabet)
    max_len = 3
    words = [
        "".join(parts)
        for length in range(max_len + 1)
        for parts in itertools.product(symbols, repeat=length)
    ]
    prefix = data.draw(st.sampled_from(words[:21]))  # every word up to length 2
    stop = data.draw(st.sets(st.sampled_from(words)))
    for m in (machine, complement(machine)):
        for run_budget in (None, 1, 2.5, 5):
            limit = math.inf if run_budget is None else run_budget
            expected = []
            for u in _depth_first(symbols, max_len, stop):
                w = prefix + u
                stopped = naive_run(m, w, run_budget, endmarker=False).verdict != "consumed"
                accepted = naive_run(m, w, run_budget).verdict == "accepted"
                expected.append((u, accepted, stopped or len(w) >= limit))
            config = Configuration(m, run_budget)
            for sym in prefix:
                config.push(sym)
            visits = []

            def visit(word, accepted, dead):
                visits.append((word, accepted, bool(dead)))
                return word not in stop

            _prefix_dfs(config, symbols, max_len, None, visit)
            assert visits == expected, (prefix, run_budget)
            inside_last = [i for i, (u, _, _) in enumerate(expected) if len(u) == max_len]
            if inside_last:
                cap = data.draw(st.sampled_from(inside_last))
                visits.clear()
                with pytest.raises(BudgetExceeded):
                    _prefix_dfs(config, symbols, max_len, cap, visit)
                assert visits == expected[:cap]


def ends_in_a(*, lam: bool):
    """Accepts the words over {a, b} that end in a.

    With `lam`, every symbol step goes through a λ hop, so the machine is
    not real-time but accepts the same words.
    """
    edges = [("q", "a", "p"), ("q", "b", "q"), ("p", "a", "p"), ("p", "b", "q")]
    rows = [TransitionRow("p", END, "-", "-", "-", ROOT_LABEL, "yes", STAY)]
    for state, sym, target in edges:
        via = f"hop-{target}" if lam else target
        rows.append(TransitionRow(state, sym, "-", "-", "-", ROOT_LABEL, via, STAY))
        if lam:
            rows.append(TransitionRow(via, LAMBDA, "-", "-", "-", ROOT_LABEL, target, STAY))
    return machine_from_rows(
        "ends-in-a", ("a", "b"), ("x",), "q", ["yes"], rows,
        real_time=not lam, non_erasing=True,
    )


def test_lambda_machine_checks_follow_the_real_time_walk():
    real_time, lam = ends_in_a(lam=False), ends_in_a(lam=True)
    nothing = LanguageOracle("empty", ("a", "b"), lambda w: False)
    expected = ["a", "aa", "aaa", "aba", "ba", "baa", "bba"]  # depth-first order
    assert [m.word for m in cross_check(real_time, nothing, 3)] == expected
    mismatches = cross_check(lam, nothing, 3, run_budget=8)
    assert [m.word for m in mismatches] == expected
    assert all(m.machine_accepts and not m.oracle_accepts for m in mismatches)
    assert enumerate_accepted(lam, 3, run_budget=8) == enumerate_accepted(real_time, 3)
    assert enumerate_accepted(lam, 3, run_budget=8) == sorted(expected, key=lambda w: (len(w), w))
    # a word of length n takes 2n+1 steps: a budget of 6 cuts off every
    # three-letter word, and a run cut off does not accept
    assert enumerate_accepted(lam, 3, run_budget=6) == ["a", "aa", "ba"]
    with pytest.raises(BudgetRequired):
        enumerate_accepted(lam, 3)
    for first, second in ((lam, real_time), (real_time, lam)):
        with pytest.raises(ValueError, match="real-time"):
            machines_agree(first, second, 3)
    # the endmarker step follows the λ hop that accepts "a", as the run does
    config = Configuration(lam, 8)
    config.push("a")
    assert config.accepts_now() and run(lam, "a", budget=8).accepted
    with pytest.raises(BudgetRequired):
        Configuration(lam).accepts_now()


ORACLE_OF = {
    "expo": "expo", "fib": "fib", "cub": "cub",
    "trie-p": "lp", "trie-p-hat": "lp-hat", "mi-hat": "mi-hat",
}


def logged(oracle: LanguageOracle, log: list) -> LanguageOracle:
    """`oracle`, appending each call it answers to `log`."""

    def membership(word):
        log.append(("membership", word))
        return oracle.membership(word)

    def viable_prefix(word):
        log.append(("viable_prefix", word))
        return oracle.viable_prefix(word)

    viable = None if oracle.viable_prefix is None else viable_prefix
    return LanguageOracle(oracle.name, oracle.alphabet, membership, viable)


def traffic_case(case: str):
    """The machine, oracle, length and run budget of one traffic case."""
    if case == "quotient":  # an initial tree of three nodes, pointer at "ll"
        base = ORACLES["mi-hat"]()
        oracle = LanguageOracle(
            "mi-hat after ¢ab", base.alphabet,
            lambda w: base.membership("¢ab" + w), lambda w: base.viable_prefix("¢ab" + w),
        )
        return left_quotient(BUILTINS["mi-hat"](), "¢ab"), oracle, 4, None
    if case.startswith("lambda/"):  # symbols after the first take two steps
        oracle = LanguageOracle(
            "ends in a, no bb", ("a", "b"),
            lambda w: w.endswith("a") and "bb" not in w, lambda w: "bb" not in w,
        )
        return ends_in_a(lam=True), oracle, 5, float(case.split("/")[1])
    name, _, variant = case.partition("/")
    machine, oracle = BUILTINS[name](), ORACLES[ORACLE_OF[name]]()
    if variant == "complement":
        machine = complement(machine)
        oracle = LanguageOracle(
            f"not {oracle.name}", oracle.alphabet,
            lambda w, member=oracle.membership: not member(w), oracle.viable_prefix,
        )
    return machine, oracle, 30 if machine.input_alphabet == ("a",) else 4, None


@pytest.mark.parametrize(
    "case",
    [*sorted(BUILTINS), *(f"{name}/complement" for name in sorted(BUILTINS)),
     "quotient", "lambda/2.5", "lambda/5"],
)
def test_cross_check_oracle_traffic_follows_the_reference_walk(case):
    """`cross_check` asks `membership` of exactly the words the plain
    recursive walk visits, in its order, and `viable_prefix` of exactly
    those the machine is dead in, when that walk stops below the dead words
    the oracle finds not viable.  The bench counts `analysis.prefixes` and
    `analysis.pruned` from these calls."""
    machine, oracle, max_len, run_budget = traffic_case(case)
    symbols = sorted(machine.input_alphabet)
    words = [
        "".join(parts)
        for length in range(max_len + 1)
        for parts in itertools.product(symbols, repeat=length)
    ]
    dead = {
        w for w in words
        if naive_run(machine, w, run_budget, endmarker=False).verdict != "consumed"
    }
    viable = oracle.viable_prefix
    stop = {w for w in dead if viable is not None and not viable(w)}
    expected = []
    for word in _depth_first(symbols, max_len, stop):
        expected.append(("membership", word))
        if word in dead and viable is not None:
            expected.append(("viable_prefix", word))
    log: list = []
    cross_check(machine, logged(oracle, log), max_len, run_budget=run_budget)
    assert log == expected


def test_run_budget_bounds_real_time_walks():
    expo = build_expo()
    # a word of length n takes n+1 steps, so a budget of 3 cuts off aaaa
    assert run(expo, "aaaa", budget=3).verdict is Verdict.BUDGET_EXHAUSTED
    assert enumerate_accepted(expo, 9, run_budget=3) == ["a", "aa"]
    assert enumerate_accepted(expo, 9, run_budget=math.inf) == ["a", "aa", "aaaa", "a" * 8]
    mismatches = cross_check(expo, ORACLES["expo"](), 9, run_budget=3)
    assert [(m.word, m.machine_accepts) for m in mismatches] == [("aaaa", False), ("a" * 8, False)]
    for run_budget in (0, -1):
        with pytest.raises(ValueError, match="budget must be a positive number"):
            enumerate_accepted(expo, 3, run_budget=run_budget)


def test_real_time_walks_stop_where_the_run_budget_is_spent():
    """A real-time word of length n takes n+1 steps, so under run budget b
    every word of length b or more rejects, and its extensions too: the
    walk visits no word longer than b."""
    trie_p = build_trie_p()
    symbols = sorted(trie_p.input_alphabet)
    for run_budget in (2, 5):
        words = [
            "".join(parts)
            for length in range(run_budget + 1)
            for parts in itertools.product(symbols, repeat=length)
        ]
        expected = [w for w in words if run(trie_p, w, budget=run_budget).accepted]
        got = enumerate_accepted(trie_p, 8, budget=len(words), run_budget=run_budget)
        assert got == expected


def test_lambda_walks_skip_the_prefixes_the_machine_halted_inside():
    """A λ hop after every a and no rule that reads b: the machine halts on
    its first b, so the walk to length 10 visits λ, the ten words a^i and
    the ten words a^i b, and skips the 2 026 words below those."""
    rows = [
        TransitionRow("q", "a", "-", "-", "-", ROOT_LABEL, "hop", STAY),
        TransitionRow("hop", LAMBDA, "-", "-", "-", ROOT_LABEL, "q", STAY),
        TransitionRow("q", END, "-", "-", "-", ROOT_LABEL, "yes", STAY),
    ]
    a_star = machine_from_rows(
        "a-star", ("a", "b"), ("x",), "q", ["yes"], rows, real_time=False, non_erasing=True
    )
    unary = ["a" * n for n in range(11)]
    assert enumerate_accepted(a_star, 10, budget=21, run_budget=21) == unary
    nothing = LanguageOracle("empty", ("a", "b"), lambda w: False, lambda w: False)
    mismatches = cross_check(a_star, nothing, 10, budget=21, run_budget=21)
    assert [m.word for m in mismatches] == unary
    with pytest.raises(BudgetExceeded):
        enumerate_accepted(a_star, 10, budget=20, run_budget=21)
    # a^n takes 2n+1 steps: a budget of 20 cuts a^10 off
    assert enumerate_accepted(a_star, 10, budget=21, run_budget=20) == unary[:-1]


@pytest.mark.parametrize("accept", ["end", "yes"])
def test_lambda_moves_after_the_endmarker_decide(accept):
    """The endmarker leads to `end`, whose λ move halts in `yes`: only the
    state the machine halts in counts, within the budget."""
    rows = [
        TransitionRow("q", "a", "-", "-", "-", ROOT_LABEL, "q", STAY),
        TransitionRow("q", END, "-", "-", "-", ROOT_LABEL, "end", STAY),
        TransitionRow("end", LAMBDA, "-", "-", "-", ROOT_LABEL, "yes", STAY),
    ]
    m = machine_from_rows(
        "late", ("a",), ("x",), "q", [accept], rows, real_time=False, non_erasing=True
    )
    # a^n takes n+2 steps
    expected = ["a" * n for n in range(4)] if accept == "yes" else []
    assert enumerate_accepted(m, 5, run_budget=5) == expected
    assert [w for w in expected if run(m, w, budget=5).accepted] == expected


def test_machines_agree_detects_difference():
    assert machines_agree(build_expo(), build_expo(), 30) == []
    diff = machines_agree(build_expo(), build_fib(), 30)
    assert diff and diff[0] == "a"
