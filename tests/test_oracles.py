"""Witness-language predicates, homomorphisms, and viability soundness."""
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from twsda.analysis import fibonacci
from twsda.oracles import (
    ORACLES,
    _cube_root,
    lh_class_sample,
    oracle_lh,
    oracle_lh_tilde,
    oracle_lp,
    oracle_lp_tilde,
    oracle_mi_hat,
    oracle_union_witness,
    pair_encode,
    pair_expand,
    prime_expand,
    unprime,
)


def words_over(alphabet, max_len):
    for length in range(max_len + 1):
        for parts in itertools.product(alphabet, repeat=length):
            yield "".join(parts)


def test_block_homomorphism():
    assert pair_expand("0123") == "aaabbabb"
    assert pair_expand("") == ""
    assert pair_expand("x") is None
    assert pair_encode("aaabbabb") == "0123"
    assert pair_encode("aab") is None
    assert unprime("AB") == "ab"
    assert unprime("a") is None
    assert prime_expand("1a$2") == "ABa$BA"


@pytest.mark.parametrize(
    "word, member",
    [
        ("⊳", False),
        ("a$⊳a", True),
        ("ab$$b$⊳ab", True),
        ("ab$$b$⊳b", True),
        ("ab$$b$⊳a", False),
        ("ab$$a$⊳a", False),  # "a" after "ab" violates the order condition
        ("a$ab$$⊳ab", True),  # extending an earlier word is allowed
        ("a$a$⊳a", True),  # duplicates are allowed
        ("a$aa$$a$⊳a", False),
        ("ab$b$⊳b", False),  # short padding
        ("a$$⊳a", False),  # long padding
        ("$a$⊳a", False),  # padding before any letter
        ("ab$$⊳", False),  # empty query never matches
        ("a$⊳$", False),
    ],
)
def test_lp_membership(word, member):
    assert oracle_lp().membership(word) is member


@pytest.mark.parametrize(
    "word, member",
    [
        ("a$¢bb$a▷a", True),
        ("a$¢▷a", True),
        ("a$¢▷b", False),
        ("a$▷a", False),  # ¢ required
        ("¢▷", False),
        ("¢ab$▷", False),
        ("ab$$¢$$▷ab", True),
        ("a$¢¢▷a", False),  # a second ¢ is not part of any member
    ],
)
def test_lp_hat_membership(word, member):
    assert ORACLES["lp-hat"]().membership(word) is member


@pytest.mark.parametrize(
    "word, member",
    [
        ("¢ab$ba▶", True),
        ("¢ab$ab▶", False),
        ("a$b¢$▶", True),
        ("¢$▶", True),
        ("▶", False),
        ("¢a$a▶", True),
        ("¢a$a", False),  # closing marker missing
        ("¢a$a▶▶", False),
        ("b¢a¢a▶", False),
    ],
)
def test_mi_hat_membership(word, member):
    assert oracle_mi_hat().membership(word) is member


@pytest.mark.parametrize(
    "word, member",
    [
        ("⊳", True),  # the empty insert matches the empty query
        ("ba⊳1", True),  # image of '1' is ab; reversed insert ba matches
        ("ab⊳1", False),
        ("aa$bb⊳3", True),
        ("aa$bb⊳0", True),
        ("aa$bb⊳1", False),
        ("$aa⊳", True),  # the leading $ contributes an empty insert
        ("aa⊳", False),
        ("⊳a", False),  # query must use block symbols
    ],
)
def test_lh_membership(word, member):
    assert oracle_lh().membership(word) is member


# `lh`'s alphabet plus one symbol outside it
LH_SYMBOLS = (*oracle_lh().alphabet, "x")


def test_lh_stepper_built_from_a_word_agrees_with_membership():
    lh = oracle_lh()
    words = list(words_over(LH_SYMBOLS, 5))
    assert len(words) == 66_430
    for word in words:
        assert lh.stepper(word).member() is lh.membership(word), word


def test_lh_stepper_pushed_from_empty_agrees_with_membership():
    lh = oracle_lh()
    stepper = lh.stepper("")
    visited = 0

    def walk(word, depth):
        nonlocal visited
        visited += 1
        assert stepper.member() is lh.membership(word), word
        if depth:
            for sym in LH_SYMBOLS:
                stepper.push(sym)
                walk(word + sym, depth - 1)
                stepper.pop()

    walk("", 5)
    assert visited == 66_430


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=LH_SYMBOLS, max_size=12),
    st.lists(st.one_of(st.sampled_from(LH_SYMBOLS), st.none()), max_size=30),
)
def test_lh_stepper_follows_random_pushes_and_pops(start, ops):
    """None pops, when something is pushed; every other op pushes."""
    lh = oracle_lh()
    stepper = lh.stepper(start)
    pushed = ""
    assert stepper.member() is lh.membership(start)
    for op in ops:
        if op is None:
            if not pushed:
                continue
            stepper.pop()
            pushed = pushed[:-1]
        else:
            stepper.push(op)
            pushed += op
        assert stepper.member() is lh.membership(start + pushed), (start, pushed)


def test_lh_tilde_and_lp_tilde():
    lh_t = oracle_lh_tilde().membership
    lp_t = oracle_lp_tilde().membership
    assert lh_t("ab$$⊳1")  # h(1) = ab
    assert not lh_t("ab$$⊳2")
    assert lp_t("ab$$⊳AB")  # unprimed AB = ab
    assert not lp_t("ab$$⊳BA")
    assert not lp_t("ab$$⊳ab")  # query must be primed


def test_preimage_relation_structured():
    """Words map into the primed language exactly when their encoded form
    is in the block language."""
    lh_t = oracle_lh_tilde().membership
    lp_t = oracle_lp_tilde().membership
    for w in words_over(("a", "$", "⊳", "0"), 8):
        assert lh_t(w) == lp_t(prime_expand(w)), w
    for w in words_over(("b", "$", "⊳", "1", "3"), 6):
        assert lh_t(w) == lp_t(prime_expand(w)), w


def test_union_witness():
    u = oracle_union_witness().membership
    assert u("a$¢▷a") and u("¢ab$ba▶")
    assert not u("¢ab$ab▶") and not u("▷")


def test_lh_class_sample_shape():
    sample = lh_class_sample(1)
    assert len(sample) == 16
    assert "⊳" in sample
    assert "$aa$ab$ba$bb⊳" in sample
    member = oracle_lh().membership
    assert all(member(w) for w in sample)


@pytest.mark.parametrize(
    "name, member_len, word_len, ext_len",
    [
        ("lp", 9, 5, 4), ("lp-hat", 8, 5, 4), ("mi-hat", 8, 5, 4),
        ("union-witness", 7, 4, 3),
    ],
)
def test_viable_prefix_is_sound(name, member_len, word_len, ext_len):
    """Every prefix of every member is viable, and no short extension of a
    non-viable word is a member.

    Pruning in the exhaustive cross-check is sound exactly as long as
    these two directions hold, so the bounds here are kept as wide as a
    few seconds allow.
    """
    oracle = ORACLES[name]()
    member, viable = oracle.membership, oracle.viable_prefix
    alphabet = oracle.alphabet
    seen_member = seen_nonviable = 0
    for w in words_over(alphabet, member_len):
        if member(w):
            seen_member += 1
            for i in range(len(w) + 1):
                assert viable(w[:i]), (w, w[:i])
    extensions = list(words_over(alphabet, ext_len))
    for w in words_over(alphabet, word_len):
        if not viable(w):
            seen_nonviable += 1
            for u in extensions:
                assert not member(w + u), (w, u)
    assert seen_member > 0 and seen_nonviable > 0


def padded_members(max_len, queries, skim=False):
    """Members up to `max_len` of a padded dictionary language, built from
    its definition rather than parsed.

    The blocks x1, ..., xk are non-empty words over {a, b}, none a proper
    prefix of an earlier one, each followed by |xi| $.  `queries(x)` lists
    the queries that match block x.  Without `skim` the word ends ⊳ y; with
    it, ¢ z ▷ y for any z over {a, b, $}.
    """
    members = set()

    def close(xs, body):
        for y in {y for x in xs for y in queries(x)}:
            if not skim:
                members.add(body + "⊳" + y)
                continue
            for z in words_over("ab$", max_len - len(body) - len(y) - 2):
                members.add(body + "¢" + z + "▷" + y)

    def extend(xs, body):
        close(xs, body)
        taken = {e[:k] for e in xs for k in range(1, len(e))}
        for x in words_over("ab", (max_len - len(body) - 2) // 2):
            if x and x not in taken:
                extend(xs + [x], body + x + "$" * len(x))

    extend([], "")
    return {w for w in members if len(w) <= max_len}


def encode_blocks(x):
    """The block-symbol words whose image under 0↦aa, 1↦ab, 2↦ba, 3↦bb is x."""
    if len(x) % 2:
        return []
    pairs = {"aa": "0", "ab": "1", "ba": "2", "bb": "3"}
    return ["".join(pairs[x[i : i + 2]] for i in range(0, len(x), 2))]


@pytest.mark.parametrize(
    "name, queries, skim, member_len, viable_len, word_len",
    [
        ("lp", lambda x: [x], False, 9, 16, 5),
        ("lp-hat", lambda x: [x], True, 8, 14, 4),
        ("lh-tilde", encode_blocks, False, 6, None, None),
    ],
    ids=["lp", "lp-hat", "lh-tilde"],
)
def test_padded_dictionary_matches_a_generator(
    name, queries, skim, member_len, viable_len, word_len
):
    """Membership equals the generated members exactly, and a short word is
    viable exactly when it begins some generated member."""
    oracle = ORACLES[name]()
    expected = padded_members(member_len, queries, skim)
    assert expected
    got = {w for w in words_over(oracle.alphabet, member_len) if oracle.membership(w)}
    assert got == expected
    if viable_len is None:
        return
    prefixes = {
        w[:i] for w in padded_members(viable_len, queries, skim) for i in range(len(w) + 1)
    }
    for w in words_over(oracle.alphabet, word_len):
        assert oracle.viable_prefix(w) is (w in prefixes), w


def test_mi_hat_matches_a_generator():
    """Membership equals the members x ¢ v $ v^R ▶ built from the definition,
    and a short word is viable exactly when it begins one of them."""
    oracle = oracle_mi_hat()

    def members(max_len):
        out = set()
        for v in words_over("ab", (max_len - 3) // 2):
            tail = "¢" + v + "$" + v[::-1] + "▶"
            out.update(x + tail for x in words_over("ab$", max_len - len(tail)))
        return out

    expected = members(8)
    got = {w for w in words_over(oracle.alphabet, 8) if oracle.membership(w)}
    assert got == expected
    # a viable word of length 5 is completed by at most 6 more symbols
    prefixes = {w[:i] for w in members(11) for i in range(len(w) + 1)}
    for w in words_over(oracle.alphabet, 5):
        assert oracle.viable_prefix(w) is (w in prefixes), w


def test_fib_membership_matches_the_fibonacci_numbers():
    fibs = {fibonacci(i) for i in range(1, 25)}  # fibonacci(24) = 46 368 > 5 000
    member = ORACLES["fib"]().membership
    for n in range(10_001):
        assert member("a" * n) == (n > 0 and n % 2 == 0 and n // 2 in fibs), n


def test_cub_membership_matches_the_cubes():
    cubes = {k**3 for k in range(32)}  # 32**3 = 32 768 > 30 000
    member = ORACLES["cub"]().membership
    for n in range(30_001):
        assert member("a" * n) == (n in cubes), n


class _UnaryWord:
    """n copies of "a", never built: only the length and the letters."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter("a")


def test_cub_membership_is_exact_up_to_the_longest_word():
    """Membership and the integer cube root at k³ − 1, k³ and k³ + 1 for
    k ≥ 2 near 2²¹ and sampled below it:
    (2²¹ − 1)³ + 1 is the largest such length below sys.maxsize.  Every
    length to 30 000 is checked above."""
    member = ORACLES["cub"]().membership
    ks = [*range(2, 200), *range(2**21 - 200, 2**21), *random.Random(18).sample(range(2, 2**21), 600)]
    for k in ks:
        cube = k * k * k
        assert member(_UnaryWord(cube)), k
        assert not member(_UnaryWord(cube - 1)) and not member(_UnaryWord(cube + 1)), k
        assert (_cube_root(cube - 1), _cube_root(cube), _cube_root(cube + 1)) == (k - 1, k, k)


def test_fib_membership_keeps_no_state_per_length():
    member = ORACLES["fib"]().membership
    tracemalloc.start()
    try:
        for n in range(20_002, 30_002, 2):  # 5 000 even lengths no other test asks
            member("a" * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("name", ["expo", "fib", "cub"])
def test_unary_oracles(name):
    oracle = ORACLES[name]()
    lengths = [n for n in range(0, 130) if oracle.membership("a" * n)]
    expected = {
        "expo": [1, 2, 4, 8, 16, 32, 64, 128],
        "fib": [2, 4, 6, 10, 16, 26, 42, 68, 110],
        "cub": [0, 1, 8, 27, 64, 125],
    }[name]
    assert lengths == expected
    assert all(oracle.viable_prefix("a" * n) for n in (0, 3, 17))
    # a member length spelt with a foreign letter is refused, wherever it stands
    for n in expected:
        if n:  # "b" * 0 is the empty word, a member of cub
            for w in ("a" * (n - 1) + "b", "b" + "a" * (n - 1), "b" * n):
                assert not oracle.membership(w), w
