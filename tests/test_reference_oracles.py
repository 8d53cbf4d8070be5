"""Cross-check the oracles' word parsing against naive references.

`naive_parse_padded` and the `naive_*` predicates below scan a word one
character at a time, with index loops, `count` and generator tests; they
share no helper with `twsda.oracles`.  Agreement on every short word over
each oracle's alphabet, and over that alphabet with the other oracles'
markers and a foreign symbol added, pins the `str`-method parsing down.
"""
import itertools

import pytest

from twsda.oracles import CENT, MARK, MARK1, MARK2, ORACLES, _parse_padded

FOREIGN = "x"  # in no oracle's alphabet
MARKERS = CENT + MARK + MARK1 + MARK2


def naive_parse_padded(body):
    xs = []
    i = 0
    n = len(body)
    while i < n:
        j = i
        while j < n and body[j] in "ab":
            j += 1
        if j == i:
            return None
        if j == n:
            return xs, False
        x = body[i:j]
        for earlier in xs:
            if earlier != x and earlier.startswith(x):
                return None
        xs.append(x)
        i = j + len(x)
        if body[j:i] != "$" * len(x):
            return (xs, False) if i > n and body[j:] == "$" * (n - j) else None
    return xs, True


def naive_lp_member(w):
    body, mark, y = w.partition(MARK)
    if not mark:
        return False
    parsed = naive_parse_padded(body)
    return parsed is not None and parsed[1] and y in parsed[0]


def naive_lp_viable(w):
    body, mark, y = w.partition(MARK)
    parsed = naive_parse_padded(body)
    if parsed is None:
        return False
    return not mark or (parsed[1] and any(x.startswith(y) for x in parsed[0]))


def naive_lp_hat_member(w):
    body, _, tail = w.partition(CENT)
    z, mark, y = tail.partition(MARK1)
    if not mark or any(c not in "ab$" for c in z):
        return False
    parsed = naive_parse_padded(body)
    return parsed is not None and parsed[1] and y in parsed[0]


def naive_lp_hat_viable(w):
    body, cent, tail = w.partition(CENT)
    parsed = naive_parse_padded(body)
    if parsed is None:
        return False
    if not cent:
        return True
    xs, complete = parsed
    z, mark, y = tail.partition(MARK1)
    if not complete or not xs or any(c not in "ab$" for c in z):
        return False
    return not mark or any(x.startswith(y) for x in xs)


def naive_mi_hat_member(w):
    if not w.endswith(MARK2) or w.count(MARK2) != 1 or w.count(CENT) != 1:
        return False
    x, _, tail = w.partition(CENT)
    if any(c not in "ab$" for c in x):
        return False
    tail = tail[:-1]
    i = 0
    while i < len(tail) and tail[i] in "ab":
        i += 1
    v, rest = tail[:i], tail[i:]
    return rest == "$" + v[::-1]


def naive_mi_hat_viable(w):
    if w.count(CENT) == 0:
        return MARK2 not in w and all(c in "ab$" for c in w)
    x, _, tail = w.partition(CENT)
    if any(c not in "ab$" for c in x) or CENT in tail:
        return False
    if MARK2 in tail:
        return naive_mi_hat_member(w)
    i = 0
    while i < len(tail) and tail[i] in "ab":
        i += 1
    v, rest = tail[:i], tail[i:]
    if not rest:
        return True
    return rest[0] == "$" and v[::-1].startswith(rest[1:])


NAIVE = {
    "lp": (naive_lp_member, naive_lp_viable),
    "lp-hat": (naive_lp_hat_member, naive_lp_hat_viable),
    "mi-hat": (naive_mi_hat_member, naive_mi_hat_viable),
}


def words_over(alphabet, max_len):
    for length in range(max_len + 1):
        for parts in itertools.product(alphabet, repeat=length):
            yield "".join(parts)


def assert_agree(name, alphabet, max_len):
    oracle = ORACLES[name]()
    naive_member, naive_viable = NAIVE[name]
    members = 0
    for w in words_over(alphabet, max_len):
        member = naive_member(w)
        members += member
        assert oracle.membership(w) == member, w
        assert oracle.viable_prefix(w) == naive_viable(w), w
    assert members  # the words reach some member


@pytest.mark.parametrize("name, max_len", [("lp", 8), ("lp-hat", 7), ("mi-hat", 7)])
def test_oracles_match_the_reference_on_their_alphabet(name, max_len):
    assert_agree(name, ORACLES[name]().alphabet, max_len)


@pytest.mark.parametrize("name", sorted(NAIVE))
def test_oracles_match_the_reference_with_foreign_symbols(name):
    alphabet = sorted(set(ORACLES[name]().alphabet) | set(MARKERS) | {FOREIGN})
    assert_agree(name, alphabet, 5)


def test_parse_padded_matches_the_reference():
    outcomes = set()
    for body in words_over("ab$" + MARK1, 8):
        want = naive_parse_padded(body)
        assert _parse_padded(body) == want, body
        outcomes.add(None if want is None else want[1])
    assert outcomes == {None, False, True}
