"""Direct membership predicates for the witness languages.

Each oracle is a total predicate on words, written straight from the
language definition and independent of any machine.  Oracles used in
exhaustive machine cross-checks also expose `viable_prefix`: whether some
extension of a word (of any length) belongs to the language.  That lets
the checker skip subtrees where a halted machine and a hopeless prefix
are guaranteed to keep agreeing.

An oracle may also expose `stepper`, a factory: `stepper(word)` returns
an object placed after `word` with `push(sym)`, `pop()` and `member()`,
where `member()` equals `membership(word + pushed)` and `pop()` takes back
the latest push (never a symbol of `word`).  It answers a family of
extensions of one word without re-reading the word for each of them.

Words are plain strings; every symbol is one character:

    a b $            letters and padding
    ¢                separator before a skimmed stretch
    ⊳ ▷ ▶            query markers of the three dictionary/palindrome languages
    0 1 2 3          the four block symbols with two-letter images
    A B              primed letters
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable

CENT = "¢"
MARK = "⊳"
MARK1 = "▷"
MARK2 = "▶"

BLOCK_IMAGE = {"0": "aa", "1": "ab", "2": "ba", "3": "bb"}
PRIMED_IMAGE = {"0": "AA", "1": "AB", "2": "BA", "3": "BB"}
UNPRIME = {"A": "a", "B": "b"}

_NOT_BODY = str.maketrans("", "", "ab$")  # deletes what a body may hold
_NOT_QUERY = str.maketrans("", "", "0123")  # deletes what a query may hold
_QUERY_IMAGE = str.maketrans(BLOCK_IMAGE)


@dataclass(frozen=True)
class LanguageOracle:
    """A named alphabet plus a total membership predicate.

    `viable_prefix` and `stepper` are optional; see the module docstring.
    """

    name: str
    alphabet: tuple[str, ...]
    membership: Callable[[str], bool]
    viable_prefix: Callable[[str], bool] | None = None
    stepper: Callable[[str], Any] | None = None


def pair_expand(word: str) -> str | None:
    """Image under the block homomorphism 0↦aa, 1↦ab, 2↦ba, 3↦bb."""
    try:
        return "".join(BLOCK_IMAGE[c] for c in word)
    except KeyError:
        return None


def pair_encode(word: str) -> str | None:
    """Preimage under the block homomorphism, for even words over {a, b}."""
    if len(word) % 2 or any(c not in "ab" for c in word):
        return None
    rev = {v: k for k, v in BLOCK_IMAGE.items()}
    return "".join(rev[word[i : i + 2]] for i in range(0, len(word), 2))


def unprime(word: str) -> str | None:
    """Image of a primed word under A↦a, B↦b."""
    try:
        return "".join(UNPRIME[c] for c in word)
    except KeyError:
        return None


def prime_expand(word: str) -> str:
    """Image under 0↦AA, 1↦AB, 2↦BA, 3↦BB and identity on other symbols."""
    return "".join(PRIMED_IMAGE.get(c, c) for c in word)


# -- unary languages ----------------------------------------------------------


def oracle_expo() -> LanguageOracle:
    def member(w: str) -> bool:
        n = len(w)
        return n >= 1 and n & (n - 1) == 0 and set(w) <= {"a"}

    return LanguageOracle("expo", ("a",), member, viable_prefix=lambda w: True)


def _fib_upto(limit: int) -> frozenset:
    fibs = []
    x, y = 1, 1
    while x <= limit:
        fibs.append(x)
        x, y = y, x + y
    return frozenset(fibs)


_FIBS = _fib_upto(sys.maxsize)  # no word is longer than sys.maxsize


def oracle_fib() -> LanguageOracle:
    def member(w: str) -> bool:
        n = len(w)
        # the set lookup is O(1); set(w) scans the word, so it goes last
        return n % 2 == 0 and n > 0 and n // 2 in _FIBS and set(w) <= {"a"}

    return LanguageOracle("fib", ("a",), member, viable_prefix=lambda w: True)


def _cube_root(n: int) -> int:
    """The integer cube root: the largest k with k³ ≤ n, for 0 ≤ n.

    The float estimate is off by at most one below 2⁶³, and the two loops
    correct it in exact integers.
    """
    k = int(n ** (1 / 3))
    while k * k * k > n:
        k -= 1
    while (k + 1) * (k + 1) * (k + 1) <= n:
        k += 1
    return k


def oracle_cub() -> LanguageOracle:
    def member(w: str) -> bool:
        n = len(w)
        k = _cube_root(n)
        # the cube test is O(1); set(w) scans the word, so it goes last
        return k * k * k == n and set(w) <= {"a"}

    return LanguageOracle("cub", ("a",), member, viable_prefix=lambda w: True)


# -- dictionary languages with counted padding --------------------------------


def _parse_padded(body: str):
    """Read x1 $^|x1| x2 $^|x2| ... as far as `body` goes.

    Blocks are non-empty words over {a, b}, each followed by exactly as
    many $ as it has letters, and no block may be a proper prefix of an
    earlier one.  Returns (xs, complete): the blocks whose letters are
    already decided, and whether the body ends exactly after a block's
    padding.  None means no extension can repair the body.
    """
    xs = []
    rest = body
    while rest:
        tail = rest.lstrip("ab")
        k = len(rest) - len(tail)
        if not k:
            return None  # $ where a letter run should start, or one $ too many
        if not tail:
            return xs, False  # still writing letters; the block is not fixed yet
        x = rest[:k]
        for earlier in xs:
            if earlier != x and earlier.startswith(x):
                return None  # a proper prefix of an earlier block
        xs.append(x)
        rest = tail.lstrip("$")
        if len(tail) - len(rest) != k:
            # a body cut off inside the padding can still be completed
            return (xs, False) if not rest and len(tail) < k else None
    return xs, True


def _padded_dictionary_oracle(name: str, alphabet, query, viable=None) -> LanguageOracle:
    """Membership for x1 $^|x1| ... xk $^|xk| ⊳ y languages.

    `query(xs, y)` decides whether y matches the dictionary xs.
    """

    def member(w: str) -> bool:
        body, mark, y = w.partition(MARK)
        if not mark:
            return False
        parsed = _parse_padded(body)
        return parsed is not None and parsed[1] and query(parsed[0], y)

    return LanguageOracle(name, alphabet, member, viable)


def oracle_lp() -> LanguageOracle:
    def viable(w: str) -> bool:
        body, mark, y = w.partition(MARK)
        parsed = _parse_padded(body)
        if parsed is None:
            return False
        return not mark or (parsed[1] and any(x.startswith(y) for x in parsed[0]))

    return _padded_dictionary_oracle("lp", ("a", "b", "$", MARK), lambda xs, y: y in xs, viable)


def oracle_lp_hat() -> LanguageOracle:
    """As `oracle_lp` with a skimmed {a,b,$}* stretch between ¢ and ▷."""

    def member(w: str) -> bool:
        body, _, tail = w.partition(CENT)
        z, mark, y = tail.partition(MARK1)
        if not mark or z.translate(_NOT_BODY):
            return False
        parsed = _parse_padded(body)
        return parsed is not None and parsed[1] and y in parsed[0]

    def viable(w: str) -> bool:
        body, cent, tail = w.partition(CENT)
        parsed = _parse_padded(body)
        if parsed is None:
            return False
        if not cent:
            return True
        xs, complete = parsed
        z, mark, y = tail.partition(MARK1)
        if not complete or not xs or z.translate(_NOT_BODY):
            return False  # a query needs a finished body with a word in it
        return not mark or any(x.startswith(y) for x in xs)

    return LanguageOracle("lp-hat", ("a", "b", "$", CENT, MARK1), member, viable)


def oracle_mi_hat() -> LanguageOracle:
    """Membership for x ¢ v $ v^R ▶ with x over {a,b,$} and v over {a,b}."""

    # v lies before the first $ after ¢, so it holds no $, and a translate
    # that deletes a, b and $ tests that it is over {a, b}
    def member(w: str) -> bool:
        if w[-1:] != MARK2:
            return False
        x, cent, tail = w[:-1].partition(CENT)
        if not cent or x.translate(_NOT_BODY):
            return False
        v, dollar, vr = tail.partition("$")
        return bool(dollar) and not v.translate(_NOT_BODY) and vr == v[::-1]

    def viable(w: str) -> bool:
        x, cent, tail = w.partition(CENT)
        if x.translate(_NOT_BODY):
            return False
        if not cent:
            return True
        v, dollar, vr = tail.partition("$")
        if v.translate(_NOT_BODY):
            return False
        if not dollar:
            return True  # still reading v
        if vr[-1:] == MARK2:  # nothing may follow the closing marker
            return vr[:-1] == v[::-1]
        return v[::-1].startswith(vr)

    return LanguageOracle("mi-hat", ("a", "b", "$", CENT, MARK2), member, viable)


# -- separator-style dictionary language and the primed/block variants --------


def oracle_lh() -> LanguageOracle:
    """Membership for x1 $ x2 $ ... $ xk ⊳ y with reversed block images.

    The xi here are $-separated (possibly empty) words over {a, b}; the
    query y is a word over the block symbols, and membership requires some
    xj with xj reversed equal to the image of y.
    """

    def member(w: str) -> bool:
        if w.count(MARK) != 1:
            return False
        body, _, y = w.partition(MARK)
        if any(c not in "ab$" for c in body):
            return False
        image = pair_expand(y)
        if image is None:
            return False
        xs = body.split("$") if body else [""]
        return any(x[::-1] == image for x in xs)

    return LanguageOracle(
        "lh", ("a", "b", "$", MARK, "0", "1", "2", "3"), member, stepper=_LhStepper
    )


class _LhStepper:
    """The `lh` oracle's stepper: `member()` is `lh` membership of the word
    it was built from plus the symbols pushed since.

    It keeps the set of reversed closed blocks, the open block reversed
    (None once ⊳ is read), the image of the query so far, and a count of
    symbols no extension can repair: a symbol outside {a, b, $} before ⊳,
    or outside the block symbols after it (a second ⊳ among them).  The
    word is parsed once with `str` methods.  Each push keeps an undo
    record of those fields and of the block it added to the set, if any,
    so a pop restores them exactly and revives after a bad symbol.
    """

    __slots__ = ("_blocks", "_open", "_image", "_bad", "_undo")

    def __init__(self, word: str):
        body, mark, y = word.partition(MARK)
        self._bad = len(body.translate(_NOT_BODY))
        rbody = body[::-1]  # its blocks, each reversed, last first
        if mark:
            self._blocks = set(rbody.split("$"))
            self._open = None
            self._image = y.translate(_QUERY_IMAGE)
            self._bad += len(y.translate(_NOT_QUERY))
        else:
            self._open, sep, rest = rbody.partition("$")
            self._blocks = set(rest.split("$")) if sep else set()
            self._image = ""
        self._undo: list = []

    def push(self, sym: str) -> None:
        ropen, image, bad = self._open, self._image, self._bad
        added = None
        if ropen is None:  # reading the query
            piece = BLOCK_IMAGE.get(sym)
            if piece is None:
                self._bad = bad + 1
            else:
                self._image = image + piece
        elif sym == "$" or sym == MARK:
            if ropen not in self._blocks:
                self._blocks.add(ropen)
                added = ropen
            self._open = "" if sym == "$" else None
        elif sym == "a" or sym == "b":
            self._open = sym + ropen
        else:
            self._bad = bad + 1
        self._undo.append((ropen, image, bad, added))

    def pop(self) -> None:
        self._open, self._image, self._bad, added = self._undo.pop()
        if added is not None:
            self._blocks.remove(added)

    def member(self) -> bool:
        return not self._bad and self._open is None and self._image in self._blocks


def oracle_lh_tilde() -> LanguageOracle:
    """Counted-padding dictionary where y's block image must match an xi."""
    return _padded_dictionary_oracle(
        "lh-tilde", ("a", "b", "$", MARK, "0", "1", "2", "3"),
        lambda xs, y: pair_expand(y) in xs,
    )


def oracle_lp_tilde() -> LanguageOracle:
    """Counted-padding dictionary where y is primed and unprimed to match."""
    return _padded_dictionary_oracle(
        "lp-tilde", ("a", "b", "$", MARK, "A", "B"), lambda xs, y: unprime(y) in xs
    )


def oracle_union_witness() -> LanguageOracle:
    """Union of the skimmed dictionary and palindrome languages."""
    lp_hat = oracle_lp_hat()
    mi_hat = oracle_mi_hat()

    def member(w: str) -> bool:
        return lp_hat.membership(w) or mi_hat.membership(w)

    def viable(w: str) -> bool:
        return lp_hat.viable_prefix(w) or mi_hat.viable_prefix(w)

    return LanguageOracle(
        "union-witness", ("a", "b", "$", CENT, MARK1, MARK2), member, viable
    )


def lh_class_sample(ell: int) -> list[str]:
    """One probe word per subset of the length-2ℓ words over {a, b}.

    The word for subset {v1, ..., vk} is $v1$v2...$vk⊳ with the vi in
    sorted order; extending it with encoded queries separates any two
    distinct subsets, so the family realizes 2^(2^(2ℓ)) equivalence
    classes.
    """
    letters = ["a", "b"]
    words = [""]
    for _ in range(2 * ell):
        words = [w + c for w in words for c in letters]
    samples = []
    for mask in range(1 << len(words)):
        chosen = [w for i, w in enumerate(words) if mask >> i & 1]
        samples.append("".join("$" + v for v in chosen) + MARK)
    return samples


ORACLES: dict[str, Callable[[], LanguageOracle]] = {
    "expo": oracle_expo,
    "fib": oracle_fib,
    "cub": oracle_cub,
    "lh": oracle_lh,
    "lp": oracle_lp,
    "lp-hat": oracle_lp_hat,
    "mi-hat": oracle_mi_hat,
    "lh-tilde": oracle_lh_tilde,
    "lp-tilde": oracle_lp_tilde,
    "union-witness": oracle_union_witness,
}
