"""Complement, regular intersection, left quotient."""
import dataclasses
from pathlib import Path

import pytest

from twsda.analysis import cross_check, enumerate_accepted, machines_agree
from twsda.builders import build_expo, build_fib, build_mi_hat, build_trie_p
from twsda.combinators import (
    AlphabetMismatch,
    Dfa,
    NotRealTime,
    PrefixKillsMachine,
    complement,
    dfa_run,
    intersect_regular,
    left_quotient,
)
from twsda.machine import END, TransitionRow, machine_from_rows, validate
from twsda.machinefile import export_machine, parse_machine
from twsda.simulate import Configuration, Verdict, final_tree, run
from twsda.tree import ROOT_LABEL, STAY, UP


def even_dfa():
    return Dfa(("e", "o"), ("a",), {("e", "a"): "o", ("o", "a"): "e"}, "e", frozenset({"e"}))


def odd_dfa():
    return Dfa(("e", "o"), ("a",), {("e", "a"): "o", ("o", "a"): "e"}, "e", frozenset({"o"}))


def empty_dfa():
    return Dfa(("d",), ("a",), {("d", "a"): "d"}, "d", frozenset())


def test_dfa_run_even():
    d = even_dfa()
    assert dfa_run(d, "")
    assert not dfa_run(d, "a")
    assert dfa_run(d, "aa")


def test_dfa_must_be_total():
    with pytest.raises(ValueError):
        Dfa(("e",), ("a",), {}, "e", frozenset())


def test_dfa_refuses_states_outside_its_states():
    table = {("p", "a"): "p"}
    with pytest.raises(ValueError, match="outside"):
        Dfa(("p",), ("a",), {("p", "a"): "zz"}, "p", frozenset())
    with pytest.raises(ValueError, match="outside"):
        Dfa(("p",), ("a",), table, "zz", frozenset())
    with pytest.raises(ValueError, match="outside"):
        Dfa(("p",), ("a",), table, "p", frozenset({"zz"}))
    assert dfa_run(Dfa(("p",), ("a",), table, "p", frozenset({"p"})), "aa")


def test_complement_flips_membership():
    m = build_expo()
    c = complement(m)
    assert not run(c, "a" * 8).accepted
    assert run(c, "a" * 9).accepted
    for n in range(64):
        assert run(m, "a" * n).accepted != run(c, "a" * n).accepted


def test_complement_preserves_flags_and_validates():
    m = build_fib()
    c = complement(m)
    assert c.real_time and c.non_erasing == m.non_erasing
    assert validate(c) == []


def test_double_complement_restores_language():
    m = build_fib()
    cc = complement(complement(m))
    assert machines_agree(m, cc, 100) == []


def test_complement_on_larger_alphabet():
    # the complement differs from the original on every single word
    m = build_trie_p()
    c = complement(m)
    assert len(machines_agree(m, c, 3)) == 1 + 4 + 16 + 64


def test_complement_accepts_where_the_machine_aborts():
    # the machine's only rule walks off the root, so every nonempty word
    # aborts the run, which rejects: the complement must accept them
    broken = Path(__file__).parent / "broken" / "pointer-violation.twm"
    m = parse_machine(broken.read_text(encoding="utf-8"))
    c = complement(m)
    for word in ("a", "aa"):
        assert run(m, word).verdict is Verdict.WELL_FORMEDNESS_VIOLATION
        assert run(c, word).accepted
    assert len(machines_agree(m, c, 3)) == 4
    # an END rule that enters an accepting state but walks off the root
    # aborts as well: no word is accepted, so the complement accepts all
    rows = [
        TransitionRow("q", "a", "-", "*", "*", ROOT_LABEL, "q", STAY),
        TransitionRow("q", END, "-", "*", "*", ROOT_LABEL, "acc", UP),
    ]
    m = machine_from_rows("up-at-end", "a", (), "q", ["acc"], rows, True, True)
    c = complement(m)
    for word in ("", "a", "aa"):
        assert run(m, word).verdict is Verdict.WELL_FORMEDNESS_VIOLATION
        config = Configuration(m)
        for sym in word:
            config.push(sym)
        assert not config.accepts_now()
        assert run(c, word).accepted
    assert enumerate_accepted(m, 3) == []
    assert enumerate_accepted(c, 3) == ["", "a", "aa", "aaa"]


def test_complement_requires_real_time():
    m = dataclasses.replace(build_expo(), real_time=False)
    with pytest.raises(NotRealTime):
        complement(m)


def test_intersect_expo_with_odd_lengths():
    inter = intersect_regular(build_expo(), odd_dfa())
    assert validate(inter) == []
    accepted = [n for n in range(300) if run(inter, "a" * n).accepted]
    assert accepted == [1]


def test_intersect_fib_with_even_lengths_changes_nothing():
    m = build_fib()
    inter = intersect_regular(m, even_dfa())
    assert machines_agree(m, inter, 120) == []


def test_intersect_with_empty_language():
    inter = intersect_regular(build_fib(), empty_dfa())
    assert all(not run(inter, "a" * n).accepted for n in range(50))


def test_intersect_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        intersect_regular(build_trie_p(), even_dfa())


def test_intersect_preserves_flags():
    inter = intersect_regular(build_mi_hat(), Dfa(
        ("s",), ("a", "b", "$", "¢", "▶"),
        {("s", x): "s" for x in ("a", "b", "$", "¢", "▶")}, "s", frozenset({"s"})
    ))
    assert inter.real_time and not inter.non_erasing
    assert run(inter, "¢ab$ba▶").accepted


def test_left_quotient_shifts_the_language():
    q = left_quotient(build_expo(), "a")
    got = [n for n in range(40) if run(q, "a" * n).accepted]
    assert got == [0, 1, 3, 7, 15, 31]
    assert not run(q, "aa").accepted


def test_left_quotient_by_lambda_is_identity():
    m = build_expo()
    q = left_quotient(m, "")
    assert machines_agree(m, q, 12) == []


def test_left_quotient_matches_shifted_predicate():
    m = build_fib()
    for k in range(4):
        q = left_quotient(m, "a" * k)
        for n in range(0, 80):
            assert run(q, "a" * n).accepted == run(m, "a" * (n + k)).accepted


def test_left_quotient_mi_hat_after_separator():
    q = left_quotient(build_mi_hat(), "¢")
    assert run(q, "ab$ba▶").accepted
    assert run(q, "$▶").accepted
    assert not run(q, "ab$ab▶").accepted


def test_quotient_storage_keeps_no_freed_id():
    """The prefix run pops 900 of 1 000 spine nodes and frees their ids; the
    quotient starts on the same storage renumbered without them."""
    machine = build_mi_hat()
    v = "ab" * 500
    prefix = "ab$¢" + v + "$" + v[::-1][:900]
    quotient = left_quotient(machine, prefix)
    tree = quotient.initial_tree
    assert tree.free == [] and len(tree.labels) == tree.size == 101
    assert tree.snapshot() == final_tree(machine, prefix).snapshot()
    assert quotient.initial_pointer == "l" * 100
    rest = v[::-1][900:]
    assert run(quotient, rest + "▶").accepted
    for w in ("", rest, rest + "▶", rest[:-1] + "▶", rest + "a▶", "a" + rest[1:] + "▶"):
        assert run(quotient, w).accepted is run(machine, prefix + w).accepted, w


def test_left_quotient_names_the_machine_after_its_prefix():
    assert left_quotient(build_expo(), "aaa").name == "expo-after-aaa"
    assert left_quotient(build_expo(), ["a", "a", "a"]).name == "expo-after-a|a|a"
    assert left_quotient(build_mi_hat(), "¢ab").name == "mi-hat-after-¢ab"
    assert left_quotient(build_mi_hat(), ("¢", "a")).name == "mi-hat-after-¢|a"
    assert left_quotient(build_expo(), "").name == left_quotient(build_expo(), []).name
    assert left_quotient(build_expo(), []).name == "expo-after-λ"


def test_left_quotient_dead_prefix_raises():
    with pytest.raises(PrefixKillsMachine):
        left_quotient(build_trie_p(), "$")


def test_left_quotient_aborting_prefix_raises():
    rows = [TransitionRow("q", "a", "-", "-", "-", ROOT_LABEL, "q", ("up",))]
    m = machine_from_rows("bad", ("a",), ("x",), "q", [], rows,
                          real_time=True, non_erasing=True)
    with pytest.raises(PrefixKillsMachine):
        left_quotient(m, "a")


def test_quotient_machine_round_trips_through_files():
    q = left_quotient(build_mi_hat(), "¢ab")
    text = export_machine(q)
    again = parse_machine(text, name="quotient")
    assert machines_agree(q, again, 6) == []
    assert export_machine(again) == text


def test_quotient_then_cross_check_against_shifted_oracle():
    from twsda.oracles import LanguageOracle, ORACLES

    base = ORACLES["expo"]()
    shifted = LanguageOracle("expo-after-a", ("a",), lambda w: base.membership("a" + w))
    assert cross_check(left_quotient(build_expo(), "a"), shifted, 200) == []
