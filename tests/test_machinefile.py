"""Machine file parsing, diagnostics, round-trips, broken corpus."""
from pathlib import Path

import pytest

from twsda.analysis import machines_agree
from twsda.builders import BUILTINS
from twsda.machine import LAMBDA, TransitionKey, validate
from twsda.machinefile import (
    MachineFileError,
    export_machine,
    format_word,
    parse_machine,
    parse_word,
)
from twsda.simulate import Verdict, run
from twsda.tree import ROOT_LABEL

BROKEN = Path(__file__).parent / "broken"
SHIPPED = Path(__file__).parent.parent / "machines"

MINIMAL = """
alphabet: a
tree-symbols: x
start: q0
accept: done
realtime: true
nonerasing: true
trans q0 a (-,-,-) ROOT -> q1 push x l
trans q1 a (l,-,-) x -> q0 up
trans q0 END (-,*,*) ROOT -> done stay
"""


def test_parse_minimal_machine():
    m = parse_machine(MINIMAL)
    assert m.start == "q0" and m.accepting == {"done"}
    assert m.real_time and m.non_erasing
    assert run(m, "aa").accepted and not run(m, "a").accepted


def test_wildcard_expansion_counts():
    text = """
alphabet: a
tree-symbols: dot
start: walk
accept: walk
realtime: false
nonerasing: true
trans walk lambda (*,+,*) * -> walk down-l
"""
    m = parse_machine(text)
    keys = [k for k in m.transitions if k.symbol == LAMBDA]
    # consistent keys with has_left fixed to '+': root pairs only with the
    # root label (2 choices of has_right), child nodes only with 'dot'
    assert len(keys) == 2 + 2 * 2
    assert TransitionKey("walk", LAMBDA, "-", "+", "-", ROOT_LABEL) in m.transitions
    assert TransitionKey("walk", LAMBDA, "l", "+", "+", "•") in m.transitions


def test_comments_and_blank_lines_ignored():
    m = parse_machine("# header\n" + MINIMAL + "\n# trailing\n\n")
    assert run(m, "aa").accepted


def test_duplicate_directive_rejected():
    with pytest.raises(MachineFileError) as err:
        parse_machine(MINIMAL + "\nstart: other\n")
    assert any(d.kind == "syntax" and "duplicate" in d.message for d in err.value.diagnostics)


def test_missing_directive_rejected():
    with pytest.raises(MachineFileError) as err:
        parse_machine("alphabet: a\ntree-symbols: x\nstart: q\n")
    missing = {d.message for d in err.value.diagnostics}
    assert any("accept" in m for m in missing)


def test_bad_transition_line_number():
    bad_line = "trans q0 a broken ROOT -> q0 stay"
    bad = MINIMAL + bad_line + "\n"
    with pytest.raises(MachineFileError) as err:
        parse_machine(bad)
    diag = err.value.diagnostics[0]
    assert diag.kind == "syntax"
    assert diag.line == bad.splitlines().index(bad_line) + 1


def test_lambda_symbol_conflict_detected_in_file():
    text = """
alphabet: a
tree-symbols: x
start: q
accept: q
realtime: false
nonerasing: true
trans q lambda (-,-,-) ROOT -> q stay
trans q a (-,-,-) ROOT -> q stay
"""
    with pytest.raises(MachineFileError) as err:
        parse_machine(text)
    assert [d.kind for d in err.value.diagnostics] == ["determinism-conflict"]


@pytest.mark.parametrize(
    "filename, kind",
    [
        ("determinism-conflict.twm", "determinism-conflict"),
        ("pop-in-nonerasing.twm", "non-erasing-violation"),
        ("lambda-in-realtime.twm", "real-time-violation"),
        ("unknown-state.twm", "unknown-state"),
        ("specificity-clash.twm", "specificity-conflict"),
        ("unknown-symbol.twm", "unknown-symbol"),
        ("inconsistent-shape.twm", "inconsistent-shape"),
    ],
)
def test_broken_corpus_designated_diagnostics(filename, kind):
    text = (BROKEN / filename).read_text(encoding="utf-8")
    with pytest.raises(MachineFileError) as err:
        parse_machine(text)
    kinds = {d.kind for d in err.value.diagnostics}
    assert kinds == {kind}


# Every diagnostic of every broken file, and of two files with many faults,
# in the order the parser reports them: (line, kind, message).
PINNED_DIAGNOSTICS = {
    "determinism-conflict.twm": [
        (None, "determinism-conflict", "state 'q' at (-,-,-)/⊥ has both a λ rule and rules on ['a']"),
    ],
    "inconsistent-shape.twm": [
        (8, "inconsistent-shape", "row matches no node: the root is exactly the ROOT-labeled node"),
    ],
    "lambda-in-realtime.twm": [
        (None, "real-time-violation", "λ rule ('q', 'λ', '-', '-', '-', '⊥') in a machine flagged realtime"),
    ],
    "pointer-violation.twm": [],
    "pop-in-nonerasing.twm": [
        (None, "non-erasing-violation", "pop rule ('q', 'a', 'l', '-', '-', 'x') in a machine flagged nonerasing"),
    ],
    "specificity-clash.twm": [
        (9, "specificity-conflict",
         "rows [q a (l,*,-) x -> one stay (line 8)] and [q a (*,-,-) x -> two stay (line 9)] "
         "both match ('q', 'a', 'l', '-', '-', 'x') with equal specificity but different outcomes"),
    ],
    "unknown-state.twm": [
        (5, "unknown-state", "accepting state 'ghost' appears in no transition"),
    ],
    "unknown-symbol.twm": [
        (8, "unknown-symbol", "input symbol 'z' not in alphabet"),
    ],
}

MANY_LINE_FAULTS = """alphabet: a b cent
tree-symbols: x dot
start: q
accept: q ghost
realtime:   true
nonerasing: true
trans q a (-,-,-) ROOT -> q push dot l
trans q z (-,-,-) ROOT -> q stay
trans q b (-,-) ROOT -> q stay
trans q b (l,-,-) w -> q stay
trans q cent (l,-,-) x -> q push w r
trans q cent (l,-,-) x -> q jump
trans q a (-,*,*) x -> q stay
trans q ¢ (r,*,*) ROOT -> p up
trans q b (l,+,+) * -> p
"""

MANY_TABLE_FAULTS = """alphabet: a b
tree-symbols: x
start: q
accept: q
realtime: true
nonerasing: true
trans q lambda (-,-,-) ROOT -> q stay
trans q a (-,-,-) ROOT -> p push x l
trans p a (l,-,-) x -> q pop
trans p lambda (l,-,-) x -> q up
trans q b (-,*,*) ROOT -> q stay
"""

PINNED_MANY = {
    "line faults": (MANY_LINE_FAULTS, [
        (8, "unknown-symbol", "input symbol 'z' not in alphabet"),
        (9, "syntax", "bad node type '(-,-)'"),
        (10, "unknown-symbol", "tree symbol 'w' not declared"),
        (11, "unknown-symbol", "push of undeclared tree symbol 'w'"),
        (12, "syntax", "bad action 'jump'"),
        (15, "syntax",
         "expected: trans <state> <in> (<anc>,<hl>,<hr>) <label> -> <state> <action>"),
        (4, "unknown-state", "accepting state 'ghost' appears in no transition"),
        (13, "inconsistent-shape", "row matches no node: the root is exactly the ROOT-labeled node"),
        (14, "inconsistent-shape", "row matches no node: the root is exactly the ROOT-labeled node"),
    ]),
    "table faults": (MANY_TABLE_FAULTS, [
        (None, "non-erasing-violation", "pop rule ('p', 'a', 'l', '-', '-', 'x') in a machine flagged nonerasing"),
        (None, "real-time-violation", "λ rule ('p', 'λ', 'l', '-', '-', 'x') in a machine flagged realtime"),
        (None, "real-time-violation", "λ rule ('q', 'λ', '-', '-', '-', '⊥') in a machine flagged realtime"),
        (None, "determinism-conflict", "state 'p' at (l,-,-)/x has both a λ rule and rules on ['a']"),
        (None, "determinism-conflict", "state 'q' at (-,-,-)/⊥ has both a λ rule and rules on ['a', 'b']"),
    ]),
}


def diagnostics_of(text: str) -> list[tuple]:
    try:
        parse_machine(text)
    except MachineFileError as err:
        return [(d.line, d.kind, d.message) for d in err.diagnostics]
    return []


def test_broken_corpus_diagnostics_are_pinned():
    assert sorted(path.name for path in BROKEN.glob("*.twm")) == sorted(PINNED_DIAGNOSTICS)
    for filename, pinned in PINNED_DIAGNOSTICS.items():
        assert diagnostics_of((BROKEN / filename).read_text(encoding="utf-8")) == pinned, filename


@pytest.mark.parametrize("case", sorted(PINNED_MANY))
def test_many_faults_are_listed_in_a_pinned_order(case):
    text, pinned = PINNED_MANY[case]
    assert diagnostics_of(text) == pinned


def test_broken_corpus_pointer_violation_at_run_time():
    text = (BROKEN / "pointer-violation.twm").read_text(encoding="utf-8")
    machine = parse_machine(text)  # statically clean
    assert validate(machine) == []
    out = run(machine, "a")
    assert out.verdict is Verdict.WELL_FORMEDNESS_VIOLATION


def test_unknown_symbol_diagnostic_carries_line():
    text = (BROKEN / "unknown-symbol.twm").read_text(encoding="utf-8")
    with pytest.raises(MachineFileError) as err:
        parse_machine(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 8  # the trans line


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_shipped_files_match_builders(name):
    text = (SHIPPED / f"{name}.twm").read_text(encoding="utf-8")
    assert text == export_machine(BUILTINS[name]())


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_shipped_files_parse_and_agree(name):
    machine = BUILTINS[name]()
    parsed = parse_machine((SHIPPED / f"{name}.twm").read_text(encoding="utf-8"), name=name)
    assert validate(parsed) == []
    max_len = 10 if len(machine.input_alphabet) == 1 else 6
    assert machines_agree(machine, parsed, max_len) == []


def test_export_is_idempotent_under_reparse():
    for name, factory in BUILTINS.items():
        text = export_machine(factory())
        assert export_machine(parse_machine(text, name=name)) == text


def test_parse_word_forms():
    assert parse_word("λ") == ""
    assert parse_word("") == ""
    assert parse_word("aab") == "aab"
    assert parse_word("a b $ b0 a") == "ab$⊳a"
    assert parse_word("cent a b2") == "¢a▶"
    assert parse_word("alpha0 alpha3") == "03"
    assert format_word("") == "λ"
    assert format_word("ab$") == "ab$"


def test_reserved_symbol_rejected_in_alphabet():
    text = MINIMAL.replace("alphabet: a", "alphabet: a END")
    with pytest.raises(MachineFileError):
        parse_machine(text)


# -- randomized round-trip ----------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from twsda.machine import machine_from_rows  # noqa: E402
from twsda.tree import DOWN_L, DOWN_R, POP, STAY, UP, push  # noqa: E402

_states = st.sampled_from(["q0", "q1", "loop", "final"])
_symbols = st.sampled_from(["a", "b", "¢", "⊳"])
_actions = st.sampled_from(
    [STAY, UP, DOWN_L, DOWN_R, POP, push("x", "l"), push("y", "r")]
)


@st.composite
def _random_rows(draw):
    from twsda.machine import END, TransitionRow

    n = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for _ in range(n):
        rows.append(
            TransitionRow(
                draw(_states),
                draw(st.one_of(_symbols, st.just(END))),
                draw(st.sampled_from(["-", "l", "r", "*"])),
                draw(st.sampled_from(["-", "+", "*"])),
                draw(st.sampled_from(["-", "+", "*"])),
                draw(st.sampled_from(["x", "y", "*"])),
                draw(_states),
                draw(_actions),
            )
        )
    return rows


@settings(max_examples=60, deadline=None)
@given(_random_rows())
def test_random_machines_round_trip_structurally(rows):
    """Any machine that expands and validates survives export-then-parse."""
    from twsda.machine import SpecificityConflict, validate

    try:
        machine = machine_from_rows(
            "rand", ("a", "b", "¢", "⊳"), ("x", "y"), "q0", ["final"], rows,
            real_time=True, non_erasing=False,
        )
    except SpecificityConflict:
        return
    if validate(machine):
        return
    text = export_machine(machine)
    again = parse_machine(text, name="rand")
    assert again.transitions == machine.transitions
    assert again.start == machine.start
    # accepting states mentioned in no transition are dropped by export
    mentioned = {machine.start}
    for key, (target, _) in machine.transitions.items():
        mentioned.add(key.state)
        mentioned.add(target)
    assert again.accepting == machine.accepting & mentioned
    assert export_machine(again) == text


def test_duplicate_symbol_declaration_rejected():
    text = MINIMAL.replace("alphabet: a", "alphabet: a a")
    with pytest.raises(MachineFileError) as err:
        parse_machine(text)
    assert any("declared twice" in d.message for d in err.value.diagnostics)


def test_multi_token_start_rejected():
    text = MINIMAL.replace("start: q0", "start: q0 q1")
    with pytest.raises(MachineFileError) as err:
        parse_machine(text)
    assert any("exactly one state" in d.message for d in err.value.diagnostics)
