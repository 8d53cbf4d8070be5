"""Command-line behavior: output text, exit codes, determinism."""
from pathlib import Path

import pytest

from test_analysis import spelling_machine
from twsda.builders import BUILTINS, build_fib, build_mi_hat
from twsda.cli import main
from twsda.combinators import left_quotient
from twsda.machinefile import export_machine
from twsda.simulate import final_tree

BROKEN = Path(__file__).parent / "broken"
SHIPPED = Path(__file__).parent.parent / "machines"


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_accept(capsys):
    code, out, _ = cli(capsys, "run", "builtin:expo", "aaaaaaaa")
    assert code == 0 and out == "ACCEPT steps=9\n"


def test_run_reject(capsys):
    code, out, _ = cli(capsys, "run", "builtin:expo", "aaaaaaaaa")
    assert code == 1 and out == "REJECT steps=9\n"  # halts in the first gap state


def test_run_empty_word(capsys):
    code, out, _ = cli(capsys, "run", "builtin:cub", "λ")
    assert code == 0 and out.startswith("ACCEPT")


def test_run_unknown_builtin(capsys):
    code, _, err = cli(capsys, "run", "builtin:nope", "a")
    assert code == 2 and "unknown builtin" in err


def test_trace_format_and_determinism(capsys):
    code, out, _ = cli(capsys, "trace", "builtin:expo", "--word", "aa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step=0 state=init0 in=a act=stay ptr=λ nodes=1"
    assert lines[1] == "step=1 state=init1 in=a act=stay ptr=λ nodes=1"
    assert lines[2] == "step=2 state=init2 in=END act=stay ptr=λ nodes=1"
    assert lines[3] == "ACCEPT steps=3"
    again = cli(capsys, "trace", "builtin:expo", "--word", "aa")
    assert again[1] == out


def test_trace_snapshots(tmp_path, capsys):
    _, out, _ = cli(capsys, "trace", "builtin:fib", "--word", "a" * 12, "--snapshots")
    lines = out.splitlines()
    assert lines[10].endswith("(⊥ (• . .) .)")  # first push of the level-2 phase
    assert "act=push(•,l)" in lines[10]
    # A machine that starts mid-phase on a stored tree, cut by its budget:
    # after step i the storage is the run's tree after i+1 steps.
    machine = left_quotient(build_fib(), "a" * 20)
    path = tmp_path / "fib-after.twm"
    path.write_text(export_machine(machine), encoding="utf-8")
    word = "a" * 18
    code, out, _ = cli(
        capsys, "trace", str(path), "--word", word, "--max-steps", "12", "--snapshots"
    )
    lines = out.splitlines()
    assert code == 2 and lines[-1] == "BUDGET-EXHAUSTED steps=12"
    snapshots = [line.split(" ", 6)[6] for line in lines[:-1]]
    assert len(snapshots) == 12 and len(set(snapshots)) > 1
    for i, snapshot in enumerate(snapshots):
        assert snapshot == final_tree(machine, word, budget=i + 1).snapshot(), i
    # Pops, on a built-in; λ steps, on a machine file, accepted and cut off.
    spell = spelling_machine(lam=True)
    path = tmp_path / "spell.twm"
    path.write_text(export_machine(spell), encoding="utf-8")
    cases = [
        ("builtin:mi-hat", build_mi_hat(), "ab¢ab$ba▶", "12", "act=pop", "ACCEPT steps=10"),
        (str(path), spell, "abca", "12", "in=λ", "ACCEPT steps=9"),
        (str(path), spell, "abca", "6", "in=λ", "BUDGET-EXHAUSTED steps=6"),
    ]
    for locator, machine, word, budget, step, last in cases:
        _, out, _ = cli(
            capsys, "trace", locator, "--word", word, "--max-steps", budget, "--snapshots"
        )
        lines = out.splitlines()
        assert lines[-1] == last and any(f" {step} " in line for line in lines)
        for i, line in enumerate(lines[:-1]):
            snapshot = line.split(" ", 6)[6]
            assert snapshot == final_tree(machine, word, budget=i + 1).snapshot(), (word, i)


def test_enum_lists_words_in_order(capsys):
    code, out, _ = cli(capsys, "enum", "builtin:expo", "--max-len", "20")
    assert code == 0
    assert out.splitlines() == ["a", "aa", "aaaa", "a" * 8, "a" * 16]


def test_enum_includes_lambda(capsys):
    _, out, _ = cli(capsys, "enum", "builtin:cub", "--max-len", "8")
    assert out.splitlines() == ["λ", "a", "a" * 8]


def test_check_ok(capsys):
    code, out, _ = cli(capsys, "check", "builtin:fib", "--oracle", "fib", "--max-len", "200")
    assert code == 0 and out == "OK\n"


def test_check_mismatch(capsys):
    code, out, _ = cli(capsys, "check", "builtin:expo", "--oracle", "fib", "--max-len", "8")
    assert code == 1
    assert out.splitlines()[0] == "MISMATCH word=a machine=ACCEPT oracle=REJECT"


def test_check_unknown_oracle(capsys):
    code, _, err = cli(capsys, "check", "builtin:expo", "--oracle", "nope", "--max-len", "3")
    assert code == 2 and "unknown oracle" in err


def test_validate_shipped(capsys):
    code, out, _ = cli(capsys, "validate", str(SHIPPED / "trie-p.twm"))
    assert code == 0 and out == "OK\n"


def test_validate_broken(capsys):
    code, out, _ = cli(capsys, "validate", str(BROKEN / "pop-in-nonerasing.twm"))
    assert code == 1 and "non-erasing-violation" in out


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_validate_builtin(capsys, name):
    code, out, _ = cli(capsys, "validate", f"builtin:{name}")
    assert code == 0 and out == "OK\n"


def test_validate_missing_file(capsys):
    code, _, err = cli(capsys, "validate", "no-such-file.twm")
    assert code == 2


def test_bound(capsys):
    code, out, _ = cli(capsys, "bound", "--states", "4", "--tree-symbols", "1", "--ell", "1")
    assert code == 0 and out == f"{2**28}\n"


def test_classes(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("λ\na\naa\naaa\naaaa\n", encoding="utf-8")
    code, out, _ = cli(
        capsys, "classes", "--oracle", "expo", "--sample", str(sample), "--ell", "1"
    )
    assert code == 0
    lines = out.splitlines()
    # signatures over {λ, a}: λ and aaa agree (out, next in), aa and aaaa agree
    assert lines[0] == "classes=3"
    assert lines[1:] == ["λ aaa", "a", "aa aaaa"]


def test_classes_custom_extensions(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("b0\n$ a a b0\n", encoding="utf-8")
    code, out, _ = cli(
        capsys, "classes", "--oracle", "lh", "--sample", str(sample),
        "--ell", "1", "--extensions", "alpha0 alpha1 alpha2 alpha3",
    )
    assert code == 0 and out.splitlines()[0] == "classes=2"


def test_classes_refuses_negative_ell(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text("a\naa\n", encoding="utf-8")
    code, out, err = cli(
        capsys, "classes", "--oracle", "expo", "--sample", str(sample), "--ell", "-1"
    )
    assert code == 2 and out == "" and "ell must be >= 0" in err


def test_enum_refuses_negative_max_len(capsys):
    code, out, err = cli(capsys, "enum", "builtin:expo", "--max-len", "-2")
    assert code == 2 and out == "" and "max_len must be >= 0" in err


# Accepts every word of a's, with a λ hop after each symbol.
SLOW = """
alphabet: a
tree-symbols: x
start: q
accept: done
realtime: false
nonerasing: true
trans q a (-,-,-) ROOT -> p stay
trans p lambda (-,-,-) ROOT -> q stay
trans q END (-,-,-) ROOT -> done stay
"""


def test_max_steps_required_for_non_real_time(tmp_path, capsys):
    slow = tmp_path / "slow.twm"
    slow.write_text(SLOW, encoding="utf-8")
    code, _, err = cli(capsys, "run", str(slow), "a")
    assert code == 2 and "--max-steps" in err
    code, out, _ = cli(capsys, "run", str(slow), "a", "--max-steps", "10")
    assert code == 0 and out == "ACCEPT steps=3\n"
    code, out, _ = cli(capsys, "run", str(slow), "aa", "--max-steps", "3")
    assert code == 2 and out.startswith("BUDGET-EXHAUSTED")


def test_enum_and_check_with_max_steps(tmp_path, capsys):
    slow = tmp_path / "slow.twm"
    slow.write_text(SLOW, encoding="utf-8")
    for command in (["enum"], ["check", "--oracle", "expo"]):
        code, _, err = cli(capsys, *command, str(slow), "--max-len", "4")
        assert code == 2 and "--max-steps" in err
    code, out, _ = cli(capsys, "enum", str(slow), "--max-len", "4", "--max-steps", "9")
    assert code == 0 and out == "λ\na\naa\naaa\naaaa\n"
    # a^2 needs five steps, so a budget of four cuts every longer word off
    code, out, _ = cli(capsys, "enum", str(slow), "--max-len", "4", "--max-steps", "4")
    assert code == 0 and out == "λ\na\n"
    code, out, _ = cli(
        capsys, "check", str(slow), "--oracle", "expo", "--max-len", "4", "--max-steps", "9"
    )
    assert code == 1 and out == (
        "MISMATCH word=λ machine=ACCEPT oracle=REJECT\n"
        "MISMATCH word=aaa machine=ACCEPT oracle=REJECT\n"
    )


def test_max_steps_bounds_real_time_enum_and_check(capsys):
    code, out, _ = cli(capsys, "run", "builtin:expo", "aaaa", "--max-steps", "3")
    assert code == 2 and out.startswith("BUDGET-EXHAUSTED")
    # a word of length n takes n+1 steps, so three steps cut off aaaa
    code, out, _ = cli(capsys, "enum", "builtin:expo", "--max-len", "9", "--max-steps", "3")
    assert code == 0 and out == "a\naa\n"
    code, out, _ = cli(
        capsys, "check", "builtin:expo", "--oracle", "expo", "--max-len", "9", "--max-steps", "3"
    )
    assert code == 1 and out == (
        "MISMATCH word=aaaa machine=REJECT oracle=ACCEPT\n"
        "MISMATCH word=aaaaaaaa machine=REJECT oracle=ACCEPT\n"
    )
    for command in (["run", "builtin:expo", "a"], ["enum", "builtin:expo", "--max-len", "3"]):
        code, _, err = cli(capsys, *command, "--max-steps", "0")
        assert code == 2 and "budget must be a positive number" in err


def test_spaced_word_arguments(capsys):
    code, out, _ = cli(capsys, "run", "builtin:trie-p", "a b $ $ b $ b0 a b")
    assert code == 0  # same word as ab$$b$⊳ab
    code, out, _ = cli(capsys, "run", "builtin:trie-p", "a b $ b $ b0 b")
    assert code == 1  # one $ short


def test_run_word_with_unicode_symbols(capsys):
    code, out, _ = cli(capsys, "run", "builtin:mi-hat", "¢ab$ba▶")
    assert code == 0 and out == "ACCEPT steps=8\n"


def test_check_machine_from_file(capsys):
    code, out, _ = cli(
        capsys, "check", str(SHIPPED / "cub.twm"), "--oracle", "cub", "--max-len", "600"
    )
    assert code == 0 and out == "OK\n"


def test_trace_budget_exhausted_has_budget_many_lines(capsys):
    code, out, _ = cli(
        capsys, "trace", "builtin:expo", "--word", "a" * 30, "--max-steps", "5"
    )
    lines = out.splitlines()
    assert code == 2 and lines[-1] == "BUDGET-EXHAUSTED steps=5"
    assert len(lines) == 6  # five step records plus the outcome line
