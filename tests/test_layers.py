"""Layering: only `machine` and `simulate` know the compiled step program."""
import ast
from pathlib import Path

import twsda

PACKAGE = Path(twsda.__file__).resolve().parent
STEPPERS = {"machine.py", "simulate.py"}  # the compiler, and the one module that steps


def step_program_names(tree: ast.AST) -> list[str]:
    """The opcodes, `_ABORT`, `_CLASH` and `_MARK` imported or read as an
    attribute, and every read of `._program`, with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name.startswith("_OP_") or name in ("_ABORT", "_CLASH", "_MARK", "_program"):
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_only_the_stepper_modules_read_the_step_program():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= STEPPERS | {"analysis.py", "combinators.py"}
    offenders = {
        path.name: names
        for path in modules
        if path.name not in STEPPERS
        and (names := step_program_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_the_guard_sees_imports_and_attribute_reads():
    source = "from .machine import END, _OP_PUSH, _CLASH\nx = machine._program\nfrom .simulate import _MARK\n"
    assert step_program_names(ast.parse(source)) == [
        "_CLASH (line 1)", "_OP_PUSH (line 1)", "_program (line 2)", "_MARK (line 3)",
    ]
