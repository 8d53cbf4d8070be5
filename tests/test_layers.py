"""Layering: only `machine` and `simulate` know the compiled step program,
and only they and `tree` read the storage tree's node lists."""
import ast
from pathlib import Path

import twsda

PACKAGE = Path(twsda.__file__).resolve().parent
STEPPERS = {"machine.py", "simulate.py"}  # the compiler, and the one module that steps
STORE_READERS = STEPPERS | {"tree.py"}
STORE_LISTS = ("labels", "parents", "lefts", "rights", "shapes", "free")


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


def store_list_reads(tree: ast.AST) -> list[str]:
    """Every attribute read of one of `GammaTree`'s node lists, with its
    line number."""
    found = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STORE_LISTS
    ]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_only_the_tree_and_the_stepper_modules_read_the_node_lists():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= STORE_READERS | {"analysis.py", "combinators.py"}
    offenders = {
        path.name: names
        for path in modules
        if path.name not in STORE_READERS
        and (names := store_list_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_the_store_guard_sees_every_list():
    source = (
        "x = tree.labels[n]\ny = config.tree.parents\nz = (t.lefts, t.rights)\n"
        "t.shapes[n] += 2\nt.free.pop()\nlabels = children(n)\n"
    )
    assert store_list_reads(ast.parse(source)) == [
        "labels (line 1)", "parents (line 2)", "lefts (line 3)", "rights (line 3)",
        "shapes (line 4)", "free (line 5)",
    ]
