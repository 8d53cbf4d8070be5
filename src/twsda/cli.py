"""Command-line front end.

Machines are given either as a file path or as `builtin:<name>` with name
one of expo, fib, cub, trie-p, trie-p-hat, mi-hat.  Exit codes: 0 for
accept/valid/OK, 1 for reject/invalid/mismatches, 2 for usage or runtime
errors.  All output is deterministic for identical inputs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    class_upper_bound,
    count_classes,
    cross_check,
    enumerate_accepted,
)
from .builders import BUILTINS
from .machine import END, LAMBDA, Machine, validate
from .machinefile import (
    MachineFileError,
    format_word,
    parse_machine,
    parse_word,
)
from .oracles import ORACLES
from .simulate import BudgetRequired, Configuration, RunOutcome, Verdict, run
from .tree import format_action


class CliError(Exception):
    pass


def load_machine(locator: str) -> Machine:
    if locator.startswith("builtin:"):
        name = locator.split(":", 1)[1]
        factory = BUILTINS.get(name)
        if factory is None:
            raise CliError(
                f"unknown builtin {name!r}; choose from {', '.join(sorted(BUILTINS))}"
            )
        return factory()
    path = Path(locator)
    if not path.exists():
        raise CliError(f"no such machine file: {locator}")
    return parse_machine(path.read_text(encoding="utf-8"), name=path.stem)


def load_oracle(name: str):
    factory = ORACLES.get(name)
    if factory is None:
        raise CliError(
            f"unknown oracle {name!r}; choose from {', '.join(sorted(ORACLES))}"
        )
    return factory()


def _verdict_exit(out: RunOutcome, print_to) -> int:
    steps = out.steps_taken
    if out.verdict is Verdict.ACCEPTED:
        print(f"ACCEPT steps={steps}", file=print_to)
        return 0
    if out.verdict is Verdict.REJECTED:
        print(f"REJECT steps={steps}", file=print_to)
        return 1
    if out.verdict is Verdict.BUDGET_EXHAUSTED:
        print(f"BUDGET-EXHAUSTED steps={steps}", file=print_to)
        return 2
    print(f"WELL-FORMEDNESS-VIOLATION steps={steps}", file=print_to)
    return 2


def _symbol_text(symbol: str) -> str:
    if symbol == LAMBDA:
        return "λ"
    if symbol == END:
        return "END"
    return symbol


def cmd_validate(args) -> int:
    path = Path(args.machine)
    if not path.exists():
        raise CliError(f"no such machine file: {args.machine}")
    try:
        machine = parse_machine(path.read_text(encoding="utf-8"), name=path.stem)
    except MachineFileError as exc:
        for diag in exc.diagnostics:
            print(diag)
        return 1
    problems = validate(machine)
    for violation in problems:
        print(violation)
    if problems:
        return 1
    print("OK")
    return 0


def cmd_run(args) -> int:
    machine = load_machine(args.machine)
    word = parse_word(args.word)
    out = run(machine, word, budget=args.max_steps)
    return _verdict_exit(out, sys.stdout)


def cmd_trace(args) -> int:
    machine = load_machine(args.machine)
    word = parse_word(args.word)
    out = run(machine, word, budget=args.max_steps, traced=True)
    # Snapshots replay each recorded action on a fresh copy of the storage.
    storage = Configuration(machine)
    for rec in out.trace:
        line = (
            f"step={rec.step_index} state={rec.state_before} "
            f"in={_symbol_text(rec.consumed)} act={format_action(rec.action)} "
            f"ptr={rec.pointer_after or 'λ'} nodes={rec.node_count_after}"
        )
        if args.snapshots:
            storage.node = storage.tree.apply(storage.node, rec.action)[0]
            line += f" {storage.tree.snapshot()}"
        print(line)
    return _verdict_exit(out, sys.stdout)


def cmd_enum(args) -> int:
    machine = load_machine(args.machine)
    words = enumerate_accepted(
        machine, args.max_len, budget=args.budget, run_budget=args.max_steps
    )
    for word in words:
        print(format_word(word))
    return 0


def cmd_check(args) -> int:
    machine = load_machine(args.machine)
    oracle = load_oracle(args.oracle)
    mismatches = cross_check(
        machine, oracle, args.max_len, budget=args.budget, run_budget=args.max_steps
    )
    for mism in mismatches:
        print(f"MISMATCH {mism}")
    if mismatches:
        return 1
    print("OK")
    return 0


def cmd_classes(args) -> int:
    oracle = load_oracle(args.oracle)
    path = Path(args.sample)
    if not path.exists():
        raise CliError(f"no such sample file: {args.sample}")
    sample = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            sample.append(parse_word(line))
    extensions = (
        [s for s in (parse_word(t) for t in args.extensions.split()) if s]
        if args.extensions
        else list(oracle.alphabet)
    )
    partition = count_classes(oracle, sample, args.ell, extensions)
    print(f"classes={partition.count}")
    for cls in partition.classes:
        print(" ".join(format_word(w) for w in cls))
    return 0


def cmd_bound(args) -> int:
    print(class_upper_bound(args.states, args.tree_symbols, args.ell))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twsda",
        description="Simulate and analyze deterministic tree-walking-storage machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="diagnose a machine file")
    p.add_argument("machine")
    p.set_defaults(func=cmd_validate)

    def machine_args(p):
        p.add_argument("machine", help="path or builtin:<name>")
        p.add_argument("--max-steps", type=int, default=None)

    p = sub.add_parser("run", help="run a machine on one word")
    machine_args(p)
    p.add_argument("word", help="input word; 'λ' for the empty word")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="run and print one line per step")
    machine_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("--snapshots", action="store_true")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("enum", help="list accepted words up to a length")
    machine_args(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on visited prefixes")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("check", help="compare a machine against an oracle")
    machine_args(p)
    p.add_argument("--oracle", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classes", help="partition sample words into equivalence classes")
    p.add_argument("--oracle", required=True)
    p.add_argument("--sample", required=True, help="file with one word per line")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--extensions", default=None, help="extension symbols, space separated")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("bound", help="equivalence-class cap for given machine sizes")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--tree-symbols", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MachineFileError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 2
    except BudgetRequired:
        print("error: --max-steps is required for machines with realtime: false", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
