"""Seeded inputs, set-up, timed jobs and output checks of the four workloads.

Every workload goes through the same three stages:

* `inputs(workload, seed, size)` makes the workload's inputs from the seed
  alone (the benchmark's own work, never timed);
* `setup(workload, data, tracer)` gets the program ready: it parses the six
  machine files, builds the six built-ins and the combinator machines and
  oracles the workload uses (timed as `setup_s`);
* `jobs(workload, data, program)` returns the timed calls of one pass, each
  with an independent check of its output.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import twsda.cli
from twsda.analysis import (
    count_classes,
    cross_check,
    fibonacci,
    is_complete_binary,
    is_fibonacci_tree,
)
from twsda.builders import BUILTINS
from twsda.combinators import complement, left_quotient
from twsda.machinefile import format_word, parse_machine
from twsda.oracles import ORACLES, lh_class_sample
from twsda.simulate import final_tree, run

MACHINE_DIR = Path(__file__).resolve().parent.parent / "machines"

# Word lengths and check depths.  "full" is what the benchmark measures;
# "smoke" only exercises every code path quickly.
SIZES = {
    "full": {
        "run_len": 2000,
        "wide": {"trie-p": 9, "trie-p-hat": 8, "mi-hat": 7},
        "wide_enum": 7,
        "deep": 2500,
        "classes": 1024,
    },
    "smoke": {
        "run_len": 200,
        "wide": {"trie-p": 5, "trie-p-hat": 5, "mi-hat": 5},
        "wide_enum": 5,
        "deep": 150,
        "classes": 64,
    },
}

ORACLE_OF = {
    "expo": "expo",
    "fib": "fib",
    "cub": "cub",
    "trie-p": "lp",
    "trie-p-hat": "lp-hat",
    "mi-hat": "mi-hat",
}
UNARY = ("expo", "fib", "cub")
EXTENSIONS = ("0", "1", "2", "3")
CLASS_CHUNK = 256  # sample words per count_classes call


@dataclass
class Job:
    """One timed call into the program."""

    span: str  # "<module>.<function>", the span and timing name
    req: str  # request id: one per word or per job
    call: Callable[[Any], Any]  # call(tracer or None) -> output
    check: Callable[[Any], str | None]  # output -> error text, or None if right


@dataclass
class Program:
    """Everything set-up made: machines, combinator machines, oracles."""

    parsed: dict = field(default_factory=dict)
    builtins: dict = field(default_factory=dict)
    complements: dict = field(default_factory=dict)
    quotients: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)


def _call(tracer, name, req, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.span(name, req, fn, *args)[0]


# -- inputs --------------------------------------------------------------------


def _nearest_member(name: str, target: int) -> int:
    if name == "expo":
        lengths = [2**k for k in range(1, 40)]
    elif name == "fib":
        lengths = [2 * fibonacci(k) for k in range(3, 60)]
    else:
        lengths = [k**3 for k in range(1, 2000)]
    return min(lengths, key=lambda n: (abs(n - target), n))


def _ab(rng, n, letters="ab"):
    return "".join(rng.choice(letters) for _ in range(n))


def _padded_body(rng, target):
    """x1 $^|x1| ... xk $^|xk| of about `target` symbols, with its xi.

    A later word is never a proper prefix of an earlier one.
    """
    xs, banned, body, size = [], set(), [], 0
    while size < target:
        x = _ab(rng, rng.randint(6, 12))
        if x in banned:
            continue
        xs.append(x)
        banned.update(x[:i] for i in range(1, len(x)))
        body.append(x + "$" * len(x))
        size += 2 * len(x)
    return xs, "".join(body)


def _long_words(name, rng, n):
    """(member, non-member) words of about n symbols for one built-in."""
    if name in UNARY:
        member = _nearest_member(name, n)
        nonmember = member + rng.randint(1, 31)
        return "a" * member, "a" * nonmember
    if name == "mi-hat":
        x = _ab(rng, n // 4, "ab$")
        v = _ab(rng, (n - len(x) - 3) // 2)
        member = x + "¢" + v + "$" + v[::-1] + "▶"
        i = len(member) - 2 - rng.randrange(min(16, len(v)))
        flipped = "a" if member[i] == "b" else "b"
        return member, member[:i] + flipped + member[i + 1 :]
    if name == "trie-p":
        xs, body = _padded_body(rng, n - 13)
        return body + "⊳" + rng.choice(xs), body + "⊳" + _ab(rng, 13)
    xs, body = _padded_body(rng, n // 2)
    z = _ab(rng, n - len(body) - 14, "ab$")
    stem = body + "¢" + z + "▷"
    return stem + rng.choice(xs), stem + _ab(rng, 13)


def inputs(workload: str, seed: int, size: str) -> dict:
    """The workload's generated inputs: a plain, JSON-serializable dict."""
    rng = random.Random(f"{workload}/{seed}")
    sz = SIZES[size]
    if workload == "run-long":
        words = {}
        for name in BUILTINS:
            member, nonmember = _long_words(name, rng, sz["run_len"])
            shared = len(os.path.commonprefix([member, nonmember]))
            words[name] = {
                "words": [member, nonmember],
                "prefix": shared // 2 + rng.randrange(16),
            }
        return {"words": words}
    if workload == "check-wide":
        jobs = [["check", m, ORACLE_OF[m], n] for m, n in sz["wide"].items()]
        jobs.append(["enum", "mi-hat", "mi-hat", sz["wide_enum"]])
        rng.shuffle(jobs)
        return {"jobs": jobs}
    if workload == "check-deep":
        base = sz["deep"]
        jobs = [["check", m, m, base + rng.randrange(base // 200 + 1)] for m in UNARY]
        jobs.append(["enum", "cub", "cub", base + rng.randrange(base // 200 + 1)])
        rng.shuffle(jobs)
        return {"jobs": jobs}
    if workload == "classes":
        # Chunks keep each count_classes call short, so that each is timed
        # many times per run.
        sample = rng.sample(lh_class_sample(2), sz["classes"])
        chunks = [[2, sample[i : i + CLASS_CHUNK]] for i in range(0, len(sample), CLASS_CHUNK)]
        return {"samples": chunks + [[1, lh_class_sample(1)]]}
    raise ValueError(f"unknown workload {workload!r}")


# -- set-up --------------------------------------------------------------------


def _oracle_names(workload: str, data: dict) -> list[str]:
    if workload == "run-long":
        return [ORACLE_OF[m] for m in BUILTINS]
    if workload == "classes":
        return ["lh"]
    return sorted({job[2] for job in data["jobs"]})


def setup(workload: str, data: dict, tracer=None) -> Program:
    """Get the program ready for the workload (this is what `setup_s` times)."""
    prog = Program()
    for path in sorted(MACHINE_DIR.glob("*.twm")):
        text = path.read_text(encoding="utf-8")
        prog.parsed[path.stem] = _call(
            tracer, "machinefile.parse_machine", path.stem, parse_machine, text, path.stem
        )
    for name, factory in BUILTINS.items():
        prog.builtins[name] = _call(tracer, "builders.build", name, factory)
    if workload == "run-long":
        for name, spec in data["words"].items():
            machine = prog.builtins[name]
            prog.complements[name] = _call(
                tracer, "combinators.complement", name, complement, machine
            )
            prefix = spec["words"][0][: spec["prefix"]]
            prog.quotients[name] = _call(
                tracer, "combinators.left_quotient", name, left_quotient, machine, prefix
            )
    for name in _oracle_names(workload, data):
        prog.oracles[name] = _call(tracer, "oracles.make", name, ORACLES[name])
    return prog


def check_setup(prog: Program) -> list[str]:
    """Each parsed machine file must describe the same machine its builder makes."""
    errors = []
    if sorted(prog.parsed) != sorted(BUILTINS):
        errors.append(f"machine files {sorted(prog.parsed)} != built-ins {sorted(BUILTINS)}")
    for name, built in prog.builtins.items():
        parsed = prog.parsed.get(name)
        same = parsed is not None and (
            parsed.transitions == built.transitions
            and set(parsed.states) == set(built.states)
            and set(parsed.input_alphabet) == set(built.input_alphabet)
            and set(parsed.tree_alphabet) == set(built.tree_alphabet)
            and parsed.start == built.start
            and parsed.accepting == built.accepting
            and (parsed.real_time, parsed.non_erasing) == (built.real_time, built.non_erasing)
        )
        if not same:
            errors.append(f"machines/{name}.twm differs from build_{name}")
    return errors


# -- timed jobs and their checks ------------------------------------------------


def _verdict_check(expected: bool):
    def check(out):
        if out.accepted != expected:
            want = "member" if expected else "non-member"
            return f"verdict {out.verdict.value}, oracle says {want}"
        return None

    return check


def _traced_check(expected: bool, word: str):
    def check(out):
        if out.accepted != expected:
            return f"traced verdict {out.verdict.value}, oracle disagrees"
        if len(out.trace) != out.steps_taken or out.steps_taken > len(word) + 1:
            return f"{out.steps_taken} steps, {len(out.trace)} records for |w|={len(word)}"
        return None

    return check


def _empty_check(out):
    if out == []:
        return None
    first = out[0]
    return (f"{len(out)} mismatches, first on a word of length {len(first.word)}: "
            f"machine {first.machine_accepts}, oracle {first.oracle_accepts}")


@contextlib.contextmanager
def _traced_enumerate(tracer, req):
    """While the CLI runs, record its call into `enumerate_accepted` as a span."""
    if tracer is None:
        yield
        return
    real = twsda.cli.enumerate_accepted

    def traced(*args, **kwargs):
        return tracer.span("analysis.enumerate_accepted", req, lambda: real(*args, **kwargs))[0]

    twsda.cli.enumerate_accepted = traced
    try:
        yield
    finally:
        twsda.cli.enumerate_accepted = real


def _cli_call(argv, req):
    def call(tracer):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _traced_enumerate(tracer, req):
            code = twsda.cli.main(argv)
        return code, out.getvalue()

    return call


def oracle_words(oracle, max_len: int) -> list[str]:
    """Every word up to `max_len` the oracle accepts, shortest first.

    Walks the words level by level, extending only viable prefixes.
    """
    symbols = sorted(oracle.alphabet)
    viable = oracle.viable_prefix or (lambda w: True)
    accepted, level = [], [""]
    for length in range(max_len + 1):
        accepted.extend(w for w in level if oracle.membership(w))
        if length < max_len:
            level = [w + s for w in level if viable(w) for s in symbols]
    return sorted(accepted, key=lambda w: (len(w), w))


def _with_oracle(fn, oracle):
    def call(tracer):
        return fn(oracle if tracer is None else tracer.oracle(oracle))

    return call


def jobs(workload: str, data: dict, prog: Program) -> list[Job]:
    """The timed calls of one pass, in order, each with its output check."""
    out: list[Job] = []
    if workload == "run-long":
        for name, spec in data["words"].items():
            machine, oracle = prog.builtins[name], prog.oracles[ORACLE_OF[name]]
            comp, quot, q = prog.complements[name], prog.quotients[name], spec["prefix"]
            for tag, word in zip(("member", "non-member"), spec["words"]):
                req, expected = f"{name}/{tag}", oracle.membership(word)
                out += [
                    Job("simulate.run", req, lambda t, m=machine, w=word: run(m, w),
                        _verdict_check(expected)),
                    Job("simulate.run_traced", req,
                        lambda t, m=machine, w=word: run(m, w, traced=True),
                        _traced_check(expected, word)),
                    Job("simulate.run", req, lambda t, m=comp, w=word: run(m, w),
                        _verdict_check(not expected)),
                    Job("simulate.run", req, lambda t, m=quot, w=word[q:]: run(m, w),
                        _verdict_check(expected)),
                ]
        return out
    if workload == "classes":
        oracle = prog.oracles["lh"]
        for ell, sample in data["samples"]:
            want = len(set(sample))

            def check(part, want=want):
                if part.count != want or any(len(c) != 1 for c in part.classes):
                    return f"{part.count} classes for {want} distinct subset words"
                return None

            fn = lambda o, s=sample, e=ell: count_classes(o, s, e, EXTENSIONS)  # noqa: E731
            out.append(Job("analysis.count_classes", f"lh/ell={ell}/{len(out)}",
                           _with_oracle(fn, oracle), check))
        return out
    for kind, machine_name, oracle_name, max_len in data["jobs"]:
        req = f"{kind}/{machine_name}/{max_len}"
        if kind == "check":
            machine = prog.builtins[machine_name]
            fn = lambda o, m=machine, n=max_len: cross_check(m, o, n)  # noqa: E731
            out.append(Job("analysis.cross_check", req,
                           _with_oracle(fn, prog.oracles[oracle_name]), _empty_check))
        else:
            text = "".join(
                format_word(w) + "\n"
                for w in oracle_words(ORACLES[oracle_name](), max_len)
            )
            argv = ["enum", f"builtin:{machine_name}", "--max-len", str(max_len)]

            def check(res, text=text):
                code, printed = res
                if code != 0 or printed != text:
                    got, want = printed.count("\n"), text.count("\n")
                    return f"exit {code}, {got} words, want {want}"
                return None

            out.append(Job("cli.main", req, _cli_call(argv, req), check))
    return out


def input_checks(workload: str, data: dict, prog: Program) -> list[str]:
    """Untimed checks of the inputs and of the final storage trees.

    Generated member words must be members and non-members must not be;
    accepted `expo`/`fib` words must leave a complete binary tree and a
    Fibonacci tree of the level the word length implies.
    """
    errors = check_setup(prog)
    if workload != "run-long":
        return errors
    for name, spec in data["words"].items():
        member, nonmember = spec["words"]
        oracle = prog.oracles[ORACLE_OF[name]]
        if not oracle.membership(member) or oracle.membership(nonmember):
            errors.append(f"{name}: generated words are labelled wrongly")
    expo_word = data["words"]["expo"]["words"][0]
    level = len(expo_word).bit_length() - 1
    if not is_complete_binary(final_tree(prog.builtins["expo"], expo_word), level - 2):
        errors.append(f"expo: final tree of a^{len(expo_word)} not complete of level {level - 2}")
    fib_word = data["words"]["fib"]["words"][0]
    level = next(k for k in range(3, 60) if 2 * fibonacci(k) == len(fib_word))
    if not is_fibonacci_tree(final_tree(prog.builtins["fib"], fib_word), level - 4):
        errors.append(f"fib: final tree of a^{len(fib_word)} not Fibonacci of level {level - 4}")
    return errors


def tree_counts(outcome) -> dict:
    """Storage statistics of one traced run, counted from its step records."""
    kinds = [rec.action[0] for rec in outcome.trace]
    return {
        "tree.pushes": kinds.count("push"),
        "tree.pops": kinds.count("pop"),
        "tree.moves": sum(kinds.count(k) for k in ("up", "down-l", "down-r")),
        "tree.peak_nodes": max((rec.node_count_after for rec in outcome.trace), default=1),
    }
