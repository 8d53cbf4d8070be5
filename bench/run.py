#!/usr/bin/env python3
"""twsda benchmark: four seeded workloads, checked outputs, end-to-end and per-module metrics.

    python3 bench/run.py --workload run-long --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

One call, one workload, one fresh interpreter.  The run generates the
workload's inputs from the seed, sets the program up several times (the
median is `setup_s`), makes one untimed warm-up pass, and then repeats
timed passes for `--seconds` seconds, one call at a time (closed loop, one
caller).  Every output is checked, untimed, against an independent
reference.  `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates passes without and with spans and prints the per-module
metrics, writing the spans to `bench/out/`.  `--workload all` runs every
workload in both modes, each in its own interpreter.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run-long", "check-wide", "check-deep", "classes")
SETUPS = 21  # set-ups per run; setup_s is their median
MIN_ROUNDS = 5  # timed passes per kind, whatever --seconds says

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "machinefile.parse_s": "s",
    "machinefile.keys": "count",
    "builders.build_s": "s",
    "combinators.build_s": "s",
    "combinators.keys": "count",
    "simulate.run_s": "s",
    "simulate.steps": "count",
    "simulate.ns_per_step": "ns",
    "simulate.traced_ns_per_step": "ns",
    "simulate.trace_overhead": "ratio",
    "tree.pushes": "count",
    "tree.pops": "count",
    "tree.moves": "count",
    "tree.peak_nodes": "count",
    "analysis.cross_check_s": "s",
    "analysis.self_s": "s",
    "analysis.prefixes": "count",
    "analysis.pruned": "count",
    "analysis.prune_ratio": "ratio",
    "analysis.enumerate_s": "s",
    "analysis.count_classes_s": "s",
    "analysis.classes": "count",
    "oracles.membership_calls": "count",
    "oracles.membership_s": "s",
    "oracles.viable_calls": "count",
    "oracles.viable_s": "s",
    "oracles.ns_per_call": "ns",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.overhead_s": "s",
    "bench.overhead_share": "ratio",
}
# The timed call whose work `ops_per_s` counts, per workload: simulated
# steps of untraced run(), prefixes cross_check visits, words partitioned.
OPS = {
    "run-long": ("simulate.run", "steps_per_s"),
    "check-wide": ("analysis.cross_check", "prefixes_per_s"),
    "check-deep": ("analysis.cross_check", "prefixes_per_s"),
    "classes": ("analysis.count_classes", "words_per_s"),
}
ORACLE_COUNTS = ("analysis.prefixes", "analysis.pruned", "oracles.membership_calls",
                 "oracles.viable_calls", "oracles.viable_false")
OVERHEAD_LIMIT = 0.25  # largest share of a traced pass the spans may leave unaccounted


def _div(a, b):
    return a / b if b else 0.0


def run_pass(jobs, tracer):
    """One timed pass; returns (wall seconds, [(output, seconds, spans)] per job)."""
    results = []
    start = perf_counter()
    for job in jobs:
        first = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        try:
            if tracer is None:
                out = job.call(None)
                dt = perf_counter() - t0
            else:
                out, dt = tracer.span(job.span, job.req, job.call, tracer)
        except Exception as exc:  # a failed operation; counted, never fatal
            traceback.print_exc(file=sys.stderr)
            out, dt = exc, perf_counter() - t0
        results.append((out, dt, tracer.spans[first:] if tracer else None))
    return perf_counter() - start, results


def evaluate(jobs, results, tree_counts):
    """Check every output; returns (failures, exact counts, work units per job)."""
    failures, counts, work = [], Counter(), []
    for job, (out, _, _) in zip(jobs, results):
        units = 0
        if isinstance(out, Exception):
            failures.append(f"{job.span} {job.req}: {type(out).__name__}: {out}")
        else:
            error = job.check(out)
            if error:
                failures.append(f"{job.span} {job.req}: {error}")
            if job.span.startswith("simulate."):
                units = out.steps_taken
                counts["simulate.steps"] += units
                if out.trace is not None:
                    for key, value in tree_counts(out).items():
                        counts[key] = (max(counts[key], value) if key == "tree.peak_nodes"
                                       else counts[key] + value)
            elif job.span == "analysis.count_classes":
                units = sum(len(c) for c in out.classes)
                counts["analysis.classes"] += out.count
        work.append(units)
    return failures, counts, work


def oracle_counts(summary):
    under = summary["under"]
    return {
        "analysis.prefixes": under[("analysis.cross_check", "oracles.membership")][0],
        "analysis.pruned": under[("analysis.cross_check", "oracles.viable_prefix")][1],
        "oracles.membership_calls": summary["calls"]["oracles.membership"],
        "oracles.viable_calls": summary["calls"]["oracles.viable_prefix"],
        "oracles.viable_false": summary["false"]["oracles.viable_prefix"],
    }


def layer_values(summary, counts, steps, traced_steps):
    """Per-module metrics from the summary of a set of traced job spans."""
    sec, self_s = summary["seconds"], summary["self"]
    ns = _div(sec["simulate.run"], steps) * 1e9
    traced_ns = _div(sec["simulate.run_traced"], traced_steps) * 1e9
    oracle_calls = counts["oracles.membership_calls"] + counts["oracles.viable_calls"]
    viable_in_checks = summary["under"][("analysis.cross_check", "oracles.viable_prefix")][0]
    return {
        "simulate.run_s": sec["simulate.run"] + sec["simulate.run_traced"],
        "simulate.ns_per_step": ns,
        "simulate.traced_ns_per_step": traced_ns,
        "simulate.trace_overhead": _div(traced_ns, ns),
        "analysis.cross_check_s": sec["analysis.cross_check"],
        "analysis.self_s": self_s["analysis"],
        "analysis.prune_ratio": _div(counts["analysis.pruned"], viable_in_checks),
        "analysis.enumerate_s": sec["analysis.enumerate_accepted"],
        "analysis.count_classes_s": sec["analysis.count_classes"],
        "oracles.membership_s": sec["oracles.membership"],
        "oracles.viable_s": sec["oracles.viable_prefix"],
        "oracles.ns_per_call": _div(
            sec["oracles.membership"] + sec["oracles.viable_prefix"], oracle_calls) * 1e9,
        "cli.main_s": sec["cli.main"],
        "cli.self_s": self_s["cli"],
    }


def best(passes, picked):
    """Sum over the picked jobs of each job's fastest time among the passes."""
    return sum(min(p["times"][j] for p in passes) for j in picked)


def per_layer(jobs, passes, expected, work, setup_layers, prog, wall_s):
    """Per-module metrics: each job's spans from the traced pass where it was fastest."""
    every, spans_on = range(len(jobs)), passes[True]
    fastest = [min(spans_on, key=lambda p: p["times"][j])["spans"][j] for j in every]
    steps = sum(work[j] for j in every if jobs[j].span == "simulate.run")
    traced_steps = sum(work[j] for j in every if jobs[j].span == "simulate.run_traced")
    layers = layer_values(summarize([s for spans in fastest for s in spans]), expected,
                          steps, traced_steps)
    layers.update({key: expected[key] for key in PER_LAYER if key in expected})
    layers["machinefile.keys"] = sum(len(m.transitions) for m in prog.parsed.values())
    layers["combinators.keys"] = sum(
        len(m.transitions) for m in (*prog.complements.values(), *prog.quotients.values())
    )
    layers["machinefile.parse_s"] = median(s["machinefile.parse_machine"] for s in setup_layers)
    layers["builders.build_s"] = median(s["builders.build"] for s in setup_layers)
    layers["combinators.build_s"] = median(
        s["combinators.complement"] + s["combinators.left_quotient"] for s in setup_layers
    )
    layers["bench.untraced_wall_s"] = wall_s
    layers["bench.traced_wall_s"] = best(spans_on, every)
    layers["bench.trace_overhead"] = layers["bench.traced_wall_s"] / wall_s
    layers["bench.overhead_s"] = median(p["overhead"] for p in spans_on)
    layers["bench.overhead_share"] = median(p["overhead"] / p["wall"] for p in spans_on)
    return layers


def measure(workload, seed, seconds, traced, size):
    sys.path.insert(0, str(ROOT / "src"))
    import twsda
    import workloads

    if Path(twsda.__file__).resolve().parent != ROOT / "src" / "twsda":
        raise SystemExit(f"error: imported twsda from {twsda.__file__}, not from this checkout")

    data = workloads.inputs(workload, seed, size)
    fingerprint = hashlib.sha256(
        json.dumps(data, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    tracer = Tracer() if traced else None

    # Set-ups are spread evenly over the timed passes, so that the median in
    # setup_s samples the whole run, not one moment of it.
    setup_times, setup_layers = [], []

    def set_up():
        gc.collect()
        first = len(tracer.spans) if traced else 0
        start = perf_counter()
        prog = workloads.setup(workload, data, tracer)
        setup_times.append(perf_counter() - start)
        if traced:
            setup_layers.append(summarize(tracer.spans[first:])["seconds"])
        return prog

    prog = set_up()
    problems = workloads.input_checks(workload, data, prog)
    jobs = workloads.jobs(workload, data, prog)

    # Warm-up pass: untimed, with counting oracles, so that the exact counts
    # are known before timing and every later pass can be held to them.
    warm = Tracer()
    _, results = run_pass(jobs, warm)
    failures, expected, work = evaluate(jobs, results, workloads.tree_counts)
    expected.update(oracle_counts(summarize(warm.spans)))
    attempted, failed = len(results), len(failures)
    problems += failures

    passes = {False: [], True: []}  # spans on? -> [{"wall", "times", "spans"}]
    elapsed = 0.0
    while (elapsed < seconds or len(passes[False]) < MIN_ROUNDS
           or (traced and len(passes[True]) < MIN_ROUNDS)):
        spans_on = traced and len(passes[True]) < len(passes[False])
        if elapsed >= len(setup_times) * seconds / SETUPS:
            set_up()
        gc.collect()
        wall, results = run_pass(jobs, tracer if spans_on else None)
        elapsed += wall
        failures, counts, _ = evaluate(jobs, results, workloads.tree_counts)
        attempted += len(results)
        failed += len(failures)
        problems += failures
        record = {"wall": wall, "times": [dt for _, dt, _ in results]}
        if spans_on:
            record["spans"] = [spans for _, _, spans in results]
            summary = summarize([s for spans in record["spans"] for s in spans])
            counts.update(oracle_counts(summary))
            record["overhead"] = wall - sum(summary["self"].values())
            if not -1e-6 <= record["overhead"] <= OVERHEAD_LIMIT * wall:
                problems.append(f"module self times leave {record['overhead']:.6f} s "
                                f"of a {wall:.6f} s traced pass unaccounted")
        for key in expected:
            if (spans_on or key not in ORACLE_COUNTS) and counts[key] != expected[key]:
                problems.append(f"count {key} moved: {counts[key]} != {expected[key]}")
        passes[spans_on].append(record)

    # Timed figures take each call at the fastest of its timings in the run:
    # the host's speed drifts by up to 2x over seconds, and the fastest
    # timing is the steadiest estimate of the program's own cost.
    untraced, every = passes[False], range(len(jobs))
    span_name, rate_name = OPS[workload]

    def rate(span):
        picked = [j for j in every if jobs[j].span == span]
        units = (expected["analysis.prefixes"] if span == "analysis.cross_check"
                 else sum(work[j] for j in picked))
        return _div(units, best(untraced, picked))

    info = {
        "setup_s": median(setup_times),
        "wall_s": best(untraced, every),
        "ops_per_s": rate(span_name),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    aliases = {rate_name: info["ops_per_s"]}
    if workload == "run-long":
        aliases["traced_steps_per_s"] = rate("simulate.run_traced")
    if traced:
        layers = per_layer(jobs, passes, expected, work, setup_layers, prog, info["wall_s"])
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        tracer.dump(ROOT / "bench" / "out" / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = {name: {"value": info[name], "unit": unit} for name, unit in END_TO_END.items()}

    walls = [p["wall"] for p in untraced]
    print(f"workload={workload} seed={seed} size={size} trace={int(traced)} "
          f"inputs_sha256={fingerprint} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    print(f"passes={len(untraced)}+{len(passes[True])} setups={len(setup_times)} "
          f"attempted={attempted} "
          f"failed={failed} fail_ratio={_div(failed, attempted)}")
    print(f"pass wall: fastest={min(walls)} median={median(walls)} slowest={max(walls)} "
          f"n={len(walls)} s")
    for name, value in aliases.items():
        print(f"{name} {value} 1/s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in both modes, each in a fresh interpreter, one at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke only exercises every path quickly")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/twsda/__init__.py", "machines") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a twsda checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
