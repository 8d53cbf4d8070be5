"""In-memory span recording for the traced benchmark run.

A span is recorded around each call the benchmark makes into a public
function of the program: name, start, end, parent span and request id.
Oracle callables are called millions of times per pass, so instead of one
span per call they are folded into one aggregate child per enclosing span,
holding the call count, the seconds spent and how many calls returned
False.
"""
from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans and oracle aggregates until `dump` writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._acc: dict[str, list] = {}

    def span(self, name: str, req: str, fn, *args):
        """Call `fn(*args)` inside a span; returns (result, seconds)."""
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name, "parent": parent, "req": req}
        self.spans.append(rec)
        self._open.append(rec["id"])
        start = perf_counter()
        try:
            return fn(*args), perf_counter() - start
        finally:
            rec["start"], rec["end"] = start, perf_counter()
            self._open.pop()
            self._flush(rec)

    def _flush(self, parent: dict) -> None:
        for name, acc in self._acc.items():
            if acc[0]:
                self.spans.append({"id": len(self.spans), "name": name, "parent": parent["id"],
                                   "req": parent["req"], "calls": acc[0], "seconds": acc[1],
                                   "false": acc[2]})
                acc[:] = [0, 0.0, 0]

    def _timed(self, name: str, fn):
        acc = self._acc.setdefault(name, [0, 0.0, 0])

        def wrapper(word):
            start = perf_counter()
            result = fn(word)
            acc[1] += perf_counter() - start
            acc[0] += 1
            if not result:
                acc[2] += 1
            return result

        return wrapper

    def oracle(self, oracle):
        """The same `LanguageOracle`, with callables that time and count the real ones."""
        viable = oracle.viable_prefix
        return dataclasses.replace(
            oracle,
            membership=self._timed("oracles.membership", oracle.membership),
            viable_prefix=None if viable is None else self._timed("oracles.viable_prefix", viable),
        )

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(rec, ensure_ascii=False) + "\n")


def summarize(spans: list[dict]) -> dict:
    """Per-name totals and per-module self times of a list of spans.

    A span's self time is its duration minus its children's; aggregates
    count as children with their summed seconds.  Returns a dict with
    `seconds[name]`, `calls[name]`, `false[name]`, `self[module]` and
    `under[(parent name, child name)]` call counts.
    """
    by_id = {rec["id"]: rec for rec in spans}
    dur = {rec["id"]: rec["seconds"] if "seconds" in rec else rec["end"] - rec["start"]
           for rec in spans}
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    false: dict[str, int] = defaultdict(int)
    child_s: dict[int, float] = defaultdict(float)
    under: dict[tuple, list] = defaultdict(lambda: [0, 0])
    for rec in spans:
        seconds[rec["name"]] += dur[rec["id"]]
        calls[rec["name"]] += rec.get("calls", 1)
        false[rec["name"]] += rec.get("false", 0)
        parent = by_id.get(rec["parent"])
        if parent is not None:
            child_s[parent["id"]] += dur[rec["id"]]
            acc = under[(parent["name"], rec["name"])]
            acc[0] += rec.get("calls", 1)
            acc[1] += rec.get("false", 0)
    self_s: dict[str, float] = defaultdict(float)
    for rec in spans:
        self_s[rec["name"].split(".")[0]] += dur[rec["id"]] - child_s[rec["id"]]
    return {"seconds": seconds, "calls": calls, "false": false, "self": self_s, "under": under}
