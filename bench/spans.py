"""In-memory span tracing around the public functions of each woody module.

A span is (name, start, end, parent, result summary). Wrappers replace a
function under the name its caller imports it by (woody.harness.girth,
woody.exact.arboricity, ...), so calls between modules are seen without
touching the program. Spans are kept in memory and written out once the
run ends. Only the process that installed the tracer records; forked hunt
workers call straight through.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

import woody.construct
import woody.exact
import woody.harness
import woody.verify


def _solve(res):
    return {"value": res.value, "nodes": res.nodes, "exact": res.exact}


def _verdict(res):
    return {"ok": res[0]}


def _palette(coloring):
    return {"palette": coloring.palette_size}


def _lower(value):
    return {"value": value}


# (module, attribute, span name, result summary)
TARGETS = [
    (woody.harness, "run_hunt", "harness.run_hunt", None),
    (woody.harness, "hunt_graph", "harness.hunt_graph", None),
    (woody.harness, "write_jsonl", "harness.write_jsonl", None),
    (woody.harness, "parse_graph6", "graphs.parse_graph6", None),
    (woody.harness, "girth", "graphs.girth", None),
    (woody.harness, "coloring_number", "graphs.coloring_number", None),
    (woody.harness, "arboricity", "decompose.arboricity", None),
    (woody.harness, "chromatic_exact", "exact.chi", _solve),
    (woody.harness, "acyclic_chromatic_exact", "exact.chi_a", _solve),
    (woody.harness, "strong_arboricity_exact", "exact.zeta", _solve),
    (woody.harness, "is_strongly_woody", "verify.strong", _verdict),
    (woody.exact, "strong_arboricity_exact", "exact.zeta", _solve),
    (woody.exact, "strong_arboricity_lower_bound", "exact.zeta_lb", _lower),
    (woody.exact, "acyclic_chromatic_exact", "exact.chi_a", _solve),
    (woody.exact, "chromatic_exact", "exact.chi", _solve),
    (woody.exact, "chromatic_index_exact", "exact.chi_index", _solve),
    (woody.exact, "arboricity", "decompose.arboricity", None),
    (woody.exact, "arboricity_square_coloring", "construct.square", _palette),
    (woody.exact, "is_strongly_woody", "verify.strong", _verdict),
    (woody.exact, "is_acyclic_vertex", "verify.acyclic", None),
    (woody.construct, "arboricity_square_coloring", "construct.square", _palette),
    (woody.construct, "arboricity", "decompose.arboricity", None),
    (woody.construct, "coloring_number", "graphs.coloring_number", None),
    (woody.construct, "is_strongly_woody", "verify.strong", _verdict),
    (woody.verify, "is_strongly_woody", "verify.strong", _verdict),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, summary=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if summary is not None:
                rec[4] = summary(out)
            return out
        return traced

    def install(self) -> None:
        for module, attr, name, summary in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, summary))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, summary in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "result": summary}))
                fh.write("\n")


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of each span in spans[lo:hi]: its duration minus the
    durations of its direct children. Spans nest within one process, so
    children never overlap and the subtraction is exact."""
    hi = len(spans) if hi is None else hi
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return own


def profile(spans: list[list], lo: int, hi: int) -> tuple[dict, list[float]]:
    """Totals for the pass whose root span is spans[lo].

    Keys: '<span>.self' and '<span>.calls' per span name, 'layer.<module>'
    self time per module, node and lower-bound counters, verifier self time
    by verdict, and 'wall'. Also returns each hunt_graph duration in ms.
    """
    own = self_times(spans, lo, hi)
    totals: dict[str, float] = {"wall": spans[lo][2] - spans[lo][1]}
    lower = {s[3]: s[4]["value"] for s in spans[lo:hi] if s[0] == "exact.zeta_lb"}
    hunt_ms = []

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i in range(lo, hi):
        name, start, end, _, res = spans[i]
        t = own[i - lo]
        add(f"{name}.self", t)
        add(f"{name}.calls", 1)
        add(f"layer.{name.partition('.')[0]}", t)
        if name in ("exact.zeta", "exact.chi_a"):
            add(f"{name}.nodes", res["nodes"])
        if name == "exact.zeta" and res["exact"]:
            lb = lower.get(i, 0)
            add("zeta.solves", 1)
            add("zeta.tight", int(lb == res["value"]))
            add("zeta.refuted", res["value"] - lb)
        elif name == "verify.strong":
            add("verify.strong.accept" if res["ok"] else "verify.strong.reject", t)
        elif name == "construct.square":
            add("construct.square.palette", res["palette"])
        elif name == "harness.hunt_graph":
            add("hunt_graph.incl", end - start)
            hunt_ms.append((end - start) * 1000.0)
    return totals, hunt_ms
