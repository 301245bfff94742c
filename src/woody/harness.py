"""Batch conjecture-hunting harness.

One record per corpus graph: structural parameters, exact or bounded
strong arboricity, per-conjecture status, and certificates sufficient to
re-verify any reported violation from the record alone. Records are
sorted by (file, line) before writing, so the report bytes do not depend
on worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .decompose import ForestDecomposition, arboricity
from .errors import GraphFormatError, WorkerCrashError
from .exact import Budget, acyclic_chromatic_exact, chromatic_exact, strong_arboricity_exact
from .graphs import Graph, coloring_number, euler_planar_sanity, girth, parse_graph6
from .verify import EdgeColoring
# is_strongly_woody is not called here, but the hunt tracer (bench/spans.py)
# patches it under this module's name, so the name stays bound.
from .verify import is_strongly_woody  # noqa: F401

DEFAULT_BUDGET_NODES = 10_000_000
DEFAULT_BUDGET_SECONDS = 10.0

CONJECTURES = ("planar4", "twoarb", "col", "girth-eq")
BOUNDED_CONJECTURES = ("planar4", "twoarb", "col")

VIOLATION_EXIT_CODE = 10

# Largest number of graphs sent to a worker in one round trip. A violation
# stop waits for the chunks already running, at most one per worker, and a
# heavy tail of costly graphs stays spread over the workers.
MAX_CHUNK = 32


@dataclass(frozen=True)
class HuntConfig:
    conjectures: tuple[str, ...] = ("twoarb", "col", "girth-eq")
    budget_nodes: int = DEFAULT_BUDGET_NODES
    budget_seconds: float = DEFAULT_BUDGET_SECONDS
    strict: bool = False
    timings: bool = False
    with_chi: bool = False
    provenance: str = ""
    seed: int = 0


def iter_corpus(paths) -> list[tuple[str, int, str]]:
    """All graph lines from graph6 files as (path, 1-based line, text).

    Blank lines and an optional '>>graph6<<' header are skipped.
    """
    out = []
    for path in paths:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith(">>graph6<<"):
                    line = line[len(">>graph6<<"):].strip()
                    if not line:
                        continue
                out.append((path, lineno, line))
    return out


def _zeta_bounds(record: dict) -> tuple[int, int | None]:
    if record["zeta_exact"]:
        z = record["zeta"]
        return z, z
    lo, hi = record["zeta"]
    return lo, hi


def conjecture_bound(name: str, record: dict) -> int:
    if name == "planar4":
        return 4
    if name == "twoarb":
        return 2 * record["arb"]
    if name == "col":
        return record["col"]
    raise ValueError(f"unknown conjecture {name}")


def conjecture_status(name: str, record: dict) -> str:
    """holds / violated / unresolved from the zeta bounds in a record."""
    if name == "planar4" and not record["euler_sanity"]:
        return "unresolved"
    bound = conjecture_bound(name, record)
    lo, hi = _zeta_bounds(record)
    if hi is not None and hi <= bound:
        return "holds"
    if lo > bound:
        return "violated"
    return "unresolved"


def hunt_graph(task: tuple[str, int, str, HuntConfig]) -> dict:
    """Worker: evaluate one corpus line into a report record."""
    path, lineno, line, config = task
    graph_id = f"{path}:{lineno}"
    try:
        g = parse_graph6(line)
    except GraphFormatError as exc:
        return {"graph_id": graph_id, "graph6": line, "error": str(exc)}
    budget = Budget(config.budget_nodes, config.budget_seconds)
    timing: dict[str, float] = {}

    def staged(name, fn):
        t = time.monotonic()
        out = fn()
        timing[name] = round((time.monotonic() - t) * 1000.0, 3)
        return out

    gir = staged("girth", lambda: girth(g))
    arb_k, decomp = staged("arb", lambda: arboricity(g))
    col, col_order = staged("col", lambda: coloring_number(g))
    chi = None
    if config.with_chi:
        chi_res = staged("chi", lambda: chromatic_exact(g, budget))
        chi = chi_res.value
    chia_res = staged("chi_a", lambda: acyclic_chromatic_exact(g, budget))
    zeta_res = staged("zeta", lambda: strong_arboricity_exact(g, budget, arb=arb_k))

    record: dict = {
        "graph_id": graph_id,
        "provenance": config.provenance,
        "graph6": line,
        "n": g.n,
        "m": g.m,
        "girth": None if gir == math.inf else gir,
        "arb": arb_k,
        "col": col,
        "chi": chi,
        "chi_a": chia_res.value,
        "euler_sanity": euler_planar_sanity(g),
        "budget_exhausted": (not zeta_res.exact) or (not chia_res.exact),
    }
    if zeta_res.exact:
        record["zeta"] = zeta_res.value
        record["zeta_exact"] = True
        # strong_arboricity_exact has verified the certificate itself
        cert: EdgeColoring = zeta_res.certificate
        if cert.palette_size != zeta_res.value:
            raise AssertionError(f"{graph_id}: certificate palette differs from zeta")
        record["zeta_coloring"] = list(cert.colors)
    else:
        record["zeta"] = [zeta_res.lower, zeta_res.upper]
        record["zeta_exact"] = False
        record["zeta_coloring"] = None

    # sandwich consistency on exactly solved instances: arb <= zeta <= chi_a
    if record["zeta_exact"]:
        if record["zeta"] < arb_k:
            raise AssertionError(f"{graph_id}: zeta below arboricity")
        if chia_res.exact and record["zeta"] > chia_res.value:
            raise AssertionError(f"{graph_id}: zeta above acyclic chromatic number")

    flags = {}
    for name in config.conjectures:
        if name in BOUNDED_CONJECTURES:
            flags[name] = conjecture_status(name, record)
    record["flags"] = flags

    if "girth-eq" in config.conjectures:
        lo, hi = _zeta_bounds(record)
        if hi is not None and hi == arb_k:
            record["zeta_eq_arb"] = True
        elif lo > arb_k:
            record["zeta_eq_arb"] = False
        else:
            record["zeta_eq_arb"] = None

    if any(v == "violated" for v in flags.values()):
        record["witness"] = {
            "conjectures": sorted(n for n, v in flags.items() if v == "violated"),
            "zeta_lower": _zeta_bounds(record)[0],
            "arb_assignment": list(decomp.assignment),
            "num_forests": decomp.num_forests,
            "col_order": list(col_order),
        }
    else:
        record["witness"] = None

    if config.timings:
        record["timing_ms"] = timing
    return record


def replay_coloring_number(g: Graph, order: list[int]) -> int:
    """Max back-degree of the ordering plus one (upper bound on col)."""
    pos = {v: i for i, v in enumerate(order)}
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    back = 0
    for v in order:
        back = max(back, sum(1 for w in g.adj[v] if pos[w] < pos[v]))
    return back + 1


def reverify_violation(record: dict, budget: Budget | None = None) -> bool:
    """Check a violation record using only its own contents.

    The upper-bound certificates (forest decomposition, vertex ordering)
    are replayed, and the strong arboricity lower bound is re-established
    by an independent solver run.
    """
    witness = record.get("witness")
    if not witness:
        return False
    g = parse_graph6(record["graph6"])
    decomp = ForestDecomposition(
        g, tuple(witness["arb_assignment"]), witness["num_forests"])
    if not decomp.is_valid():
        return False
    col_upper = replay_coloring_number(g, witness["col_order"])
    bounds = {
        "planar4": 4,
        "twoarb": 2 * decomp.num_forests,
        "col": col_upper,
    }
    worst = max(bounds[name] for name in witness["conjectures"])
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES, DEFAULT_BUDGET_SECONDS)
    res = strong_arboricity_exact(g, budget)
    return res.lower > worst


@dataclass
class HuntOutcome:
    records: list[dict] = field(default_factory=list)
    parse_errors: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    exit_code: int = 0


def chunk_size(num_tasks: int, jobs: int) -> int:
    """Graphs per worker round trip: about four chunks per worker, as in
    multiprocessing.Pool.map, and at most MAX_CHUNK."""
    return max(1, min(MAX_CHUNK, math.ceil(num_tasks / (4 * jobs))))


def run_hunt(paths, config: HuntConfig, jobs: int = 1,
             log=lambda msg: print(msg, file=sys.stderr)) -> HuntOutcome:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(p, ln, text, config) for p, ln, text in iter_corpus(paths)]
    outcome = HuntOutcome()

    def absorb(rec: dict) -> bool:
        if "error" in rec:
            if config.strict:
                raise GraphFormatError(f"{rec['graph_id']}: {rec['error']}")
            log(f"skipping {rec['graph_id']}: {rec['error']}")
            outcome.parse_errors.append(rec)
            return False
        outcome.records.append(rec)
        if any(v == "violated" for v in rec["flags"].values()):
            if not reverify_violation(
                    rec, Budget(config.budget_nodes, config.budget_seconds)):
                raise AssertionError(
                    f"{rec['graph_id']}: violation record failed re-verification")
            outcome.violations.append(rec)
            return True
        return False

    # records arrive in task order for every jobs value, so a violation
    # halts the hunt after the same records whatever the worker count;
    # no more workers start than there are chunks to send them
    chunk = chunk_size(len(tasks), jobs)
    workers = min(jobs, math.ceil(len(tasks) / chunk))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    received = 0
    try:
        records = (pool.map(hunt_graph, tasks, chunksize=chunk) if pool
                   else map(hunt_graph, tasks))
        for rec in records:
            received += 1
            if absorb(rec):
                break
    except BrokenProcessPool as exc:
        raise WorkerCrashError(f"{tasks[received][0]}:{tasks[received][1]}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    outcome.records.sort(key=lambda r: _graph_id_key(r["graph_id"]))
    outcome.summary = summarize(outcome, config, paths)
    outcome.exit_code = VIOLATION_EXIT_CODE if outcome.violations else 0
    return outcome


def _graph_id_key(graph_id: str) -> tuple[str, int]:
    path, _, lineno = graph_id.rpartition(":")
    return path, int(lineno)


def summarize(outcome: HuntOutcome, config: HuntConfig, paths) -> dict:
    records = outcome.records
    exact = [r for r in records if r["zeta_exact"]]
    summary: dict = {
        "corpus": ";".join(os.fspath(p) for p in paths),
        "provenance": config.provenance,
        "seed": config.seed,
        "graphs_total": len(records) + len(outcome.parse_errors),
        "graphs_reported": len(records),
        "parse_errors": len(outcome.parse_errors),
        "zeta_exact_count": len(exact),
        "zeta_inexact_count": len(records) - len(exact),
        "max_zeta_exact": max((r["zeta"] for r in exact), default=""),
        "zeta_eq_4_count": sum(1 for r in exact if r["zeta"] == 4),
        "euler_sanity_failures": sum(1 for r in records if not r["euler_sanity"]),
        "violations_total": len(outcome.violations),
    }
    diffs = sorted({r["zeta"] - r["arb"] for r in exact})
    for d in diffs:
        summary[f"zeta_minus_arb_{d}"] = sum(
            1 for r in exact if r["zeta"] - r["arb"] == d)
    for name in config.conjectures:
        if name not in BOUNDED_CONJECTURES:
            continue
        for status in ("holds", "violated", "unresolved"):
            summary[f"{name}_{status}"] = sum(
                1 for r in records if r["flags"].get(name) == status)
    if "girth-eq" in config.conjectures:
        off = [r["girth"] for r in records if r.get("zeta_eq_arb") is False]
        unresolved = sum(1 for r in records if r.get("zeta_eq_arb") is None)
        if off:
            finite = [x for x in off if x is not None]
            summary["girth_eq_threshold"] = max(finite) + 1 if finite else ""
        else:
            summary["girth_eq_threshold"] = ""
        summary["girth_eq_unresolved"] = unresolved
    return summary


def write_jsonl(records, fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def write_summary_csv(summary: dict, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["metric", "value"])
    for key, value in summary.items():
        writer.writerow([key, value])


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
