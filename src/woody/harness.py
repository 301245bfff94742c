"""Batch conjecture-hunting harness.

One record per corpus graph: structural parameters, exact or bounded
strong arboricity, per-conjecture status, and certificates sufficient to
re-verify any reported violation from the record alone. Records are
sorted by (file, line) before writing, so the report bytes do not depend
on worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .decompose import ForestDecomposition, arboricity
from .errors import GraphFormatError, WorkerCrashError
from .exact import (
    Budget,
    acyclic_chromatic_exact,
    chromatic_exact,
    max_clique_size,
    strong_arboricity_exact,
)
from .graphs import (
    coloring_number,
    euler_planar_sanity,
    girth,
    graph6_lines,
    parse_graph6,
)
from .verify import replay_coloring_number
# is_strongly_woody is not called here, but the hunt tracer (bench/spans.py)
# patches it under this module's name, so the name stays bound.
from .verify import is_strongly_woody  # noqa: F401

DEFAULT_BUDGET_NODES = 2_000_000

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
    budget: Budget = Budget(DEFAULT_BUDGET_NODES)
    strict: bool = False
    timings: bool = False
    with_chi: bool = False
    provenance: str = ""
    seed: int = 0


def iter_corpus(paths) -> list[tuple[str, int, str]]:
    """All graph lines from graph6 files as (path, 1-based line, text),
    each file read by graphs.graph6_lines. latin-1 maps each byte to one
    character, so a non-ASCII byte reaches the graph6 parser, which reports
    it with its line and byte offset like any other malformed one."""
    out = []
    for path in paths:
        with open(path, "r", encoding="latin-1") as fh:
            out.extend((path, lineno, line) for lineno, line in graph6_lines(fh))
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
    if name == "girth-eq":
        # every lower bound on zeta is at least arb, so zeta <= arb means ==
        return record["arb"]
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
    timing: dict[str, float] = {}

    def staged(name, fn):
        if not config.timings:
            return fn()
        t = time.monotonic()
        out = fn()
        timing[name] = round((time.monotonic() - t) * 1000.0, 3)
        return out

    gir = staged("girth", lambda: girth(g))
    col, col_order = staged("col", lambda: coloring_number(g))
    arb_k, decomp = staged("arb", lambda: arboricity(g, (col, col_order)))
    # one clique number for the lower bounds of every solver below, searched
    # in the smallest-last order the col column already peeled
    omega = max_clique_size(g, col_order)
    chi = None
    if config.with_chi:
        chi_res = staged("chi", lambda: chromatic_exact(g, config.budget, omega))
        chi = chi_res.value
    chia_res = staged("chi_a", lambda: acyclic_chromatic_exact(g, config.budget, omega))
    zeta_res = staged("zeta", lambda: strong_arboricity_exact(
        g, config.budget, arb=arb_k, omega=omega))

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
        # true when some value was left inexact, its bounds still apart
        "budget_exhausted": not (zeta_res.exact and chia_res.exact),
        "zeta_exact": zeta_res.exact,
        "zeta": zeta_res.value if zeta_res.exact else [zeta_res.lower, zeta_res.upper],
        # the solver verified it, and its palette is the solver's upper bound
        "zeta_coloring": list(zeta_res.certificate.colors) if zeta_res.exact else None,
    }

    # sandwich consistency on exactly solved instances: arb <= zeta <= chi_a
    if zeta_res.exact:
        if zeta_res.value < arb_k:
            raise AssertionError(f"{graph_id}: zeta below arboricity")
        if chia_res.exact and zeta_res.value > chia_res.value:
            raise AssertionError(f"{graph_id}: zeta above acyclic chromatic number")

    flags = {}
    for name in config.conjectures:
        if name in BOUNDED_CONJECTURES:
            flags[name] = conjecture_status(name, record)
    record["flags"] = flags

    if "girth-eq" in config.conjectures:
        record["zeta_eq_arb"] = {"holds": True, "violated": False}.get(
            conjecture_status("girth-eq", record))

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


def reverify_violation(record: dict, budget: Budget = HuntConfig.budget) -> bool:
    """Check a violation record using only its own contents.

    The upper-bound certificates (forest decomposition, vertex ordering)
    are replayed, and the strong arboricity lower bound is re-established
    by a second run of the same solver under the node ceiling of budget,
    never its deadline. A malformed record (a graph6 that does not parse,
    a witness field missing or of the wrong form) is False.
    """
    witness = record.get("witness")
    if not witness:
        return False
    try:
        g = parse_graph6(record["graph6"])
        decomp = ForestDecomposition(
            g, tuple(witness["arb_assignment"]), witness["num_forests"])
        if not decomp.is_valid():
            return False
        col_upper = replay_coloring_number(g, witness["col_order"])
        replayed = {"arb": decomp.num_forests, "col": col_upper}
        worst = max(conjecture_bound(name, replayed) for name in witness["conjectures"])
    except (KeyError, TypeError, ValueError):  # GraphFormatError is a ValueError
        return False
    res = strong_arboricity_exact(g, Budget(budget.max_nodes))
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
            if not reverify_violation(rec, config.budget):
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
    if workers > 1:
        # the pool stack (multiprocessing, threading, pickle, ...) loads
        # only here, so other commands and one-process hunts never pay it
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for rec in pool.map(hunt_graph, tasks, chunksize=chunk):
                if absorb(rec):
                    break
        except BrokenProcessPool as exc:
            # every record received so far was absorbed
            first = tasks[len(outcome.records) + len(outcome.parse_errors)]
            raise WorkerCrashError(f"{first[0]}:{first[1]}") from exc
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for rec in map(hunt_graph, tasks):
            if absorb(rec):
                break

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


def read_text(path: str, encoding: str = "ascii") -> str:
    """The text of a file. A byte that does not decode is a GraphFormatError
    naming the file, the line and the byte offset in that line, as the hunt
    names a malformed graph6 line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        # lines end at \n, \r or \r\n, as the parsers read them
        lines = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
        raise GraphFormatError(f"{path}:{len(lines)}: byte 0x{data[exc.start]:02x} "
                               f"is not {encoding}", len(lines[-1])) from None


def parse_config_file(path: str) -> dict:
    """key=value lines of UTF-8 text; blank lines and '#' comments ignored.
    A key given twice is a ValueError naming the file and both lines."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    # lines end at \n, \r or \r\n, as a file opened in text mode reads them
    for lineno, raw in enumerate(io.StringIO(read_text(path, "utf-8"), newline=None), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: bad config line: {raw.rstrip()}")
        key, _, value = map(str.strip, line.partition("="))
        if key in first:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {first[key]}")
        first[key] = lineno
        out[key] = value
    return out
