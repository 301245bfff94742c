"""woody benchmark: closed-loop batch runner over the public API.

One caller runs passes over a seeded input set back to back for about
--seconds seconds (a pass is never cut short), checks every answer outside
the timed region, and prints metric lines followed by one JSON result line:

    python3 bench/run.py --workload hunt-dense --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run. --workload all runs the four workloads in turn. The exit
code is 0 when every check passed, 1 when a correctness or determinism check
failed, and 2 when the woody sources or corpora are missing. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".bench_out")  # relative to ROOT, so report graph ids do not name the checkout
WORKLOADS = ("hunt-dense", "hunt-planar-par", "scale-sparse", "exact-stretch")
SETUP_REPEATS = 9
MIN_PASSES = 2

E2E = {"setup_s": "s", "speed_vs_ref": "x", "peak_rss_mb": "MiB"}
LAYER = {
    "exact.zeta.s": "s", "exact.zeta.nodes": "count", "exact.zeta.nodes_per_s": "1/s",
    "exact.zeta_lb.s": "s", "exact.lb_tight_frac": "frac", "exact.levels_refuted": "count",
    "exact.chi_a.s": "s", "exact.chi_a.nodes": "count", "exact.chi.s": "s",
    "exact.chi_index.s": "s", "exact.self_s": "s",
    "decompose.arboricity.s": "s", "decompose.self_s": "s",
    "verify.strong.accept_s": "s", "verify.strong.reject_s": "s",
    "verify.strong.calls": "count", "verify.self_s": "s",
    "construct.square.self_s": "s", "construct.square.palette_sum": "count",
    "construct.self_s": "s",
    "graphs.parse_graph6.s": "s", "graphs.girth.s": "s", "graphs.coloring_number.s": "s",
    "graphs.self_s": "s",
    "harness.hunt_graph.self_s": "s", "harness.hunt_graph.ms_p50": "ms",
    "harness.hunt_graph.ms_p99": "ms", "harness.parallel_eff": "frac", "harness.self_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
    "trace.cover_frac": "frac",
}
LAYERS = ("graphs", "verify", "decompose", "construct", "exact", "harness")
# per-pass counters that must repeat exactly between traced passes
COUNTERS = ("exact.zeta.nodes", "exact.chi_a.nodes", "zeta.solves", "zeta.tight",
            "zeta.refuted", "verify.strong.calls", "construct.square.palette")


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload: str, seed: int) -> int:
    """Child side of setup_s: import woody and woody.cli, then build inputs."""
    t0 = perf_counter()
    import woody  # noqa: F401
    import woody.cli  # noqa: F401
    t1 = perf_counter()
    import workloads
    workloads.build(workload, seed, OUT)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["import_s"] for r in runs))


def compare(reference: list[str], other: list[str]) -> int:
    """Operations whose output digest differs between two passes."""
    diff = sum(1 for a, b in zip(reference, other) if a != b)
    return diff + abs(len(reference) - len(other))


class Run:
    """One workload run: passes, checks, and the numbers they give."""

    def __init__(self, name: str, seed: int, seconds: float):
        import workloads
        self.name, self.seed, self.seconds = name, seed, seconds
        self.wl = workloads.build(name, seed, OUT)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: list[str] | None = None
        self.pass_s: list[float] = []
        self.ref_pass_s: list[float] = []
        self.tracer = None

    def _fail(self, msgs) -> None:
        self.failures.extend(msgs)

    def one_pass(self, jobs=None, traced=False, ref=None):
        """Run, time and check one pass.

        With `ref`, a workload over the frozen `woody_ref`, every step runs
        next to its reference counterpart, which goes first on every other
        step and pass. Returns (seconds, step times, span range, reference
        step times).
        """
        self.attempted += self.wl.ops
        span_range = None
        flip = len(self.pass_s) % 2 == 1
        if traced:
            self.tracer.install()
            lo = len(self.tracer.spans)
            try:
                with self.tracer.span("bench.pass"):
                    out, times, ref_times = run_steps(self.wl.steps(jobs))
            finally:
                self.tracer.uninstall()
            span_range = (lo, len(self.tracer.spans))
        else:
            out, times, ref_times = run_steps(
                self.wl.steps(jobs), ref.steps(jobs) if ref else None, flip)
        digests = self.wl.digests(out)
        if self.first_digests is None:
            self.first_digests = digests
            self._fail(self.wl.check(out))
        else:
            mismatched = compare(self.first_digests, digests)
            if mismatched:
                self._fail([f"{mismatched} outputs differ from the first pass"] * mismatched)
        dt = sum(times.values())
        self.pass_s.append(dt)
        if ref_times:
            self.ref_pass_s.append(sum(ref_times.values()))
        return dt, times, span_range, ref_times

    def loop(self, jobs=None, traced_every_other=False, ref=None):
        """Back-to-back passes until the next one would end past the deadline.

        traced_every_other alternates untraced and traced passes; `ref`
        pairs every pass with the frozen reference.
        """
        passes = []
        start = perf_counter()
        need = 2 * MIN_PASSES if traced_every_other else MIN_PASSES
        while True:
            traced = traced_every_other and len(passes) % 2 == 1
            passes.append((traced,) + self.one_pass(jobs, traced, ref))
            took = passes[-1][1] + sum(passes[-1][4].values())
            left = self.seconds - (perf_counter() - start)
            if len(passes) < need:
                continue
            if ref is None and left <= took / 2:
                return passes
            # with a reference, passes go in pairs so each step ran first as
            # often in one copy as in the other
            if ref is not None and len(passes) % 2 == 0 and left <= took:
                return passes

    def end_to_end(self) -> tuple[dict, dict]:
        """setup_s, speed_vs_ref and peak_rss_mb, plus the absolute numbers.

        speed_vs_ref is (reference time) / (woody time) summed over the
        run's passes: the two copies run each step within seconds of each
        other on the same inputs, so the ratio cancels the machine's own
        speed, which drifts by up to 1.7x over minutes.
        """
        import workloads
        setup_s, _ = measure_setup(self.name, self.seed)
        ref = workloads.build(self.name, self.seed, OUT, "woody_ref")
        if self.wl.layer_jobs and self.wl.jobs != self.wl.layer_jobs:
            self.one_pass(self.wl.layer_jobs)  # the jobs=1 report the parallel ones must match
            self.pass_s.clear()
        passes = self.loop(ref=ref)
        metrics = {
            "setup_s": setup_s,
            "speed_vs_ref": sum(sum(p[4].values()) for p in passes) / sum(p[1] for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, self.aliases(median_steps([p[2] for p in passes]))

    def aliases(self, steps: dict) -> dict:
        """Wall-clock numbers of the library under test, by their job names."""
        total = sum(steps.values())
        out = {"work_per_s": (self.wl.units / total, f"{self.wl.unit}/s")}
        if self.wl.unit == "graphs":
            out["hunt_graphs_per_s"] = (self.wl.units / total, "graphs/s")
        elif self.wl.unit == "edges":
            color = sum(t for k, t in steps.items() if k.startswith("color"))
            m = self.wl.units
            out["color_edges_per_s"] = (m / color, "edges/s")
            out["verify_edges_per_s"] = (3 * m / (total - color), "edges/s")
        else:
            out["stretch_s"] = (total, "s")
        return out

    def layered(self) -> dict:
        from spans import Tracer
        self.tracer = Tracer()
        _, import_s = measure_setup(self.name, self.seed)
        passes = self.loop(self.wl.layer_jobs, traced_every_other=True)
        traced = [p for p in passes if p[0]]
        untraced = [p for p in passes if not p[0]]
        extra = {"cli.import_s": import_s, "harness.parallel_eff": 0.0}
        if self.wl.layer_jobs and self.wl.jobs != self.wl.layer_jobs:
            par = [self.one_pass() for _ in range(MIN_PASSES)]
            hunt_s = statistics.mean(self.profile(p[3])[0]["hunt_graph.incl"] for p in traced)
            wall = statistics.median(p[0] for p in par)
            extra["harness.parallel_eff"] = hunt_s / (self.wl.jobs * wall)
        return self.layer_metrics(traced, untraced, extra)

    def profile(self, span_range):
        from spans import profile
        return profile(self.tracer.spans, *span_range)

    def layer_metrics(self, traced, untraced, extra) -> dict:
        profiles, hunt_ms = [], []
        for p in traced:
            prof, ms = self.profile(p[3])
            profiles.append(prof)
            hunt_ms.extend(ms)
        first = profiles[0]
        for prof in profiles[1:]:
            bad = [k for k in COUNTERS if prof.get(k, 0) != first.get(k, 0)]
            self._fail(f"counter {k} differs between traced passes" for k in bad)

        def mean(key):
            return statistics.mean(p.get(key, 0.0) for p in profiles)

        def pct(q):
            return statistics.quantiles(hunt_ms, n=100)[q - 1] if len(hunt_ms) > 1 else 0.0

        wall = statistics.median(p[1] for p in traced)
        untraced_wall = statistics.median(p[1] for p in untraced)
        layer_self = {f"{layer}.self_s": mean(f"layer.{layer}") for layer in LAYERS}
        zeta_s = mean("exact.zeta.self")
        metrics = {
            "exact.zeta.s": zeta_s,
            "exact.zeta.nodes": first.get("exact.zeta.nodes", 0),
            "exact.zeta.nodes_per_s": first.get("exact.zeta.nodes", 0) / zeta_s if zeta_s else 0.0,
            "exact.zeta_lb.s": mean("exact.zeta_lb.self"),
            "exact.lb_tight_frac": (first.get("zeta.tight", 0) / first["zeta.solves"]
                                    if first.get("zeta.solves") else 0.0),
            "exact.levels_refuted": first.get("zeta.refuted", 0),
            "exact.chi_a.s": mean("exact.chi_a.self"),
            "exact.chi_a.nodes": first.get("exact.chi_a.nodes", 0),
            "exact.chi.s": mean("exact.chi.self"),
            "exact.chi_index.s": mean("exact.chi_index.self"),
            "decompose.arboricity.s": mean("decompose.arboricity.self"),
            "verify.strong.accept_s": mean("verify.strong.accept"),
            "verify.strong.reject_s": mean("verify.strong.reject"),
            "verify.strong.calls": first.get("verify.strong.calls", 0),
            "construct.square.self_s": mean("construct.square.self"),
            "construct.square.palette_sum": first.get("construct.square.palette", 0),
            "graphs.parse_graph6.s": mean("graphs.parse_graph6.self"),
            "graphs.girth.s": mean("graphs.girth.self"),
            "graphs.coloring_number.s": mean("graphs.coloring_number.self"),
            "harness.hunt_graph.self_s": mean("harness.hunt_graph.self"),
            "harness.hunt_graph.ms_p50": statistics.median(hunt_ms) if hunt_ms else 0.0,
            "harness.hunt_graph.ms_p99": pct(99),
            "trace.wall_s": wall,
            "trace.untraced_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.cover_frac": sum(layer_self.values()) / mean("wall"),
            **layer_self,
            **extra,
        }
        return metrics


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def run_steps(steps, ref_steps=None, flip=False):
    """Run a pass's (name, thunk) steps; returns (outputs, times, reference
    times). With ref_steps, step i of the reference runs right before or
    right after step i, alternating."""
    out, times, ref_times = [], {}, {}
    for i, (name, fn) in enumerate(steps):
        ref_first = ref_steps is not None and (i % 2 == 1) != flip
        if ref_first:
            ref_times[name] = _timed(ref_steps[i][1])[1]
        result, times[name] = _timed(fn)
        out.append(result)
        if ref_steps is not None and not ref_first:
            ref_times[name] = _timed(ref_steps[i][1])[1]
    return out, times, ref_times


def median_steps(runs: list[dict]) -> dict:
    """Each step's median time over the passes of a run."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload; print its metric lines and return (result, exit code)."""
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "git": git_sha(),
           "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    run = None
    values: dict = {}
    aliases: dict = {}
    try:
        run = Run(name, seed, seconds)
        if trace:
            values = run.layered()
        else:
            values, aliases = run.end_to_end()
    except Exception:
        traceback.print_exc()
        failures = (run.failures if run else []) + ["exception during the run"]
        attempted = max(1, run.attempted if run else 1)
        result = {"correct": False, "attempted": attempted,
                  "failed": attempted, "metrics": {}}
        _save(name, seed, trace, env, result, failures)
        return result, 1
    if trace:
        run.tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    units = LAYER if trace else E2E
    failed = min(len(run.failures), run.attempted)
    aliases["failed_frac"] = (failed / run.attempted, "frac")
    for key, unit in units.items():
        print(f"{key:<32} {values[key]:.6g} {unit}")
    for key, (value, unit) in aliases.items():
        print(f"{key:<32} {value:.6g} {unit}")
    for msg in run.failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    _save(name, seed, trace, env, result, run.failures,
          {k: v for k, (v, _) in aliases.items()}, run.pass_s, run.ref_pass_s)
    return result, 0 if result["correct"] else 1


def _save(name, seed, trace, env, result, failures, aliases=None, pass_s=(),
          ref_pass_s=()) -> None:
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "aliases": aliases or {},
                   "pass_s": list(pass_s), "ref_pass_s": list(ref_pass_s),
                   "failures": failures}, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "woody" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "data" / "connected_n8.g6").is_file():
        print(f"woody sources or corpora not found under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH / "ref")]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        result, rc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
