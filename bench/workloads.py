"""The four workloads: inputs from the seed, the timed steps of a pass, and
the checks on a pass's output.

A pass feeds the whole input set once through the library's public
functions, as a fixed list of steps (one hunt, one pipeline or verify call,
one solve each). Functions are looked up on their modules at call time, so
an installed tracer sees them. The same workload can be built over `woody`,
the library under test, or over `woody_ref`, the frozen copy that
speed_vs_ref is measured against; run.py interleaves the two step by
step. digests() reduces a pass's output to one string per operation so
passes can be compared for determinism; check() is the correctness gate.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path

import checks
import gen

# hunt-dense runs its sample as this many hunts over consecutive slices, so
# that each is short enough to be timed next to its reference counterpart
DENSE_CHUNKS = 8


class Api:
    """The modules of one copy of the library."""

    def __init__(self, package: str):
        self.package = package
        for name in ("construct", "exact", "harness", "verify"):
            setattr(self, name, importlib.import_module(f"{package}.{name}"))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Hunt:
    """run_hunt over sampled corpus files, each report written by write_jsonl."""

    unit = "graphs"
    layer_jobs = 1

    def __init__(self, name: str, seed: int, out_dir: Path, api: Api):
        self.api = api
        harness = api.harness
        if name == "hunt-dense":
            self.sources = gen.dense_sample(seed)
            self.jobs = 1
            self.config = harness.HuntConfig()
            chunks = DENSE_CHUNKS
        else:
            self.sources = gen.planar_sample(seed)
            self.jobs = 2
            self.config = harness.HuntConfig(conjectures=harness.CONJECTURES)
            chunks = 1
        out_dir.mkdir(parents=True, exist_ok=True)
        size = -(-len(self.sources) // chunks)
        self.chunks = []
        for i in range(chunks):
            part = self.sources[i * size:(i + 1) * size]
            corpus = out_dir / f"{name}-{i}.g6"
            corpus.write_text("".join(t + "\n" for _, _, t in part), encoding="ascii")
            self.chunks.append((part, corpus, out_dir / f"{name}-{i}.{api.package}.jsonl"))
        self.units = self.ops = len(self.sources)

    def _hunt(self, corpus: Path, report: Path, jobs: int):
        harness = self.api.harness
        outcome = harness.run_hunt([str(corpus)], self.config, jobs=jobs)
        with open(report, "w", encoding="utf-8") as fh:
            harness.write_jsonl(outcome.records, fh)
        return outcome

    def steps(self, jobs: int | None = None) -> list:
        return [(f"hunt {i}", lambda c=corpus, r=report: self._hunt(c, r, jobs or self.jobs))
                for i, (_, corpus, report) in enumerate(self.chunks)]

    def digests(self, outcomes) -> list[str]:
        return [hashlib.sha256(line).hexdigest()
                for _, _, report in self.chunks for line in report.read_bytes().splitlines()]

    def check(self, outcomes) -> list[str]:
        answers = checks.load_answers(sorted({c for c, _, _ in self.sources}))
        return [f for outcome, (part, _, _) in zip(outcomes, self.chunks)
                for f in checks.check_hunt(outcome, part, answers)]


class Scale:
    """Square pipeline, then the verifier on its own, a rainbow and a
    planted failing coloring, for each large sparse graph."""

    unit = "edges"
    layer_jobs = None

    def __init__(self, name: str, seed: int, out_dir: Path, api: Api):
        self.api = api
        self.items = gen.scale_graphs(seed)
        for it in self.items:
            it["inputs"] = [api.verify.EdgeColoring(it["graph"], it["rainbow"]),
                            api.verify.EdgeColoring(it["graph"], it["planted"])]
        self.units = sum(it["graph"].m for it in self.items)
        self.ops = 4 * len(self.items)
        self._own = {}

    def _color(self, it):
        self._own[it["label"]] = self.api.construct.arboricity_square_coloring(it["graph"])
        return self._own[it["label"]]

    def _verify(self, it, kind: int):
        coloring = self._own[it["label"]] if kind == 0 else it["inputs"][kind - 1]
        return self.api.verify.is_strongly_woody(coloring)

    def steps(self, jobs=None) -> list:
        out = []
        for it in self.items:
            out.append((f"color {it['label']}", lambda it=it: self._color(it)))
            for kind, what in enumerate(("own", "rainbow", "planted")):
                out.append((f"verify {what} {it['label']}",
                            lambda it=it, kind=kind: self._verify(it, kind)))
        return out

    def _per_graph(self, results):
        return [(it, results[4 * i], results[4 * i + 1:4 * i + 4])
                for i, it in enumerate(self.items)]

    def digests(self, results) -> list[str]:
        return [_sha([it["label"], list(own.colors)]
                     + [[ok, w.to_json() if w else None] for ok, w in verdicts])
                for it, own, verdicts in self._per_graph(results)]

    def check(self, results) -> list[str]:
        return [f for it, own, verdicts in self._per_graph(results)
                for f in checks.check_scale(it, own, verdicts)]


class Stretch:
    """Every exact solver on every stretch instance."""

    unit = "solves"
    layer_jobs = None
    SOLVERS = (("zeta", "strong_arboricity_exact"), ("chi_a", "acyclic_chromatic_exact"),
               ("chi", "chromatic_exact"), ("chi_index", "chromatic_index_exact"))

    def __init__(self, name: str, seed: int, out_dir: Path, api: Api):
        self.api = api
        self.solves = [(label, name, g, key, fn) for label, name, g in gen.stretch_set(seed)
                       for key, fn in self.SOLVERS]
        self.units = self.ops = len(self.solves)

    def steps(self, jobs=None) -> list:
        return [(f"{key} {label}", lambda g=g, fn=fn: getattr(self.api.exact, fn)(g))
                for label, _, g, key, fn in self.solves]

    def digests(self, results) -> list[str]:
        return [_sha([label, key, res.value, res.nodes,
                      list(res.certificate.colors) if res.certificate else None])
                for (label, _, _, key, _), res in zip(self.solves, results)]

    def check(self, results) -> list[str]:
        expected = json.loads((gen.DATA_DIR / "stretch.json").read_text(encoding="utf-8"))
        fails = (checks.check_solve(label, g, key, res, expected[name][key])
                 for (label, name, g, key, _), res in zip(self.solves, results))
        return [f for f in fails if f]


WORKLOADS = {
    "hunt-dense": Hunt,
    "hunt-planar-par": Hunt,
    "scale-sparse": Scale,
    "exact-stretch": Stretch,
}


def build(name: str, seed: int, out_dir: Path, package: str = "woody"):
    return WORKLOADS[name](name, seed, out_dir, Api(package))
