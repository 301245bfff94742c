"""Tests for the benchmark itself (not part of the library's suite).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import woody.harness  # noqa: E402
from woody.exact import strong_arboricity_exact  # noqa: E402
from woody.graphs import complete_graph, find_triangle, parse_graph6  # noqa: E402
from woody.verify import is_strongly_woody  # noqa: E402


def _edges(graphs):
    return [g.edges for g in graphs]


def test_samples_repeat_per_seed_and_move_with_it():
    assert gen.dense_sample(3) == gen.dense_sample(3)
    assert gen.dense_sample(3) != gen.dense_sample(4)
    assert gen.planar_sample(3) == gen.planar_sample(3)
    assert gen.planar_sample(3) != gen.planar_sample(4)


def test_dense_sample_keeps_the_costliest_graphs():
    cost = [gen.decode_answer(a)[5] for a in gen.read_answers(gen.DENSE_CORPUS)]
    top = sorted(range(len(cost)), key=lambda i: (-cost[i], i))[:gen.DENSE_CERTAIN]
    for seed in (0, 1):
        lines = {line for _, line, _ in gen.dense_sample(seed)}
        assert {i + 1 for i in top} <= lines


def test_generated_graphs_repeat_per_seed():
    a, b, c = gen.scale_graphs(5), gen.scale_graphs(5), gen.scale_graphs(6)
    assert _edges(x["graph"] for x in a) == _edges(x["graph"] for x in b)
    assert [x["planted"] for x in a] == [x["planted"] for x in b]
    assert _edges(x["graph"] for x in a) != _edges(x["graph"] for x in c)
    s1, s2, s3 = gen.stretch_set(5), gen.stretch_set(5), gen.stretch_set(6)
    assert _edges(g for _, _, g in s1) == _edges(g for _, _, g in s2)
    assert _edges(g for _, _, g in s1) != _edges(g for _, _, g in s3)


def test_stretch_keeps_natural_labelings():
    natural = {name: make().edges for name, make in gen.STRETCH_GRAPHS.items()}
    for label, name, g in gen.stretch_set(9):
        if label == name:
            assert g.edges == natural[name]


def test_grid_matching_coloring_is_strongly_woody_and_planted_is_not():
    from woody.graphs import Graph
    from woody.verify import EdgeColoring
    for tri in (False, True):
        edges, colors = gen.grid_edges(8, tri)
        g = Graph(64, edges)
        assert is_strongly_woody(EdgeColoring(g, colors))[0]
    item = gen.scale_graphs(2)[0]
    ok, witness = is_strongly_woody(EdgeColoring(item["graph"], item["planted"]))
    assert not ok and witness.color == max(item["planted"])


def test_reference_steps_run_next_to_their_counterparts_in_alternating_order():
    calls = []
    own = [(f"s{i}", lambda i=i: calls.append(("own", i)) or i) for i in range(4)]
    ref = [(f"s{i}", lambda i=i: calls.append(("ref", i))) for i in range(4)]
    out, times, ref_times = run.run_steps(own, ref)
    assert out == [0, 1, 2, 3] and list(times) == list(ref_times) == ["s0", "s1", "s2", "s3"]
    assert calls == [("own", 0), ("ref", 0), ("ref", 1), ("own", 1),
                     ("own", 2), ("ref", 2), ("ref", 3), ("own", 3)]
    calls.clear()
    run.run_steps(own, ref, flip=True)
    assert calls[:2] == [("ref", 0), ("own", 0)]


def _span(name, start, end, parent, result=None):
    return [name, float(start), float(end), parent, result]


def test_self_times_subtract_direct_children_only():
    recs = [
        _span("bench.pass", 0, 10, -1),
        _span("harness.hunt_graph", 1, 4, 0),
        _span("exact.zeta", 2, 3, 1),
        _span("verify.strong", 5, 9, 0),
    ]
    own = spans.self_times(recs)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == recs[0][2] - recs[0][1]


def test_profile_counts_lower_bounds_and_verdicts():
    recs = [
        _span("bench.pass", 0, 20, -1),
        _span("exact.zeta", 1, 9, 0, {"value": 4, "nodes": 100, "exact": True}),
        _span("exact.zeta_lb", 2, 3, 1, {"value": 3}),
        _span("verify.strong", 4, 5, 1, {"ok": True}),
        _span("exact.zeta", 10, 12, 0, {"value": 3, "nodes": 7, "exact": True}),
        _span("exact.zeta_lb", 10, 11, 4, {"value": 3}),
        _span("verify.strong", 13, 16, 0, {"ok": False}),
    ]
    totals, _ = spans.profile(recs, 0, len(recs))
    assert totals["wall"] == 20.0
    assert totals["exact.zeta.nodes"] == 107
    assert (totals["zeta.solves"], totals["zeta.tight"], totals["zeta.refuted"]) == (2, 1, 1)
    assert totals["exact.zeta.self"] == (8 - 1 - 1) + (2 - 1)
    assert totals["verify.strong.accept"] == 1.0
    assert totals["verify.strong.reject"] == 3.0
    layers = sum(v for k, v in totals.items() if k.startswith("layer."))
    assert layers == totals["wall"]


def test_tracer_restores_the_wrapped_functions():
    before = [getattr(m, a) for m, a, _, _ in spans.TARGETS]
    original = woody.exact.strong_arboricity_exact
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert woody.exact.strong_arboricity_exact is not original
        woody.exact.strong_arboricity_exact(complete_graph(4))
    finally:
        tracer.uninstall()
    assert [getattr(m, a) for m, a, _, _ in spans.TARGETS] == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "exact.zeta" and "exact.zeta_lb" in names
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "exact.zeta_lb")


@pytest.fixture(scope="module")
def small_hunt(tmp_path_factory):
    sources = gen.planar_sample(0)[:40]
    path = tmp_path_factory.mktemp("hunt") / "sample.g6"
    path.write_text("".join(t + "\n" for _, _, t in sources), encoding="ascii")
    outcome = woody.harness.run_hunt([str(path)], woody.harness.HuntConfig())
    answers = checks.load_answers(sorted({c for c, _, _ in sources}))
    return outcome, sources, answers


def test_checker_accepts_a_correct_hunt(small_hunt):
    outcome, sources, answers = small_hunt
    assert checks.check_hunt(outcome, sources, answers) == []


def test_checker_catches_a_planted_wrong_zeta(small_hunt):
    outcome, sources, answers = small_hunt
    bad = copy.deepcopy(outcome)
    bad.records[0]["zeta"] += 1
    fails = checks.check_hunt(bad, sources, answers)
    assert len(fails) == 1 and "expected" in fails[0]


def test_checker_catches_a_recolored_edge(small_hunt):
    outcome, sources, answers = small_hunt
    bad = copy.deepcopy(outcome)
    graphs = [(r, parse_graph6(r["graph6"])) for r in bad.records]
    rec, g = next((r, g) for r, g in graphs if find_triangle(g))
    # a triangle is rainbow; giving uv the color of vw leaves a monochromatic
    # path u-v-w closed by uw
    u, v, w = find_triangle(g)
    rec["zeta_coloring"][g.edge_id(u, v)] = rec["zeta_coloring"][g.edge_id(v, w)]
    fails = checks.check_hunt(bad, sources, answers)
    assert len(fails) == 1 and "certificate" in fails[0]


def test_checker_catches_wrong_stretch_and_scale_answers():
    g = complete_graph(5)
    res = strong_arboricity_exact(g)
    assert checks.check_solve("K5", g, "zeta", res, res.value) is None
    assert checks.check_solve("K5", g, "zeta", res, res.value + 1) is not None
    item = gen.scale_graphs(1)[0]
    from woody.construct import arboricity_square_coloring
    from woody.verify import EdgeColoring
    own = arboricity_square_coloring(item["graph"])
    inputs = [own, EdgeColoring(item["graph"], item["rainbow"]),
              EdgeColoring(item["graph"], item["planted"])]
    verdicts = [is_strongly_woody(c) for c in inputs]
    assert checks.check_scale(item, own, verdicts) == []
    flipped = [verdicts[0], verdicts[1], (True, None)]
    assert len(checks.check_scale(item, own, flipped)) == 1


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER
