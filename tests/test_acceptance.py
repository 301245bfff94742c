"""Acceptance suite: one test per criterion, each printing a PASS line
with its measurements (run with -s to see them on success).

Corpora: the exhaustive connected / planar-connected graph6 files under
tests/data (see tests/data/README.md for provenance) plus named family
graphs built in conftest.
"""

import math
import random
import time

import pytest

from woody.construct import (
    arboricity_square_coloring,
    degeneracy_greedy_vertex_coloring,
    derived_coloring,
    partition_coloring,
    triangle_free_planar_coloring,
)
from woody.decompose import arboricity
from woody.exact import (
    Budget,
    acyclic_chromatic_exact,
    chromatic_index_exact,
    find_forest_2independent_partition,
    strong_arboricity_exact,
)
from woody.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    has_triangle,
    parse_graph6,
)
from woody.harness import HuntConfig, run_hunt
from woody.verify import (
    EdgeColoring,
    is_strongly_woody,
    is_strongly_woody_oracle,
)

from conftest import (
    DATA,
    complete_bipartite,
    connected_upto,
    contract_edge,
    corpus_graphs,
    fractional_arboricity_bruteforce,
    grid_graph,
    mcgee_graph,
    multigraph_is_woody,
    petersen_graph,
    random_coloring,
    subdivide,
)


def report(cid: str, message: str) -> None:
    print(f"\nACCEPTANCE {cid} PASS: {message}")


def wheel_graph(rim: int) -> Graph:
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


@pytest.fixture(scope="module")
def connected_n8_all():
    return connected_upto(8)


@pytest.fixture(scope="module")
def planar_hunt_outcome():
    """Shared run for criteria 9 and 10: hunt over all connected planar
    graphs with up to 8 vertices at default budgets."""
    paths = [str(DATA / f"planar_connected_n{n}.g6") for n in range(1, 9)]
    config = HuntConfig(
        conjectures=("planar4", "twoarb", "col", "girth-eq"),
        provenance="networkx atlas + augmentation; declared planar",
    )
    t0 = time.monotonic()
    outcome = run_hunt(paths, config, jobs=1)
    outcome.elapsed = time.monotonic() - t0
    return outcome


def test_c01_verifier_oracle_equivalence(connected_n6):
    t0 = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for g in connected_n6:
        for i in range(52):
            palette = 1 + i % 4
            c = EdgeColoring(g, random_coloring(g, palette, rng))
            assert is_strongly_woody(c)[0] == is_strongly_woody_oracle(c), \
                (g.edges, c.colors)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("C1", f"{checked} colorings on {len(connected_n6)} graphs agree "
                 f"with the oracle in {elapsed:.1f}s (< 60s)")


def test_c02_contraction_law(connected_n6):
    t0 = time.monotonic()
    rng = random.Random(2)
    checked = 0
    for g in connected_n6:
        if g.m == 0:
            continue
        for i in range(52):
            colors = random_coloring(g, 1 + i % 4, rng)
            strong = is_strongly_woody(EdgeColoring(g, colors))[0]
            after = all(
                multigraph_is_woody(*contract_edge(g, colors, e))
                for e in range(g.m))
            assert strong == after, (g.edges, colors)
            checked += 1
    report("C2", f"strongly woody iff woody under every single-edge "
                 f"contraction for {checked} colorings "
                 f"({time.monotonic() - t0:.1f}s)")


def test_c03_nash_williams_equality(connected_n8_all):
    t0 = time.monotonic()
    nine = [
        complete_graph(9),
        cycle_graph(9),
        wheel_graph(8),
        complete_bipartite(4, 5),
        grid_graph(3, 3),
        subdivide(cycle_graph(3), 2),
    ]
    count = tighter = 0
    for g in connected_n8_all + nine:
        if g.n < 2:
            continue
        k, decomp = arboricity(g)
        oracle = fractional_arboricity_bruteforce(g).density
        witness = decomp.density_certificate()
        nc = len(witness.vertices)
        assert witness.num_edges > (k - 1) * (nc - 1), (g.edges, k, witness.vertices)
        assert math.ceil(witness.density) == k == math.ceil(oracle), (g.edges, k, oracle)
        assert decomp.is_valid()
        count += 1
        tighter += nc < g.n
    report("C3", f"arboricity equals ceil(max density) on {count} graphs "
                 f"with n <= 9, each with a witness that proves it, {tighter} "
                 f"of them on a proper subset ({time.monotonic() - t0:.1f}s)")


def test_c04_derived_coloring_instancewise(connected_n8_all):
    t0 = time.monotonic()
    for g in connected_n8_all:
        chia = acyclic_chromatic_exact(g)
        assert chia.exact
        derived = derived_coloring(g, chia.certificate, chia.value)
        assert is_strongly_woody(derived)[0], g.edges
        assert derived.palette_size <= chia.value
        zeta = strong_arboricity_exact(g)
        assert zeta.exact
        assert zeta.value <= chia.value, (g.edges, zeta.value, chia.value)
    report("C4", f"derived colorings strongly woody and zeta <= chi_a on all "
                 f"{len(connected_n8_all)} connected graphs with n <= 8 "
                 f"({time.monotonic() - t0:.1f}s)")


def test_c05_clique_identity():
    expected = {3: 3, 4: 3, 5: 5, 6: 5}
    times = []
    for n, value in expected.items():
        g = complete_graph(n)
        t0 = time.monotonic()
        zeta = strong_arboricity_exact(g)
        chi_prime = chromatic_index_exact(g)
        dt = time.monotonic() - t0
        times.append(dt)
        assert dt < 30.0
        assert zeta.value == chi_prime.value == value, (n, zeta.value, chi_prime.value)
    report("C5", "zeta(K_n) = chromatic index = 3, 3, 5, 5 for n = 3..6 "
                 f"(max solve {max(times):.2f}s < 30s)")


def test_c06_triangle_free_planar_pipeline():
    t0 = time.monotonic()
    graphs = corpus_graphs("triangle_free_planar_upto12.g6")
    assert graphs and all(g.n <= 12 for g in graphs)
    for g in graphs:
        c = triangle_free_planar_coloring(g)
        assert c.palette_size <= 4
        assert is_strongly_woody(c)[0]
    report("C6", f"{len(graphs)} triangle-free planar graphs colored with "
                 f"<= 4 colors, all verifier-true ({time.monotonic() - t0:.1f}s)")


def test_c07_square_pipeline(connected_n8_all):
    t0 = time.monotonic()
    extras = [
        complete_graph(9), complete_graph(10), petersen_graph(),
        complete_bipartite(5, 5), grid_graph(2, 5), cycle_graph(10),
        wheel_graph(9),
    ]
    count = 0
    for g in connected_n8_all + extras:
        ell, _ = arboricity(g)
        chi = degeneracy_greedy_vertex_coloring(g).palette_size
        c = arboricity_square_coloring(g)
        assert is_strongly_woody(c)[0], g.edges
        if g.m:
            assert c.palette_size <= 2 * chi * ell <= 4 * ell * ell, \
                (g.edges, c.palette_size, chi, ell)
        count += 1
    report("C7", f"square pipeline verifier-true within 2*chi*arb <= 4*arb^2 "
                 f"on {count} graphs with n <= 10 ({time.monotonic() - t0:.1f}s)")


def test_c08_partition_pipeline():
    t0 = time.monotonic()
    cases = [(f"C{n}", cycle_graph(n)) for n in range(13, 21)]
    cubics = {
        "petersen": petersen_graph(),
        "K4": complete_graph(4),
        "K33": complete_bipartite(3, 3),
        "prism": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)]),
    }
    cases += [(f"{name} subdivided 5x", subdivide(g, 5)) for name, g in cubics.items()]
    for name, g in cases:
        res = find_forest_2independent_partition(g)
        assert res.found, name
        c = partition_coloring(g, res.a, res.f)
        assert c.palette_size == 2
        assert is_strongly_woody(c)[0], name
    report("C8", f"partition search + 2-coloring verified on {len(cases)} "
                 f"graphs ({time.monotonic() - t0:.1f}s)")


def test_c09_conjecture_hunt_planar(planar_hunt_outcome):
    outcome = planar_hunt_outcome
    assert outcome.elapsed < 1800.0
    assert outcome.exit_code == 0
    assert outcome.summary["violations_total"] == 0
    assert outcome.summary["graphs_reported"] == 6749
    assert outcome.summary["parse_errors"] == 0
    for name in ("planar4", "twoarb", "col"):
        assert outcome.summary[f"{name}_violated"] == 0
        assert outcome.summary[f"{name}_unresolved"] == 0
        assert outcome.summary[f"{name}_holds"] == 6749
    report("C9", f"zero violations of planar4/twoarb/col over 6749 connected "
                 f"planar graphs n <= 8 in {outcome.elapsed / 60.0:.1f} min "
                 f"(< 30 min)")


def test_c10_zeta4_witness_reporting(planar_hunt_outcome):
    outcome = planar_hunt_outcome
    assert "zeta_eq_4_count" in outcome.summary
    count = outcome.summary["zeta_eq_4_count"]
    reverified = 0
    for rec in outcome.records:
        if rec["zeta_exact"] and rec["zeta"] == 4:
            g = parse_graph6(rec["graph6"])
            c = EdgeColoring(g, rec["zeta_coloring"])
            assert is_strongly_woody(c)[0]
            assert c.palette_size == 4
            reverified += 1
    assert reverified == count
    report("C10", f"summary reports zeta_eq_4_count={count}; all {reverified} "
                  f"certificates re-verify (existence within n <= 8 not asserted)")


def test_c11_hunt_determinism(tmp_path):
    from woody.cli import main

    blobs = []
    for jobs in (1, 8):
        rep = tmp_path / f"r{jobs}.jsonl"
        summ = tmp_path / f"s{jobs}.csv"
        code = main([
            "hunt", str(DATA / "planar_connected_n6.g6"),
            "--conjectures", "planar4,twoarb,col,girth-eq",
            "--jobs", str(jobs),
            "--report", str(rep), "--summary", str(summ),
        ])
        assert code == 0
        blobs.append((rep.read_bytes(), summ.read_bytes()))
    assert blobs[0] == blobs[1]
    report("C11", "hunt reports byte-identical with --jobs 1 and --jobs 8")


def test_c12_stretch_mcgee():
    g = mcgee_graph()
    res = strong_arboricity_exact(g, Budget(max_nodes=20_000_000, max_seconds=120))
    if res.exact:
        assert res.value == 2
        assert is_strongly_woody(res.certificate)[0]
        report("C12", f"McGee graph solved exactly: zeta = 2 ({res.nodes} nodes)")
    else:
        report("C12", f"informational: budget exhausted with bounds "
                      f"[{res.lower}, {res.upper}] (non-blocking)")
