import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woody import (
    EdgeColoring,
    GuardError,
    VertexColoring,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    is_acyclic_vertex,
    is_p_woody,
    is_proper_vertex,
    is_strongly_woody,
    is_strongly_woody_oracle,
    is_woody,
    path_graph,
    star_graph,
    strong_arboricity_exact,
)
from woody.construct import arboricity_square_coloring
from woody.graphs import Graph
from woody.unionfind import UnionFind
from woody.verify import (
    BicoloredCycleWitness,
    BrokenCycleWitness,
    _class_path,
    is_proper_edge,
)

from conftest import (
    connected_upto,
    contract_edge,
    corpus_graphs,
    grid_graph,
    multigraph_is_woody,
    random_coloring,
    relabeled,
)


class TestEdgeColoringType:
    def test_palette_and_classes(self):
        g = cycle_graph(4)
        c = EdgeColoring(g, [0, 2, 0, None])
        assert not c.total
        assert c.palette_size == 3
        assert c.classes() == {0: [0, 2], 2: [1]}

    def test_normalized_renumbers_by_first_appearance(self):
        g = cycle_graph(4)
        c = EdgeColoring(g, [5, 1, 5, 3]).normalized()
        assert c.colors == (0, 1, 0, 2)

    def test_length_and_value_validation(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            EdgeColoring(g, [0, 1])
        with pytest.raises(ValueError):
            EdgeColoring(g, [0, 1, 2, -1])

    def test_partial_rejected_by_verifiers(self):
        g = cycle_graph(4)
        c = EdgeColoring(g, [0, 1, 2, None])
        for fn in (is_woody, is_strongly_woody):
            with pytest.raises(ValueError):
                fn(c)

    def test_vertex_coloring_shares_the_implementation(self):
        # one implementation, two types: the length is n instead of m
        g = path_graph(3)
        v = VertexColoring(g, [4, 2, 4])
        e = EdgeColoring(g, [4, 2])
        assert type(v.normalized()) is VertexColoring
        assert type(e.normalized()) is EdgeColoring
        assert v.normalized().colors == (0, 1, 0)
        assert repr(v) == "VertexColoring([4, 2, 4])"
        assert repr(e) == "EdgeColoring([4, 2])"
        assert v.used_colors() == {2, 4} and v.palette_size == 5
        with pytest.raises(ValueError, match="expected 3 entries"):
            VertexColoring(g, [0, 1])
        with pytest.raises(ValueError, match="expected 2 entries"):
            EdgeColoring(g, [0, 1, 2])

    def test_proper_edge(self):
        g = cycle_graph(4)
        assert is_proper_edge(EdgeColoring(g, [0, 1, 0, 1]))
        assert not is_proper_edge(EdgeColoring(g, [0, 0, 1, 2]))
        # edges 1 = (1, 2) and 3 = (0, 3) are disjoint
        assert is_proper_edge(EdgeColoring(g, [0, 1, 2, 1]))
        with pytest.raises(ValueError):
            is_proper_edge(EdgeColoring(g, [0, 1, None, 1]))


class TestIsWoody:
    def test_triangle_two_plus_one(self):
        ok, witness = is_woody(EdgeColoring(complete_graph(3), [0, 0, 1]))
        assert ok and witness is None

    def test_monochromatic_cycle_with_witness(self):
        g = cycle_graph(4)
        ok, witness = is_woody(EdgeColoring(g, [0, 0, 0, 0]))
        assert not ok
        assert witness.kind == "monochromatic_cycle"
        assert sorted(witness.path_edges) == [0, 1, 2, 3]
        assert witness.check(EdgeColoring(g, [0, 0, 0, 0]))

    def test_proper_edge_colorings_are_woody(self, connected_n6):
        # color classes of a proper edge coloring are matchings
        for g in connected_n6[:50]:
            colors = []
            masks = [0] * g.n
            for u, v in g.edges:
                c = 0
                while (masks[u] | masks[v]) >> c & 1:
                    c += 1
                colors.append(c)
                masks[u] |= 1 << c
                masks[v] |= 1 << c
            assert is_woody(EdgeColoring(g, colors))[0]


class TestIsStronglyWoody:
    def test_rainbow_triangle(self):
        assert is_strongly_woody(EdgeColoring(complete_graph(3), [0, 1, 2]))[0]

    def test_triangle_needs_rainbow(self):
        g = complete_graph(3)
        ok, witness = is_strongly_woody(EdgeColoring(g, [0, 0, 1]))
        assert not ok
        assert witness.kind == "monochromatic_broken_cycle"
        assert len(witness.path_edges) == 2
        assert witness.color == 0
        assert witness.check(EdgeColoring(g, [0, 0, 1]))

    def test_two_colors_twice_each_on_c4(self):
        g = cycle_graph(4)
        assert is_strongly_woody(EdgeColoring(g, [0, 0, 1, 1]))[0]
        assert is_strongly_woody(EdgeColoring(g, [0, 1, 0, 1]))[0]

    def test_three_plus_one_on_c4(self):
        g = cycle_graph(4)
        ok, witness = is_strongly_woody(EdgeColoring(g, [0, 0, 0, 1]))
        assert not ok
        assert witness.kind == "monochromatic_broken_cycle"
        assert len(witness.path_edges) == 3
        assert witness.check(EdgeColoring(g, [0, 0, 0, 1]))


class TestOracle:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert is_strongly_woody_oracle(EdgeColoring(g, [0]))

    def test_k4_properly_edge_colored(self):
        g = complete_graph(4)
        # three perfect matchings
        colors = [None] * 6
        for c, matching in enumerate([[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]):
            for u, v in matching:
                colors[g.edge_id(u, v)] = c
        assert is_strongly_woody_oracle(EdgeColoring(g, colors))

    def test_guard(self):
        g = path_graph(12)
        with pytest.raises(GuardError):
            is_strongly_woody_oracle(EdgeColoring(g, [0] * g.m))
        assert is_strongly_woody_oracle(EdgeColoring(g, list(range(11))), force=True)

    def test_exhaustive_two_colorings_n5(self):
        # every 2-coloring of every connected graph with n <= 5
        from conftest import connected_upto

        for g in connected_upto(5):
            for bits in itertools.product((0, 1), repeat=g.m):
                c = EdgeColoring(g, list(bits))
                assert is_strongly_woody(c)[0] == is_strongly_woody_oracle(c)


class TestWitnessSoundness:
    def test_every_witness_reverifies(self, connected_n6):
        rng = random.Random(20240817)
        for g in connected_n6:
            for _ in range(6):
                c = EdgeColoring(g, random_coloring(g, rng.randint(1, 3), rng))
                ok, witness = is_strongly_woody(c)
                if not ok:
                    assert witness.check(c)
                    # closing edge present in the graph and off the path
                    if witness.kind == "monochromatic_broken_cycle":
                        u, v = g.edges[witness.closing_edge]
                        assert {u, v} == {witness.vertices[0], witness.vertices[-1]}


class TestContractionLaw:
    def test_strongly_woody_iff_woody_after_every_contraction(self, connected_n6):
        rng = random.Random(4711)
        for g in connected_n6:
            if g.m == 0:
                continue
            for _ in range(5):
                colors = random_coloring(g, rng.randint(1, 4), rng)
                c = EdgeColoring(g, colors)
                strong = is_strongly_woody(c)[0]
                contracted_ok = all(
                    multigraph_is_woody(*contract_edge(g, colors, e))
                    for e in range(g.m))
                assert strong == contracted_ok, (g.edges, colors)


class TestPWoody:
    def test_p1_agrees_with_woody(self, connected_n6):
        rng = random.Random(99)
        for g in connected_n6[:60]:
            c = EdgeColoring(g, random_coloring(g, rng.randint(1, 3), rng))
            assert is_p_woody(c, 1) == is_woody(c)[0]

    def test_examples(self):
        assert is_p_woody(EdgeColoring(complete_graph(3), [0, 1, 2]), 2)
        assert not is_p_woody(EdgeColoring(cycle_graph(4), [0, 1, 0, 1]), 2)

    def test_p_validation_and_guard(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            is_p_woody(EdgeColoring(g, [0, 1, 2, 3]), 0)
        with pytest.raises(GuardError):
            is_p_woody(EdgeColoring(path_graph(11), [0] * 10), 1)

    def test_chain_on_random_colorings(self, connected_n6):
        # p-woody implies (p-1)-woody; 2-woody implies strongly woody,
        # strongly woody implies woody
        rng = random.Random(7)
        for g in connected_n6[:80]:
            c = EdgeColoring(g, random_coloring(g, rng.randint(1, 4), rng))
            for p in (3, 2):
                if is_p_woody(c, p):
                    assert is_p_woody(c, p - 1)
            if is_p_woody(c, 2):
                assert is_strongly_woody(c)[0]
            if is_strongly_woody(c)[0]:
                assert is_woody(c)[0]


class TestRefinementMonotonicity:
    def test_splitting_a_class_preserves_strong_woodiness(self, connected_n6):
        rng = random.Random(31337)
        for g in connected_n6[:40]:
            if g.m < 2:
                continue
            base = strong_arboricity_exact(g).certificate
            colors = list(base.colors)
            # split the largest class in two at a random subset
            classes = base.classes()
            color, eids = max(classes.items(), key=lambda kv: len(kv[1]))
            if len(eids) < 2:
                continue
            new_color = base.palette_size
            for e in eids:
                if rng.random() < 0.5:
                    colors[e] = new_color
            refined = EdgeColoring(g, colors)
            assert is_strongly_woody(refined)[0]


class TestVertexVerifiers:
    def test_c4_bicolored_cycle(self):
        g = cycle_graph(4)
        f = VertexColoring(g, [0, 1, 0, 1])
        assert is_proper_vertex(f)
        ok, witness = is_acyclic_vertex(f)
        assert not ok
        assert set(witness.colors) == {0, 1}
        assert witness.check(f)

    def test_c4_three_colors_acyclic(self):
        g = cycle_graph(4)
        ok, witness = is_acyclic_vertex(VertexColoring(g, [0, 1, 0, 2]))
        assert ok and witness is None

    def test_rainbow_triangle_acyclic(self):
        ok, _ = is_acyclic_vertex(VertexColoring(complete_graph(3), [0, 1, 2]))
        assert ok

    def test_improper_is_not_acyclic(self):
        g = path_graph(3)
        f = VertexColoring(g, [0, 0, 1])
        assert not is_proper_vertex(f)
        assert not is_acyclic_vertex(f)[0]

    def test_star_two_colors(self):
        g = star_graph(5)
        ok, _ = is_acyclic_vertex(VertexColoring(g, [0, 1, 1, 1, 1, 1]))
        assert ok


class TestCycleEnumeration:
    def test_counts_on_known_graphs(self):
        assert sum(1 for _ in enumerate_cycles(cycle_graph(5))) == 1
        assert sum(1 for _ in enumerate_cycles(complete_graph(4))) == 7
        assert sum(1 for _ in enumerate_cycles(path_graph(6))) == 0
        # K5: C(5,3) + 3*C(5,4) + 12*C(5,5) = 10 + 15 + 12 = 37
        assert sum(1 for _ in enumerate_cycles(complete_graph(5))) == 37

    def test_each_cycle_emitted_once_in_canonical_form(self):
        def canonical(cyc):
            i = cyc.index(min(cyc))
            rot = cyc[i:] + cyc[:i]
            rev = (rot[0],) + tuple(reversed(rot[1:]))
            return min(rot, rev)

        emitted = list(enumerate_cycles(complete_graph(5)))
        assert len(emitted) == len(set(emitted))
        for cyc in emitted:
            assert cyc == canonical(cyc)
        assert len({canonical(c) for c in emitted}) == len(emitted)

    @given(st.integers(4, 7))
    @settings(max_examples=4, deadline=None)
    def test_max_length_filter(self, n):
        g = complete_graph(n)
        assert all(len(c) <= 4 for c in enumerate_cycles(g, max_length=4))


# ---------------------------------------------------------------------------
# the color-major scan the verifiers used before the port union-find: one
# union-find per color class (or color pair), rebuilt for the strong check,
# and every edge tested against every class. Kept here as the reference the
# witnesses must match byte for byte.


def ref_is_woody(c):
    g = c.parent
    for color, eids in sorted(c.classes().items()):
        uf = UnionFind(g.n)
        placed = []
        for e in eids:
            u, v = g.edges[e]
            if not uf.union(u, v):
                verts, path = _class_path(g, placed, u, v)
                return False, BrokenCycleWitness(
                    "monochromatic_cycle", color,
                    tuple(verts), tuple(path) + (e,), None)
            placed.append(e)
    return True, None


def ref_is_strongly_woody(c):
    ok, witness = ref_is_woody(c)
    if not ok:
        return False, witness
    g = c.parent
    for color, eids in sorted(c.classes().items()):
        uf = UnionFind(g.n)
        for e in eids:
            u, v = g.edges[e]
            uf.union(u, v)
        for idx, (u, v) in enumerate(g.edges):
            if c.colors[idx] == color:
                continue
            if uf.find(u) == uf.find(v):
                verts, path = _class_path(g, eids, u, v)
                return False, BrokenCycleWitness(
                    "monochromatic_broken_cycle", color,
                    tuple(verts), tuple(path), idx)
    return True, None


def ref_is_acyclic_vertex(f):
    if not is_proper_vertex(f):
        return False, None
    g = f.parent
    by_pair = {}
    for idx, (u, v) in enumerate(g.edges):
        a, b = f.colors[u], f.colors[v]
        by_pair.setdefault((min(a, b), max(a, b)), []).append(idx)
    for pair, eids in sorted(by_pair.items()):
        uf = UnionFind(g.n)
        placed = []
        for e in eids:
            u, v = g.edges[e]
            if not uf.union(u, v):
                verts, path = _class_path(g, placed, u, v)
                return False, BicoloredCycleWitness(
                    pair, tuple(verts), tuple(path) + (e,))
            placed.append(e)
    return True, None


def _as_json(result):
    ok, witness = result
    return ok, witness.to_json() if witness is not None else None


def greedy_vertex_coloring(g: Graph, rng: random.Random) -> list[int]:
    order = list(range(g.n))
    rng.shuffle(order)
    colors = [None] * g.n
    for v in order:
        used = {colors[w] for w in g.adj[v]}
        colors[v] = min(set(range(len(used) + 1)) - used)
    return colors


def _edge_colorings(g: Graph, rng: random.Random):
    for palette in (2, 3, 4, 6):
        yield random_coloring(g, palette, rng)
    rainbow = list(range(g.m))
    rng.shuffle(rainbow)
    yield rainbow


def _vertex_colorings(g: Graph, rng: random.Random):
    yield [rng.randrange(2) for _ in range(g.n)]
    yield [rng.randrange(3) for _ in range(g.n)]
    yield greedy_vertex_coloring(g, rng)


class TestPortVerifierMatchesColorMajorScan:
    def _compare(self, g: Graph, rng: random.Random) -> None:
        for colors in _edge_colorings(g, rng):
            c = EdgeColoring(g, colors)
            assert _as_json(is_woody(c)) == _as_json(ref_is_woody(c)), colors
            assert _as_json(is_strongly_woody(c)) == _as_json(ref_is_strongly_woody(c)), colors
        for colors in _vertex_colorings(g, rng):
            f = VertexColoring(g, colors)
            assert _as_json(is_acyclic_vertex(f)) == _as_json(ref_is_acyclic_vertex(f)), colors

    def test_corpus_graphs(self):
        rng = random.Random(4)
        graphs = (connected_upto(7)[::7]
                  + corpus_graphs("planar_connected_n8.g6")[::40]
                  + corpus_graphs("triangle_free_planar_upto12.g6")[::20])
        for g in graphs:
            self._compare(g, rng)
            self._compare(relabeled(g, rng), rng)

    def test_relabeled_grid(self):
        rng = random.Random(30)
        g = relabeled(grid_graph(30, 30), rng)
        for colors in _vertex_colorings(g, rng):
            f = VertexColoring(g, colors)
            assert _as_json(is_acyclic_vertex(f)) == _as_json(ref_is_acyclic_vertex(f))
        # random colorings of a grid close a one-color square almost surely;
        # recoloring a few edges of the square pipeline's coloring gives
        # broken-cycle witnesses as well
        square = arboricity_square_coloring(g)
        inputs = [square] + [EdgeColoring(g, random_coloring(g, k, rng)) for k in (2, 4, 8)]
        for recolored in (1, 2, 3, 5, 10, 40):
            colors = list(square.colors)
            for e in rng.sample(range(g.m), recolored):
                colors[e] = rng.randrange(square.palette_size)
            inputs.append(EdgeColoring(g, colors))
        for c in inputs:
            assert _as_json(is_woody(c)) == _as_json(ref_is_woody(c))
            assert _as_json(is_strongly_woody(c)) == _as_json(ref_is_strongly_woody(c))


class TestWitnessOrder:
    def test_smallest_color_wins_over_earlier_closing_edge(self):
        # color 1's path 3-4-5 is closed by edge 0, color 0's path 0-1-2 by
        # edge 5: a scan in edge order meets color 1 first, but the witness
        # is the smallest color's
        g = Graph(6, [(3, 5), (3, 4), (4, 5), (0, 1), (1, 2), (0, 2)])
        c = EdgeColoring(g, [2, 1, 1, 0, 0, 2])
        ok, witness = is_strongly_woody(c)
        assert not ok
        assert witness == BrokenCycleWitness(
            "monochromatic_broken_cycle", 0, (0, 1, 2), (3, 4), 5)
        assert witness.check(c)
        assert _as_json((ok, witness)) == _as_json(ref_is_strongly_woody(c))


class TestScaling:
    def test_rainbow_grid_60(self):
        g = grid_graph(60, 60)
        assert g.m == 7080
        t0 = time.perf_counter()
        ok, witness = is_strongly_woody(EdgeColoring(g, range(g.m)))
        assert time.perf_counter() - t0 < 2.0
        assert ok and witness is None

    def test_planted_violation_on_grid_60(self):
        g = grid_graph(60, 60)
        v = 29 * 60 + 29
        sides = [g.edge_id(v, v + 1), g.edge_id(v + 1, v + 61), g.edge_id(v + 60, v + 61)]
        colors = list(range(g.m))
        for e in sides:
            colors[e] = colors[sides[0]]
        c = EdgeColoring(g, colors)
        ok, witness = is_strongly_woody(c)
        assert not ok
        assert witness.kind == "monochromatic_broken_cycle"
        assert witness.closing_edge == g.edge_id(v, v + 60)
        assert sorted(witness.path_edges) == sorted(sides)
        assert witness.check(c)
