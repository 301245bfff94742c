import random
import time

import pytest

import woody.construct
from woody.construct import (
    arboricity_square_coloring,
    degeneracy_greedy_vertex_coloring,
    depth_parity_shading,
    derived_coloring,
    partition_coloring,
    product_coloring,
    shaded_product,
    triangle_free_planar_coloring,
)
from woody.decompose import ForestDecomposition, arboricity
from woody.errors import PreconditionError
from woody.exact import acyclic_chromatic_exact, chromatic_exact
from woody.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    has_triangle,
    path_graph,
    star_graph,
)
from woody.verify import (
    EdgeColoring,
    VertexColoring,
    is_proper_vertex,
    is_strongly_woody,
)

from conftest import (
    color_classes,
    complete_bipartite,
    corpus_graphs,
    cube_graph,
    grid_graph,
    relabeled,
    shading_oracle,
)


class TestDerivedColoring:
    def test_rainbow_triangle_from_rainbow_vertices(self):
        g = complete_graph(3)
        c = derived_coloring(g, VertexColoring(g, [0, 1, 2]), 3)
        assert sorted(c.colors) == [0, 1, 2]
        assert is_strongly_woody(c)[0]

    def test_path_modular_sums(self):
        g = path_graph(3)
        c = derived_coloring(g, VertexColoring(g, [0, 1, 0]), 2)
        assert c.colors == (1, 1)
        assert is_strongly_woody(c)[0]

    def test_c4_example(self):
        g = cycle_graph(4)
        c = derived_coloring(g, VertexColoring(g, [0, 1, 0, 2]), 3)
        assert c.colors == (1, 1, 2, 2)
        assert is_strongly_woody(c)[0]

    def test_color_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            derived_coloring(g, VertexColoring(g, [0, 2, 0]), 2)

    def test_acyclic_certificate_gives_strongly_woody(self, connected_n6):
        for g in connected_n6[::5]:
            res = acyclic_chromatic_exact(g)
            c = derived_coloring(g, res.certificate, res.value)
            assert is_strongly_woody(c)[0]
            assert c.palette_size <= res.value


class TestDepthParityShading:
    def test_star_single_shade(self):
        # rooted at a leaf: the edge up to the centre turns over when the
        # star is re-rooted at vertex 0
        g = star_graph(3)
        d = ForestDecomposition(g, (0, 0, 0), 1, rooting=((2, 0, 1, -1),))
        c = depth_parity_shading(d)
        assert c.colors == (0, 0, 0)

    def test_path_alternates(self):
        g = path_graph(5)
        d = ForestDecomposition(g, (0,) * 4, 1, rooting=((0, 1, -1, 2, 3),))
        c = depth_parity_shading(d)
        assert c.colors == (0, 1, 0, 1)

    def test_class_with_a_cycle_is_refused(self):
        # a rooting of the 4-cycle's path leaves its closing edge the parent
        # edge of neither end
        g = cycle_graph(4)
        d = ForestDecomposition(g, (1,) * 4, 2, rooting=((-1,) * 4, (-1, 0, 1, 2)))
        with pytest.raises(ValueError, match="forest 1: an edge is the parent edge of neither"):
            depth_parity_shading(d)

    @pytest.mark.parametrize("g, assignment, rooting, match", [
        (path_graph(3), (0, 0), None, "no rooting"),
        (path_graph(3), (0, 1), ((-1, -1, 1), (-1, -1, 1)),
         "forest 0: parent edge 1 of vertex 2 is not a forest edge"),
        (path_graph(3), (0, 0), ((-1, -1, 0),), "parent edge 0 of vertex 2 is not a forest edge"),
        (path_graph(3), (0, 0), ((0, 0, 1),), "edge 0 is the parent edge of both ends"),
        # parent edges that run round a 4-cycle: the climb never meets a root
        (cycle_graph(4), (0,) * 4, ((0, 1, 2, 3),), "climb from vertex 0 revisits vertex 0"),
    ], ids=["no-rooting", "other-forest", "not-at-vertex", "both-ends", "round-a-cycle"])
    def test_a_bad_rooting_is_refused(self, g, assignment, rooting, match):
        d = ForestDecomposition(g, assignment, 1 + max(assignment), rooting=rooting)
        with pytest.raises(ValueError, match=match):
            depth_parity_shading(d)

    def test_matches_the_walk_oracle(self, connected_n7):
        # every tree re-rooted at its lowest vertex, whichever root
        # arboricity gave it and whichever path (slot seed or exchange
        # search) built it
        rng = random.Random(28)
        graphs = (connected_n7 + corpus_graphs("planar_connected_n8.g6")
                  + corpus_graphs("triangle_free_planar_upto12.g6")
                  + [complete_graph(n) for n in range(3, 13)]
                  + [complete_bipartite(a, b) for a in range(1, 7) for b in range(1, 7)]
                  + [relabeled(grid_graph(30, 30, triangulated=True), rng)])
        for g in graphs:
            _, d = arboricity(g)
            assert list(depth_parity_shading(d).colors) == shading_oracle(g, d.assignment)

    def test_no_monochromatic_three_edge_path(self, connected_n6):
        # direct path search per shade
        for g in connected_n6[::3]:
            if g.m == 0:
                continue
            k, decomp = arboricity(g)
            c = depth_parity_shading(decomp)
            assert c.palette_size <= 2 * k
            for color, eids in color_classes(c).items():
                nbrs = {}
                for e in eids:
                    u, v = g.edges[e]
                    nbrs.setdefault(u, set()).add(v)
                    nbrs.setdefault(v, set()).add(u)
                # any path of 3 edges would give a middle edge with both
                # endpoints of degree >= 2 inside the shade
                for e in eids:
                    u, v = g.edges[e]
                    assert len(nbrs[u]) == 1 or len(nbrs[v]) == 1, (
                        color, eids, g.edges)


class TestTriangleFreePlanarPipeline:
    def test_c6(self):
        c = triangle_free_planar_coloring(cycle_graph(6))
        assert c.palette_size <= 4
        assert is_strongly_woody(c)[0]

    def test_cube(self):
        c = triangle_free_planar_coloring(cube_graph())
        assert c.palette_size <= 4
        assert is_strongly_woody(c)[0]

    def test_triangle_rejected(self):
        with pytest.raises(PreconditionError):
            triangle_free_planar_coloring(complete_graph(4))

    def test_bad_shading_is_refused_naming_the_witness(self, monkeypatch):
        # the pipeline's output passes the verification gate: one color on
        # C6 is a monochromatic cycle, and the error names it
        monkeypatch.setattr(woody.construct, "depth_parity_shading",
                            lambda d: EdgeColoring(d.parent, [0] * d.parent.m))
        with pytest.raises(AssertionError, match="monochromatic_cycle"):
            triangle_free_planar_coloring(cycle_graph(6))

    def test_dense_triangle_free_rejected_with_certificate(self):
        # K_{4,4} is triangle-free with arboricity 3
        g = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4)])
        with pytest.raises(PreconditionError) as err:
            triangle_free_planar_coloring(g)
        assert err.value.certificate is not None

    def test_refuses_k12_12_with_a_checked_witness(self):
        # K12,12 is triangle-free and its own density witness: 144 edges
        # over 23 need 7 forests
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as err:
            triangle_free_planar_coloring(complete_bipartite(12, 12))
        elapsed = time.perf_counter() - start
        assert str(err.value) == "graph needs 7 forests, not 2"
        cert = err.value.certificate
        assert cert.vertices == frozenset(range(24)) and cert.check(7)
        assert elapsed < 0.1

    def test_corpus(self):
        for g in corpus_graphs("triangle_free_planar_upto12.g6")[::9]:
            c = triangle_free_planar_coloring(g)
            assert c.palette_size <= 4
            assert is_strongly_woody(c)[0]


class TestProductColoring:
    def test_palette_bound(self):
        g = cycle_graph(6)
        a = EdgeColoring(g, [0, 1, 0, 1, 0, 1])
        b = EdgeColoring(g, [0, 0, 1, 1, 2, 2])
        p = product_coloring(g, a, b)
        assert p.palette_size <= a.palette_size * b.palette_size

    def test_product_with_self_is_renaming(self):
        g = cycle_graph(5)
        a = EdgeColoring(g, [3, 1, 3, 0, 1])
        p = product_coloring(g, a, a)
        assert p.colors == a.normalized().colors

    def test_renumbers_pairs_by_first_appearance(self):
        rng = random.Random(7)
        for g in corpus_graphs("connected_n6.g6")[::7]:
            a = EdgeColoring(g, [rng.randrange(4) for _ in range(g.m)])
            b = EdgeColoring(g, [rng.randrange(3) for _ in range(g.m)])
            first: dict = {}
            pairs = list(zip(a.colors, b.colors))
            for pair in pairs:
                first.setdefault(pair, len(first))
            assert product_coloring(g, a, b).colors == tuple(map(first.get, pairs))

    def test_parent_mismatch(self):
        g, h = cycle_graph(4), cycle_graph(4)
        with pytest.raises(ValueError):
            product_coloring(g, EdgeColoring(g, [0] * 4), EdgeColoring(h, [0] * 4))

    def test_chromatic_times_shading_on_k4(self):
        g = complete_graph(4)
        chi = chromatic_exact(g)
        ell, decomp = arboricity(g)
        a = derived_coloring(g, chi.certificate, chi.value)
        b = depth_parity_shading(decomp)
        p = product_coloring(g, a, b)
        assert is_strongly_woody(p)[0]
        assert p.palette_size <= 2 * chi.value * ell


class TestShadedProduct:
    def test_is_the_derived_coloring_times_the_shading(self, connected_n6):
        # the one product construction behind color --method product and
        # the square pipeline's graphs with a triangle
        for g in connected_n6[::5]:
            chi = chromatic_exact(g)
            ell, decomp = arboricity(g)
            c = shaded_product(g, chi.certificate, decomp)
            derived = derived_coloring(g, chi.certificate, chi.value)
            assert c.colors == product_coloring(g, derived, depth_parity_shading(decomp)).colors
            assert is_strongly_woody(c)[0] and c.palette_size <= 2 * chi.value * ell

    def test_square_takes_it_on_graphs_with_a_triangle(self, connected_n6):
        for g in connected_n6[::5]:
            if has_triangle(g):
                f = degeneracy_greedy_vertex_coloring(g)
                want = shaded_product(g, f, arboricity(g)[1]).colors
                assert arboricity_square_coloring(g).colors == want

    @pytest.mark.parametrize("colors, match", [
        (0, "monochromatic_cycle"),
        (100, "palette bound"),
    ])
    def test_refuses_a_bad_product(self, monkeypatch, colors, match):
        # the palette check and the verification gate both see the product
        g = complete_graph(5)
        monkeypatch.setattr(woody.construct, "product_coloring",
                            lambda g, a, b: EdgeColoring(g, [colors] * g.m))
        with pytest.raises(AssertionError, match=match):
            shaded_product(g, chromatic_exact(g).certificate, arboricity(g)[1])


class TestDegeneracyGreedy:
    def test_examples(self):
        assert degeneracy_greedy_vertex_coloring(complete_graph(4)).palette_size == 4
        assert degeneracy_greedy_vertex_coloring(path_graph(6)).palette_size <= 2
        assert degeneracy_greedy_vertex_coloring(cycle_graph(5)).palette_size <= 3

    def test_always_proper_within_coloring_number(self, connected_n6):
        from woody.graphs import coloring_number

        for g in connected_n6[::4]:
            f = degeneracy_greedy_vertex_coloring(g)
            assert is_proper_vertex(f)
            assert f.palette_size <= coloring_number(g)[0]


class TestSquarePipeline:
    def test_k4(self):
        g = complete_graph(4)
        c = arboricity_square_coloring(g)
        ell = arboricity(g)[0]
        assert c.palette_size <= 4 * ell * ell
        assert is_strongly_woody(c)[0]

    def test_tree(self):
        c = arboricity_square_coloring(path_graph(6))
        assert is_strongly_woody(c)[0]
        assert c.palette_size <= 2

    def test_triangle_free_routes_to_shading_only(self):
        g = grid_graph(3, 3)
        ell = arboricity(g)[0]
        c = arboricity_square_coloring(g)
        assert c.palette_size <= 2 * ell
        assert is_strongly_woody(c)[0]

    def test_empty_graph(self):
        c = arboricity_square_coloring(Graph(3, []))
        assert c.palette_size == 0

    def test_coloring_number_runs_once(self, monkeypatch):
        # one smallest-last order seeds arboricity and orders the greedy
        import woody.construct
        import woody.decompose
        import woody.graphs

        calls = []

        def counted(g):
            calls.append(g.m)
            return woody.graphs.coloring_number(g)

        for module in (woody.construct, woody.decompose):
            monkeypatch.setattr(module, "coloring_number", counted)
        for g in (complete_graph(5), grid_graph(3, 3)):  # with and without a triangle
            assert is_strongly_woody(arboricity_square_coloring(g))[0]
        assert calls == [10, 12]

    def test_corpus_bounds(self, connected_n6):
        for g in connected_n6[::3]:
            ell = arboricity(g)[0]
            c = arboricity_square_coloring(g)
            assert is_strongly_woody(c)[0]
            if g.m:
                bound = 2 * ell if not has_triangle(g) else 4 * ell * ell
                assert c.palette_size <= bound


class TestPartitionColoring:
    def test_c13_singleton_a(self):
        g = cycle_graph(13)
        c = partition_coloring(g, {0}, set(range(1, 13)))
        assert c.palette_size == 2
        assert is_strongly_woody(c)[0]

    def test_star_center_a(self):
        g = star_graph(4)
        c = partition_coloring(g, {0}, {1, 2, 3, 4})
        assert set(c.colors) == {1}
        assert is_strongly_woody(c)[0]

    def test_girth_guard(self):
        g = cycle_graph(3)
        with pytest.raises(PreconditionError, match="girth") as info:
            partition_coloring(g, {0}, {1, 2})
        assert info.value.certificate == (0, 1, 2)

    def test_long_path_under_a_second(self):
        # the triangle test is linear on a path; a BFS from every vertex
        # took seconds at this size
        g = path_graph(4000)
        a = set(range(0, 4000, 3))
        t0 = time.perf_counter()
        c = partition_coloring(g, a, set(range(4000)) - a)
        assert time.perf_counter() - t0 < 1.0
        assert c.palette_size == 2

    def test_named_failures(self):
        g = cycle_graph(6)
        with pytest.raises(PreconditionError, match="partition"):
            partition_coloring(g, {0, 1}, {1, 2, 3, 4, 5})
        with pytest.raises(PreconditionError, match="forest"):
            partition_coloring(g, set(), set(range(6)))
        with pytest.raises(PreconditionError, match="2-independent"):
            partition_coloring(g, {0, 2}, {1, 3, 4, 5})
        with pytest.raises(PreconditionError, match="2-independent"):
            partition_coloring(g, {0, 1}, {2, 3, 4, 5})
