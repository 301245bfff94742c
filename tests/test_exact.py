import random

import pytest

from woody import (
    Budget,
    EdgeColoring,
    VertexColoring,
    acyclic_chromatic_exact,
    adjacent_conflict_bound,
    arboricity,
    chromatic_exact,
    chromatic_index_exact,
    complete_graph,
    cycle_graph,
    find_forest_2independent_partition,
    induces_forest,
    is_2_independent,
    is_acyclic_vertex,
    is_strongly_woody,
    max_clique_size,
    partition_coloring,
    path_graph,
    star_graph,
    strong_arboricity_exact,
)
from woody.graphs import Graph

from conftest import complete_bipartite, corpus_graphs, petersen_graph, subdivide


class TestStrongArboricity:
    def test_examples(self):
        assert strong_arboricity_exact(path_graph(5)).value == 1
        assert strong_arboricity_exact(star_graph(6)).value == 1
        assert strong_arboricity_exact(complete_graph(3)).value == 3
        assert strong_arboricity_exact(cycle_graph(5)).value == 2
        assert strong_arboricity_exact(complete_graph(4)).value == 3
        assert strong_arboricity_exact(Graph(4, [])).value == 0

    def test_odd_and_even_cliques(self):
        assert strong_arboricity_exact(complete_graph(5)).value == 5
        assert strong_arboricity_exact(complete_graph(6)).value == 5

    def test_certificate_reverifies_and_is_canonical(self, connected_n6):
        for g in connected_n6[::6]:
            res = strong_arboricity_exact(g)
            assert res.exact and res.value == res.lower == res.upper
            cert = res.certificate
            assert is_strongly_woody(cert)[0]
            assert cert.palette_size == res.value
            assert cert.colors == cert.normalized().colors

    def test_matches_unpruned_oracle_mode(self, connected_n6):
        # disabling all pruning (leaf-verified search from k=1) must agree
        small = [g for g in connected_n6 if g.m <= 9][::4]
        for g in small:
            fast = strong_arboricity_exact(g).value
            slow = strong_arboricity_exact(g, prune=False).value
            assert fast == slow, g.edges

    def test_isomorphism_invariance(self, connected_n6):
        rng = random.Random(2718)
        for g in connected_n6[5::40]:
            base = strong_arboricity_exact(g).value
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
                assert strong_arboricity_exact(h).value == base

    def test_budget_exhaustion_returns_bounds(self):
        g = complete_graph(9)
        res = strong_arboricity_exact(g, Budget(max_nodes=50))
        assert not res.exact
        assert res.value is None
        assert res.lower >= arboricity(g)[0]
        assert res.upper is not None and res.upper >= res.lower
        # the inexact upper bound is certified by a verified coloring
        assert is_strongly_woody(res.certificate)[0]
        assert res.certificate.palette_size == res.upper

    def test_search_tree_is_pinned(self):
        # node counts of the pruned search; a change to its pruning or its
        # edge order must update these on purpose and say why
        assert strong_arboricity_exact(complete_bipartite(4, 5)).nodes == 39_277
        assert strong_arboricity_exact(complete_bipartite(4, 6)).nodes == 228_892
        assert strong_arboricity_exact(complete_graph(7)).nodes == 9_375
        assert strong_arboricity_exact(petersen_graph()).nodes == 2_310
        for name, total in (("connected_n6.g6", 3_223), ("connected_n7.g6", 101_367)):
            nodes = sum(strong_arboricity_exact(g).nodes for g in corpus_graphs(name))
            assert nodes == total, name

    def test_edgeless_and_exhausted_results_are_pinned(self):
        # (value, lower, upper, exact, certificate colors) of all four solvers
        solvers = (strong_arboricity_exact, acyclic_chromatic_exact,
                   chromatic_exact, chromatic_index_exact)

        def outcome(res):
            cert = None if res.certificate is None else res.certificate.colors
            return res.value, res.lower, res.upper, res.exact, cert

        assert [outcome(f(Graph(0, []))) for f in solvers] == [(0, 0, 0, True, ())] * 4
        assert [outcome(f(Graph(3, []))) for f in solvers] == [
            (0, 0, 0, True, ()), (1, 1, 1, True, (0, 0, 0)),
            (1, 1, 1, True, (0, 0, 0)), (0, 0, 0, True, ())]
        tight = Budget(max_nodes=3)
        k6 = complete_graph(6)
        square = (0, 1, 2, 3, 4, 5, 3, 6, 7, 4, 8, 9, 10, 11, 12)
        assert [outcome(f(k6, tight)) for f in solvers] == [
            (None, 5, 13, False, square), (None, 6, 6, False, None),
            (None, 6, 6, False, None), (None, 5, None, False, None)]
        assert type(strong_arboricity_exact(Graph(0, [])).certificate) is EdgeColoring
        assert type(chromatic_exact(Graph(0, [])).certificate) is VertexColoring

    def test_sandwich_against_acyclic_chromatic(self, connected_n6):
        for g in connected_n6[::6]:
            z = strong_arboricity_exact(g).value
            assert arboricity(g)[0] <= z <= acyclic_chromatic_exact(g).value


class TestDisconnectedInputs:
    def test_parameters_over_components(self):
        # K3 + C4 + isolated vertex
        g = Graph(8, [(0, 1), (1, 2), (0, 2),
                      (3, 4), (4, 5), (5, 6), (3, 6)])
        assert strong_arboricity_exact(g).value == 3
        assert arboricity(g)[0] == 2
        assert acyclic_chromatic_exact(g).value == 3
        assert chromatic_index_exact(g).value == 3  # the triangle component
        res = find_forest_2independent_partition(g)
        assert not res.found and res.exact  # the triangle blocks it

    def test_two_long_cycles(self):
        g = Graph(12, [(i, (i + 1) % 6) for i in range(6)]
                  + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
        assert strong_arboricity_exact(g).value == 2
        res = find_forest_2independent_partition(g)
        assert res.found
        assert is_strongly_woody(partition_coloring(g, res.a, res.f))[0]


class TestLowerBounds:
    def test_adjacent_conflict_bound_on_cliques(self):
        assert adjacent_conflict_bound(complete_graph(6)) == 5
        assert adjacent_conflict_bound(complete_graph(3)) == 2
        assert adjacent_conflict_bound(cycle_graph(5)) == 1
        assert adjacent_conflict_bound(star_graph(5)) == 1
        assert adjacent_conflict_bound(Graph(2, [])) == 0

    def test_max_clique(self):
        assert max_clique_size(complete_graph(7)) == 7
        assert max_clique_size(cycle_graph(6)) == 2
        assert max_clique_size(Graph(3, [])) == 1
        assert max_clique_size(petersen_graph()) == 2


class TestAcyclicChromatic:
    def test_examples(self):
        assert acyclic_chromatic_exact(complete_graph(4)).value == 4
        assert acyclic_chromatic_exact(cycle_graph(4)).value == 3
        assert acyclic_chromatic_exact(path_graph(6)).value == 2
        assert acyclic_chromatic_exact(Graph(1, [])).value == 1

    def test_certificate_reverifies(self, connected_n6):
        for g in connected_n6[::8]:
            res = acyclic_chromatic_exact(g)
            ok, _ = is_acyclic_vertex(res.certificate)
            assert ok
            assert res.certificate.palette_size == res.value

    def test_budget_path(self):
        res = acyclic_chromatic_exact(complete_graph(8), Budget(max_nodes=3))
        assert not res.exact and res.value is None
        assert res.lower <= res.upper


class TestChromatic:
    def test_values(self):
        assert chromatic_exact(complete_graph(4)).value == 4
        assert chromatic_exact(cycle_graph(5)).value == 3
        assert chromatic_exact(cycle_graph(6)).value == 2
        assert chromatic_exact(petersen_graph()).value == 3


class TestChromaticIndex:
    def test_values(self):
        assert chromatic_index_exact(complete_graph(4)).value == 3
        assert chromatic_index_exact(cycle_graph(5)).value == 3
        assert chromatic_index_exact(complete_graph(5)).value == 5
        assert chromatic_index_exact(star_graph(6)).value == 6
        assert chromatic_index_exact(petersen_graph()).value == 4

    def test_certificate_proper(self):
        g = complete_graph(6)
        res = chromatic_index_exact(g)
        assert res.value == 5
        for v in range(g.n):
            inc = [res.certificate.colors[g.edge_id(v, w)] for w in g.adj[v]]
            assert len(set(inc)) == len(inc)


class TestPartitionSearch:
    def test_c13_found(self):
        res = find_forest_2independent_partition(cycle_graph(13))
        assert res.found and res.exact
        assert is_2_independent(cycle_graph(13), res.a)
        assert induces_forest(cycle_graph(13), res.f)

    def test_k4_not_found_exact(self):
        res = find_forest_2independent_partition(complete_graph(4))
        assert not res.found and res.exact

    def test_c4_every_split_fails(self):
        # any single vertex leaves a path but its neighbors are at
        # distance 2 through it: a={v} works for C4? v's two neighbors
        # are in f; f = P3 is a forest, and a singleton is 2-independent
        res = find_forest_2independent_partition(cycle_graph(4))
        assert res.found
        coloring = partition_coloring(cycle_graph(4), res.a, res.f)
        assert is_strongly_woody(coloring)[0]

    def test_subdivided_petersen(self):
        g = subdivide(petersen_graph(), 5)
        res = find_forest_2independent_partition(g)
        assert res.found and res.exact
        coloring = partition_coloring(g, res.a, res.f)
        assert coloring.palette_size == 2
        assert is_strongly_woody(coloring)[0]

    def test_budget_flagged_inexact(self):
        g = subdivide(petersen_graph(), 3)
        res = find_forest_2independent_partition(g, Budget(max_nodes=2))
        assert not res.found and not res.exact
