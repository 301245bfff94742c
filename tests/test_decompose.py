import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woody import (
    ForestDecomposition,
    GuardError,
    PreconditionError,
    arboricity,
    complete_graph,
    cycle_graph,
    fractional_arboricity_bruteforce,
    nash_williams_ceiling,
    path_graph,
    star_graph,
    two_forest_decomposition,
)
from woody.graphs import Graph


class TestArboricity:
    def test_small_values(self):
        assert arboricity(path_graph(7))[0] == 1
        assert arboricity(star_graph(5))[0] == 1
        assert arboricity(cycle_graph(6))[0] == 2
        assert arboricity(complete_graph(4))[0] == 2
        assert arboricity(complete_graph(5))[0] == 3
        assert arboricity(complete_graph(8))[0] == 4

    def test_exchange_chain_order_is_pinned(self):
        # the exchange search queues each cycle's edges from the far end
        # back to the near one; the other order gives (0, 1, 1, 0, 1, 0)
        assert arboricity(complete_graph(4))[1].assignment == (0, 0, 1, 1, 1, 0)

    def test_edgeless_convention(self):
        k, d = arboricity(Graph(3, []))
        assert k == 0 and d.num_forests == 0 and d.assignment == ()

    def test_certificates_are_valid(self, connected_n7):
        for g in connected_n7[::7]:
            k, d = arboricity(g)
            assert d.num_forests == k
            assert d.is_valid()

    def test_nash_williams_equality_small(self, connected_n7):
        for g in connected_n7[::5]:
            assert arboricity(g)[0] == nash_williams_ceiling(g)

    def test_monotone_under_edge_deletion(self, connected_n6):
        rng = random.Random(5)
        for g in connected_n6[::4]:
            if g.m == 0:
                continue
            k, _ = arboricity(g)
            drop = rng.randrange(g.m)
            h = Graph(g.n, [e for i, e in enumerate(g.edges) if i != drop])
            assert arboricity(h)[0] <= k

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_nash_williams_equality_random(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.sets(st.sampled_from(pairs)))
        g = Graph(n, sorted(chosen))
        assert arboricity(g)[0] == nash_williams_ceiling(g)


class TestFractionalArboricity:
    def test_k4_full_vertex_set(self):
        cert = fractional_arboricity_bruteforce(complete_graph(4))
        assert cert.density == 2
        assert cert.subgraph.members == frozenset(range(4))
        assert cert.check()

    def test_c5(self):
        cert = fractional_arboricity_bruteforce(cycle_graph(5))
        assert cert.density == Fraction(5, 4)
        assert cert.check()

    def test_k5_density(self):
        assert fractional_arboricity_bruteforce(complete_graph(5)).density == Fraction(10, 4)

    def test_planar_density_at_most_three(self):
        from conftest import corpus_graphs

        for g in corpus_graphs("planar_connected_n7.g6")[::11]:
            assert fractional_arboricity_bruteforce(g).density <= 3

    def test_guard(self):
        with pytest.raises(GuardError):
            fractional_arboricity_bruteforce(Graph(25, []))

    def test_degenerate_graphs(self):
        assert fractional_arboricity_bruteforce(Graph(1, [])).density == 0
        assert fractional_arboricity_bruteforce(Graph(4, [])).density == 0


class TestTwoForest:
    def test_c4_and_k4(self):
        for g in (cycle_graph(4), complete_graph(4)):
            d = two_forest_decomposition(g)
            assert d.num_forests == 2
            assert d.is_valid()

    def test_forest_padded_to_two_classes(self):
        d = two_forest_decomposition(path_graph(5))
        assert d.num_forests == 2
        assert d.is_valid()

    def test_k5_rejected_with_certificate(self):
        with pytest.raises(PreconditionError) as err:
            two_forest_decomposition(complete_graph(5))
        cert = err.value.certificate
        assert cert is not None
        assert cert.density == Fraction(5, 2)


class TestForestDecompositionType:
    def test_validity_detects_cycles(self):
        g = cycle_graph(3)
        assert not ForestDecomposition(g, (0, 0, 0), 1).is_valid()
        assert ForestDecomposition(g, (0, 0, 1), 2).is_valid()

    def test_serialization(self):
        g = cycle_graph(3)
        assert ForestDecomposition(g, (0, 0, 1), 2).to_json() == [0, 0, 1]
