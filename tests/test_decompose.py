import random
import time
from collections import Counter, deque
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
from woody.decompose import _Partitioner
from woody.graphs import Graph, subset_bfs
from woody.unionfind import UnionFind

from conftest import connected_upto, corpus_graphs, grid_graph, relabeled


class BfsPartitioner:
    """The exchange search as it was before forests kept rooted state: a
    breadth-first search over a whole forest for every edge and forest
    tried. `moves` counts edges displaced from a forest."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.owner = [None] * g.m
        self.forests = [dict() for _ in range(k)]
        self.moves = 0

    def add_forest(self):
        self.forests.append(dict())
        self.k += 1

    def _insert(self, fi, e):
        u, v = self.g.edges[e]
        self.forests[fi].setdefault(u, []).append((v, e))
        self.forests[fi].setdefault(v, []).append((u, e))
        self.owner[e] = fi

    def _remove(self, fi, e):
        u, v = self.g.edges[e]
        self.forests[fi][u].remove((v, e))
        self.forests[fi][v].remove((u, e))
        self.moves += 1

    def place(self, e0):
        pred = {e0: None}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for fi in range(self.k):
                if self.owner[x] == fi:
                    continue
                tree = subset_bfs(self.forests[fi], xu, xv)
                if xv not in tree:
                    target = fi
                    while True:
                        old = self.owner[x]
                        if old is not None:
                            self._remove(old, x)
                        self._insert(target, x)
                        p = pred[x]
                        if p is None:
                            return True
                        x, target = p, old
                w = xv
                while w != xu:
                    w, y = tree[w]
                    if y not in pred:
                        pred[y] = x
                        queue.append(y)
        return False


def bfs_partition(g: Graph) -> BfsPartitioner:
    part = BfsPartitioner(g, max(1, -((-g.m) // (g.n - 1))))
    for e in range(g.m):
        while not part.place(e):
            part.add_forest()
    return part


def k5_with_pendant_path() -> Graph:
    """K5 with a 20-vertex path hanging off vertex 4: density bound 2,
    arboricity 3."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(v, v + 1) for v in range(4, 24)]
    return Graph(25, edges)


def check_forest_state(part: _Partitioner) -> None:
    """Every forest's labels, parent edges, depths and sizes agree with a
    fresh computation from the edge assignment."""
    g = part.g
    for fi, forest in enumerate(part.forests):
        eids = [e for e, f in enumerate(part.owner) if f == fi]
        assert sorted(e for lst in forest.adj.values() for _, e in lst) == sorted(eids * 2)
        uf = UnionFind(g.n)
        for e in eids:
            assert uf.union(*g.edges[e])
        label_of = {}
        for v in range(g.n):
            assert label_of.setdefault(uf.find(v), forest.label[v]) == forest.label[v]
            pe = forest.parent[v]
            if pe != -1:
                assert part.owner[pe] == fi
                a, b = g.edges[pe]
                assert v in (a, b)
                assert forest.depth[v] == forest.depth[a + b - v] + 1
        members = Counter(forest.label)
        assert len(members) == len(label_of)  # one label per component
        roots = Counter(lab for lab, pe in zip(forest.label, forest.parent) if pe == -1)
        assert roots == {lab: 1 for lab in members}
        assert forest.size == {lab: c for lab, c in members.items() if c > 1}


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

    def test_assignments_match_the_bfs_exchange_search(self):
        graphs = (connected_upto(7)
                  + [g for n in range(1, 9) for g in corpus_graphs(f"planar_connected_n{n}.g6")]
                  + corpus_graphs("triangle_free_planar_upto12.g6"))
        for g in graphs:
            if g.m:
                assert arboricity(g)[1].assignment == tuple(bfs_partition(g).owner)

    def test_assignments_match_on_relabeled_grids(self):
        rng = random.Random(11)
        for triangulated in (False, True):
            for _ in range(2):
                g = relabeled(grid_graph(30, 30, triangulated), rng)
                ref = bfs_partition(g)
                assert ref.moves > 0  # exchange chains ran
                assert arboricity(g)[1].assignment == tuple(ref.owner)

    def test_extra_forest_matches(self):
        g = k5_with_pendant_path()
        ref = bfs_partition(g)
        k, d = arboricity(g)
        assert max(1, -((-g.m) // (g.n - 1))) == 2 and k == 3 == ref.k
        assert d.assignment == tuple(ref.owner)

    @pytest.mark.parametrize("g", [
        relabeled(grid_graph(16, 16), random.Random(1)),
        k5_with_pendant_path(),
    ])
    def test_forest_state_after_every_placement(self, g):
        part = _Partitioner(g, 2)
        moved = 0
        for e in range(g.m):
            before = list(part.owner)
            while not part.place(e):
                part.add_forest()
                check_forest_state(part)
            moved += sum(1 for a, b in zip(before, part.owner) if a is not None and a != b)
            check_forest_state(part)
        assert moved > 0

    def test_forest_state_under_random_links_and_cuts(self):
        rng = random.Random(7)
        g = relabeled(grid_graph(6, 6, triangulated=True), rng)
        part = _Partitioner(g, 1)
        label = part.forests[0].label
        for _ in range(400):
            e = rng.randrange(g.m)
            u, v = g.edges[e]
            if part.owner[e] == 0:
                part.forests[0].cut(e)
                part.owner[e] = None
            elif label[u] != label[v]:
                part._insert(0, e)
            check_forest_state(part)

    def test_insert_refuses_a_cycle(self):
        g = cycle_graph(3)
        part = _Partitioner(g, 1)
        part._insert(0, 0)
        part._insert(0, 1)
        with pytest.raises(AssertionError):
            part._insert(0, 2)

    def test_triangulated_grid_60_scales(self):
        g = relabeled(grid_graph(60, 60, triangulated=True), random.Random(60))
        assert g.m == 10561
        start = time.perf_counter()
        k, d = arboricity(g)
        elapsed = time.perf_counter() - start
        assert k == 3 == -((-g.m) // (g.n - 1))
        assert d.is_valid()
        assert elapsed < 1.5

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
