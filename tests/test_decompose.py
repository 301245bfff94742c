import random
import time
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woody import decompose
from woody.decompose import (
    ForestDecomposition,
    _Forest,
    _Partitioner,
    arboricity,
)
from woody.errors import GuardError
from woody.graphs import (
    Graph,
    UnionFind,
    coloring_number,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    subset_adjacency,
    tree_walk,
)
from woody.verify import DensityCertificate

from conftest import (
    complete_bipartite,
    connected_upto,
    corpus_graphs,
    fractional_arboricity_bruteforce,
    grid_graph,
    nash_williams_ceiling,
    relabeled,
)


class BfsPartitioner:
    """The exchange search as it was before forests kept rooted state: a
    breadth-first search over a whole forest for every edge and forest
    tried. `moves` counts edges displaced from a forest. It is seeded with
    one edge class per forest."""

    def __init__(self, g: Graph, classes):
        self.g = g
        self.k = len(classes)
        self.owner = [None] * g.m
        self.forests = [dict() for _ in classes]
        self.moves = 0
        for fi, eids in enumerate(classes):
            for e in eids:
                self._insert(fi, e)

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

    @staticmethod
    def _bfs(nbrs, src, dst):
        """Breadth-first tree {vertex: (parent, edge id)} from src, src
        mapped to None, stopping once dst is discovered."""
        tree = {src: None}
        q = deque([src])
        while q:
            u = q.popleft()
            for w, e in nbrs.get(u, ()):
                if w not in tree:
                    tree[w] = (u, e)
                    if w == dst:
                        return tree
                    q.append(w)
        return tree

    def place(self, e0):
        pred = {e0: None}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for fi in range(self.k):
                if self.owner[x] == fi:
                    continue
                tree = self._bfs(self.forests[fi], xu, xv)
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


def exchange_partition(g: Graph, cls=_Partitioner):
    """The exchange search alone: cls from empty forests at the density
    bound, fed every edge in index order."""
    part = cls(g, [])
    for _ in range(max(1, -((-g.m) // (g.n - 1)))):
        part.add_forest()
    for e in range(g.m):
        while not part.place(e):
            part.add_forest()
    return part


def bfs_partition(g: Graph) -> BfsPartitioner:
    return exchange_partition(g, BfsPartitioner)


def k5_with_pendant_path(length: int = 20) -> Graph:
    """K5 with a path of `length` more vertices hanging off vertex 4:
    density bound 2, arboricity 3."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(v, v + 1) for v in range(4, 4 + length)]
    return Graph(5 + length, edges)


def rooted_rows(g: Graph, classes, order):
    """Parent-edge rows of the acyclic edge classes, each tree hung by
    tree_walk from its earliest vertex in order, and for each row a
    parent-first order of its trees' vertices (each root, then its walk).
    Rows rooted at arbitrary vertices may admit no common parent-first
    order, so each row gets its own."""
    rows, orders = [], []
    for eids in classes:
        nbrs = subset_adjacency(g, eids)
        up, walk = [-1] * g.n, []
        for r in order:
            if r in nbrs and r not in walk:
                walk.append(r)
                for x, e, _ in tree_walk(nbrs, r):
                    up[x] = e
                    walk.append(x)
        rows.append(up)
        orders.append(walk)
    return rows, orders


def adopted(g: Graph, rows, orders) -> _Partitioner:
    return _Partitioner(g, [_Forest(g, up, walk) for up, walk in zip(rows, orders)])


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


def small_corpus() -> list[Graph]:
    return (connected_upto(7)
            + [g for n in range(1, 9) for g in corpus_graphs(f"planar_connected_n{n}.g6")]
            + corpus_graphs("triangle_free_planar_upto12.g6"))


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
        # back to the near one; the other order gives (0, 1, 0, 1, 1, 0)
        assert arboricity(complete_graph(4))[1].assignment == (0, 0, 1, 1, 1, 0)

    def test_assignments_match_the_bfs_exchange_search(self):
        # the rooted exchange search, run from empty forests, takes every
        # step the whole-forest BFS takes; arboricity itself starts from the
        # degeneracy seed, so its decomposition may differ
        for g in small_corpus():
            if g.m:
                part = exchange_partition(g)
                assert tuple(part.owner) == tuple(bfs_partition(g).owner)

    def test_assignments_match_on_relabeled_grids(self):
        rng = random.Random(11)
        for triangulated in (False, True):
            for _ in range(2):
                g = relabeled(grid_graph(30, 30, triangulated), rng)
                ref = bfs_partition(g)
                assert ref.moves > 0  # exchange chains ran
                assert tuple(exchange_partition(g).owner) == tuple(ref.owner)

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
        part = _Partitioner(g, [_Forest(g), _Forest(g)])
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
        part = _Partitioner(g, [_Forest(g)])
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

    def test_seeded_forests_build_and_root_themselves(self):
        # each seed class, rooted by rooted_rows, becomes a rooted forest,
        # every tree hung from its earliest vertex in the given order and
        # labelled by it
        rng = random.Random(26)
        graphs = [relabeled(grid_graph(8, 8, triangulated=True), rng),
                  k5_with_pendant_path(), complete_graph(7)]
        graphs += rng.sample([g for g in small_corpus() if g.m], 40)
        for g in graphs:
            _, d = arboricity(g)
            order = rng.sample(range(g.n), g.n)
            pos = {v: i for i, v in enumerate(order)}
            classes = [[e for e, f in enumerate(d.assignment) if f == fi]
                       for fi in range(d.num_forests)]
            part = adopted(g, *rooted_rows(g, classes, order))
            assert len(part.forests) == d.num_forests and tuple(part.owner) == d.assignment
            check_forest_state(part)
            for forest in part.forests:
                for lab in forest.size:
                    tree = [v for v in range(g.n) if forest.label[v] == lab]
                    root = min(tree, key=pos.get)
                    assert lab == root and forest.parent[root] == -1

    def test_seeded_search_matches_the_seeded_bfs_search(self):
        # both partitioners take the same seed classes; the rest of the
        # edges, placed in index order, end in the same forests
        rng = random.Random(5)
        moves = grown = 0
        for g in rng.sample([g for g in small_corpus() if g.m], 150) + [k5_with_pendant_path()]:
            k = max(1, -((-g.m) // (g.n - 1)))
            _, d = arboricity(g)
            classes = [[e for e, f in enumerate(d.assignment) if f == fi and e % 2 == 0]
                       for fi in range(k)]
            seeded = {e for eids in classes for e in eids}
            part = adopted(g, *rooted_rows(g, classes, range(g.n)))
            ref = BfsPartitioner(g, classes)
            for e in range(g.m):
                if e not in seeded:
                    for p in (part, ref):
                        while not p.place(e):
                            p.add_forest()
            assert tuple(part.owner) == tuple(ref.owner)
            check_forest_state(part)
            moves, grown = moves + ref.moves, grown + ref.k - k
        assert moves > 0 and grown > 0  # exchange chains ran and searches failed

    def test_an_order_that_misses_a_child_is_refused(self):
        # a seeded tree left unhung would keep every vertex its own root, so
        # the closing edge of the triangle would pass the label test
        g = cycle_graph(3)
        (up,), (walk,) = rooted_rows(g, [[0, 1]], range(3))
        for order in ((), [0], [2], walk[:-1]):
            with pytest.raises(ValueError, match="misses a vertex"):
                _Forest(g, up, order)
        part = _Partitioner(g, [_Forest(g, up, walk)])
        assert not part.place(2)
        assert part.owner == [0, 0, None]
        check_forest_state(part)

    def test_adopting_rows_walks_no_tree(self, monkeypatch):
        # one pass over the order sets labels, depths, sizes and adjacency;
        # only link and cut walk a tree
        rng = random.Random(29)
        seeds = []
        for g in (complete_graph(8), k5_with_pendant_path(),
                  relabeled(grid_graph(8, 8, triangulated=True), rng)):
            _, d = arboricity(g)
            classes = [[e for e, f in enumerate(d.assignment) if f == fi]
                       for fi in range(d.num_forests)]
            seeds.append((g, d, rooted_rows(g, classes, rng.sample(range(g.n), g.n))))
        walks = []
        real_walk = decompose.tree_walk

        def counting_walk(nbrs, root):
            walks.append(root)
            return real_walk(nbrs, root)

        monkeypatch.setattr(decompose, "tree_walk", counting_walk)
        for g, d, (rows, orders) in seeds:
            part = adopted(g, rows, orders)
            assert walks == [] and tuple(part.owner) == d.assignment
            check_forest_state(part)
        part.forests[0].cut(part.owner.index(0))
        assert len(walks) >= 2  # the cut walked both sides

    def test_every_decomposition_carries_its_rooting(self):
        # per forest, each vertex has one parent edge (-1 at a root), which
        # lies in that forest at that vertex; every forest edge is the parent
        # edge of exactly one end; and a climb from any vertex reaches a
        # root in fewer than n steps
        graphs = (connected_upto(8) + [complete_graph(n) for n in range(3, 13)]
                  + [complete_bipartite(a, b) for a in range(1, 7) for b in range(1, 7)])
        paths = Counter()
        for g in graphs:
            k, d = arboricity(g)
            paths["exchange" if coloring_number(g)[0] - 1 > k else "slots"] += 1
            assert len(d.rooting) == k
            for fi, up in enumerate(d.rooting):
                assert len(up) == g.n
                children = Counter()
                for v, e in enumerate(up):
                    if e != -1:
                        assert d.assignment[e] == fi and v in g.edges[e]
                        children[e] += 1
                assert children == Counter(e for e, f in enumerate(d.assignment) if f == fi)
                for v in range(g.n):
                    x, steps = v, 0
                    while up[x] != -1:
                        a, b = g.edges[up[x]]
                        x, steps = a + b - x, steps + 1
                        assert steps < g.n
        assert paths["exchange"] > 0 and paths["slots"] > 0

    def test_insert_refuses_a_cycle(self):
        g = cycle_graph(3)
        part = _Partitioner(g, [_Forest(g)])
        part._insert(0, 0)
        part._insert(0, 1)
        with pytest.raises(AssertionError):
            part._insert(0, 2)

    def test_seed_or_fallback_meets_the_density_oracle(self):
        for g in small_corpus():
            k, d = arboricity(g)
            assert k == nash_williams_ceiling(g) == d.num_forests
            assert d.is_valid()
            assert k == 0 or d.density_certificate().check(k)

    def test_a_failed_search_returns_its_own_proof(self):
        # each forest restricted to the reached edges spans every component
        # they form, so the component of the edge left over holds k(|C| - 1)
        # of them from each forest, and that edge
        failures = 0
        for g in small_corpus():
            part = _Partitioner(g, [_Forest(g)])
            for e in range(g.m):
                while not part.place(e):
                    failures += 1
                    uf = UnionFind(g.n)
                    for x in part.reached:
                        uf.union(*g.edges[x])
                    root = uf.find(g.edges[e][0])
                    size = sum(uf.find(v) == root for v in range(g.n))
                    inside = [x for x in part.reached if uf.find(g.edges[x][0]) == root]
                    assert [part.owner[x] for x in inside].count(None) == 1
                    for fi in range(len(part.forests)):
                        assert [part.owner[x] for x in inside].count(fi) == size - 1
                    part.add_forest()
        assert failures > 1000

    @pytest.mark.parametrize("triangulated", [False, True])
    def test_seed_alone_decomposes_relabeled_grids(self, monkeypatch, triangulated):
        # the degeneracy equals the density bound, so neither the exchange
        # search nor its rooted forests are set up
        calls = []
        real_init, real_place = _Partitioner.__init__, _Partitioner.place

        def counting_init(self, *args):
            calls.append("init")
            real_init(self, *args)

        def counting_place(self, e):
            calls.append(e)
            return real_place(self, e)

        monkeypatch.setattr(_Partitioner, "__init__", counting_init)
        monkeypatch.setattr(_Partitioner, "place", counting_place)
        g = relabeled(grid_graph(30, 30, triangulated), random.Random(30))
        k, d = arboricity(g)
        assert k == (3 if triangulated else 2) == -((-g.m) // (g.n - 1))
        assert d.is_valid() and calls == []

    @pytest.mark.parametrize("g, bound, arb", [
        (complete_graph(4), 2, 2),
        (k5_with_pendant_path(), 2, 3),
    ])
    def test_fallback_places_the_leftover_slots(self, monkeypatch, g, bound, arb):
        # degeneracy 3 and 4 exceed the density bound 2, so the later slots
        # go through the exchange search, after the seeded forests have been
        # rooted exactly as link and cut keep them
        calls = []
        real_place = _Partitioner.place

        def checking_place(self, e):
            if not calls:
                assert len(self.forests) == bound
                check_forest_state(self)
            calls.append(e)
            return real_place(self, e)

        monkeypatch.setattr(_Partitioner, "place", checking_place)
        assert max(1, -((-g.m) // (g.n - 1))) == bound
        k, d = arboricity(g)
        assert k == arb == d.num_forests and d.is_valid()
        assert calls == sorted(calls) and calls

    @pytest.mark.parametrize("g, paths", [
        (complete_graph(8), 48),
        (complete_bipartite(10, 10), 336),
    ], ids=["K8", "K10,10"])
    def test_cycles_are_built_only_for_an_edge_no_forest_takes(self, monkeypatch, g, paths):
        # place looks for a forest that keeps x's ends apart before it
        # climbs any cycle; building the cycles of the forests tried before
        # the one that takes x reads 56 on K8 and 364 on K10,10
        calls = []
        real_path = _Forest.path

        def counting_path(self, a, b):
            calls.append((a, b))
            return real_path(self, a, b)

        monkeypatch.setattr(_Forest, "path", counting_path)
        assert arboricity(g)[1].is_valid()
        assert len(calls) == paths

    def test_relabeled_grid_150_scales(self):
        g = relabeled(grid_graph(150, 150), random.Random(150))
        start = time.perf_counter()
        k, d = arboricity(g)
        elapsed = time.perf_counter() - start
        assert k == 2 and d.is_valid()
        assert elapsed < 2.0

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
        assert cert.vertices == frozenset(range(4))
        assert cert.check(2) and not cert.check(3)

    def test_c5(self):
        cert = fractional_arboricity_bruteforce(cycle_graph(5))
        assert cert.density == Fraction(5, 4)
        assert cert.check(2)

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

    def test_certificate_counts_induced_edges(self):
        # only the edges with both ends in the subset count: on C5 the
        # vertices 0, 1, 2 induce the path 0-1-2, not the edges at 3 and 4
        g = cycle_graph(5)
        cert = DensityCertificate(g, frozenset({0, 1, 2}))
        assert cert.num_edges == 2
        assert cert.check(1) and not cert.check(2)
        assert cert.to_json() == {"vertices": [0, 1, 2], "num_edges": 2, "density": [1, 1]}


class TestDensityWitness:
    def test_c4_and_k4_take_two_forests(self):
        for g in (cycle_graph(4), complete_graph(4)):
            k, d = arboricity(g)
            assert k == d.num_forests == 2
            assert d.is_valid() and d.density_certificate().check(2)

    def test_k5_witness_proves_three_forests(self):
        k, d = arboricity(complete_graph(5))
        cert = d.density_certificate()
        assert k == 3 and cert.density == Fraction(5, 2) and cert.check(3)

    def test_failed_search_finds_the_k5_in_a_long_path(self):
        # the 1,000-vertex graph has density bound 2, and the failed
        # exchange search finds the K5 inside
        g = k5_with_pendant_path(995)
        start = time.perf_counter()
        k, d = arboricity(g)
        elapsed = time.perf_counter() - start
        cert = d.density_certificate()
        assert k == 3 and cert.vertices == frozenset(range(5)) and cert.check(3)
        assert elapsed < 0.1


class TestForestDecompositionType:
    def test_validity_detects_cycles(self):
        g = cycle_graph(3)
        assert not ForestDecomposition(g, (0, 0, 0), 1).is_valid()
        assert ForestDecomposition(g, (0, 0, 1), 2).is_valid()

    def test_a_short_assignment_is_refused_by_its_coloring(self):
        # the EdgeColoring that is_valid builds is the one shape check
        g = cycle_graph(3)
        with pytest.raises(ValueError, match="expected 3 entries, got 2"):
            ForestDecomposition(g, (0, 1), 2).is_valid()

    def test_validity_matches_a_union_find_per_class(self, connected_n6):
        # is_valid is the woody check of the assignment read as an edge
        # coloring; the reference joins each class in a union-find of its
        # own, so the two share no code past UnionFind
        def reference(g, assignment, k):
            if any(not 0 <= f < k for f in assignment):
                return False
            for f in range(k):
                uf = UnionFind(g.n)
                for e in range(g.m):
                    if assignment[e] == f and not uf.union(*g.edges[e]):
                        return False
            return True

        rng = random.Random(6)
        verdicts = Counter()
        for g in connected_n6:
            for _ in range(4):
                k = rng.randint(1, 3)
                assignment = [rng.randrange(k) for _ in range(g.m)]
                cases = [assignment, assignment[:-1], assignment + [0]]
                if g.m:
                    bad = list(assignment)
                    bad[rng.randrange(g.m)] = rng.choice((-1, k))
                    cases.append(bad)
                for case in cases:
                    if len(case) != g.m:  # refused by the EdgeColoring shape check
                        with pytest.raises(ValueError):
                            ForestDecomposition(g, tuple(case), k).is_valid()
                        continue
                    want = reference(g, case, k)
                    assert ForestDecomposition(g, tuple(case), k).is_valid() == want
                    verdicts[want] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100
