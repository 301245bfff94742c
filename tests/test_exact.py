import random
import time

import pytest

import woody.construct
import woody.exact
from woody.construct import partition_coloring
from woody.decompose import arboricity
from woody.errors import GuardError
from woody.exact import (
    Budget,
    acyclic_chromatic_exact,
    acyclic_chromatic_lower_bound,
    chromatic_exact,
    chromatic_index_exact,
    find_forest_2independent_partition,
    max_clique_size,
    strong_arboricity_exact,
    strong_arboricity_lower_bound,
)
from woody.graphs import (
    Graph,
    coloring_number,
    complete_graph,
    cycle_graph,
    has_cycle,
    induces_forest,
    is_2_independent,
    path_graph,
    star_graph,
)
from woody.verify import (
    EdgeColoring,
    VertexColoring,
    is_acyclic_vertex,
    is_proper_vertex,
    is_strongly_woody,
)

import conftest
from conftest import (
    complete_bipartite,
    corpus_graphs,
    grid_graph,
    mcgee_graph,
    petersen_graph,
    relabeled,
    subdivide,
    zeta_oracle,
)


class TestBudget:
    @pytest.mark.parametrize("kwargs", [
        {"max_nodes": 0}, {"max_nodes": -3},
        {"max_seconds": 0.0}, {"max_seconds": -1.0}, {"max_seconds": float("nan")},
    ])
    def test_unreachable_ceilings_are_refused(self, kwargs):
        with pytest.raises(ValueError, match="budget"):
            Budget(**kwargs)

    def test_open_and_positive_ceilings_are_kept(self):
        assert Budget() == Budget(None, None)
        assert Budget(1, 1e-9).max_nodes == 1
        assert Budget(max_seconds=float("inf")).max_seconds == float("inf")

    @pytest.mark.parametrize("solve", [
        strong_arboricity_exact, acyclic_chromatic_exact, chromatic_exact,
        chromatic_index_exact, find_forest_2independent_partition,
    ], ids=["zeta", "chi_a", "chi", "chi_index", "partition"])
    def test_a_node_budget_stops_at_its_ceiling(self, solve):
        # the Petersen graph takes at least 14 nodes in each search; the
        # node that would pass the ceiling is never counted, and a ceiling
        # of exactly the nodes needed does not run out
        g = petersen_graph()
        full = solve(g).nodes
        assert full > 13
        for ceiling in (1, 13):
            res = solve(g, Budget(max_nodes=ceiling))
            assert res.nodes == ceiling
        res = solve(g, Budget(max_nodes=full))
        assert res.exact and res.nodes == full


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

    def test_matches_zeta_oracle(self, connected_n6):
        # the enumeration of every canonical coloring must agree: every
        # connected graph on up to 6 vertices and 9 edges, and every
        # triangle-free planar one with up to 10 edges
        small = [g for g in connected_n6 if g.m <= 9]
        small += [g for g in corpus_graphs("triangle_free_planar_upto12.g6") if g.m <= 10]
        for g in small:
            assert strong_arboricity_exact(g).value == zeta_oracle(g)[0], g.edges

    def test_zeta_oracle_is_guarded(self, monkeypatch):
        # K6 has 15 edges: refused before the first coloring is checked
        def no_check(*args):
            raise AssertionError("the guard must act before the enumeration")

        monkeypatch.setattr(conftest, "EdgeColoring", no_check)
        with pytest.raises(GuardError, match="m <= 10"):
            zeta_oracle(complete_graph(6))
        monkeypatch.undo()
        # at the limit the oracle still runs
        assert zeta_oracle(path_graph(11)) == (1, 10)

    def test_bad_certificate_is_refused_naming_the_witness(self, monkeypatch):
        # the deepening passes what the search found through the
        # verification gate: one color on C4 is a monochromatic cycle
        monkeypatch.setattr(woody.exact, "_search_strongly_woody",
                            lambda g, k, order, ticker: [0] * g.m)
        with pytest.raises(AssertionError, match="monochromatic_cycle"):
            strong_arboricity_exact(cycle_graph(4))

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
        # node counts of the pruned search (forward-checked, most constrained
        # edge first) from the static lower bounds; a change to its pruning,
        # its edge order or a bound must update these on purpose and say
        # why. The deepening starts at ζ ≥ χ′(K_ω) and at the pair-forest
        # count of χ_a, so the levels those refute by counting are not
        # searched: K7 starts at 7 and not 6, K4,5 at χ_a ≥ 4 and K5,5 at 5
        assert strong_arboricity_exact(complete_bipartite(4, 5)).nodes == 380
        assert strong_arboricity_exact(complete_bipartite(4, 6)).nodes == 384
        assert strong_arboricity_exact(complete_bipartite(5, 5)).nodes == 395
        assert strong_arboricity_exact(complete_graph(7)).nodes == 262
        assert strong_arboricity_exact(petersen_graph()).nodes == 423
        for name, total in (("connected_n6.g6", 1_061), ("connected_n7.g6", 11_787)):
            nodes = sum(strong_arboricity_exact(g).nodes for g in corpus_graphs(name))
            assert nodes == total, name
        # χ_a on the same search (most constrained vertex first)
        assert acyclic_chromatic_exact(complete_bipartite(4, 5)).nodes == 24
        assert acyclic_chromatic_exact(complete_bipartite(5, 5)).nodes == 28
        assert acyclic_chromatic_exact(complete_graph(7)).nodes == 7
        assert acyclic_chromatic_exact(petersen_graph()).nodes == 61
        # the wipe-out check covers the other colors a vertex excludes, so an
        # assignment that empties a vertex's mask that way is pruned at once
        for name, total in (("connected_n6.g6", 767), ("connected_n7.g6", 7_358)):
            nodes = sum(acyclic_chromatic_exact(g).nodes for g in corpus_graphs(name))
            assert nodes == total, name
        # the oracle enumerates every canonical coloring in edge order
        assert zeta_oracle(complete_graph(4))[1] == 248
        assert zeta_oracle(cycle_graph(5))[1] == 14
        assert zeta_oracle(complete_bipartite(2, 3))[1] == 23

    def test_edgeless_and_exhausted_results_are_pinned(self):
        # (value, lower, upper, exact, certificate colors) of all four solvers;
        # an exhausted solve reports the palette of a verified coloring as
        # its upper bound: square for ζ, all colors distinct for the others;
        # K6's χ_a and χ bounds meet at 6, so those solves are exact
        solvers = (strong_arboricity_exact, acyclic_chromatic_exact,
                   chromatic_exact, chromatic_index_exact)

        def outcome(res):
            return res.value, res.lower, res.upper, res.exact, res.certificate.colors

        assert [outcome(f(Graph(0, []))) for f in solvers] == [(0, 0, 0, True, ())] * 4
        assert [outcome(f(Graph(3, []))) for f in solvers] == [
            (0, 0, 0, True, ()), (1, 1, 1, True, (0, 0, 0)),
            (1, 1, 1, True, (0, 0, 0)), (0, 0, 0, True, ())]
        tight = Budget(max_nodes=3)
        k6 = complete_graph(6)
        square = (0, 1, 2, 3, 4, 5, 3, 6, 7, 4, 8, 9, 10, 11, 12)
        assert [outcome(f(k6, tight)) for f in solvers] == [
            (None, 5, 13, False, square), (6, 6, 6, True, tuple(range(6))),
            (6, 6, 6, True, tuple(range(6))), (None, 5, 15, False, tuple(range(15)))]
        assert type(strong_arboricity_exact(Graph(0, [])).certificate) is EdgeColoring
        assert type(chromatic_exact(Graph(0, [])).certificate) is VertexColoring

    def test_exhausted_upper_bound_is_verified_once(self, monkeypatch):
        # the square pipeline gates its own coloring, so the solver reports
        # it without a second check
        calls = []

        def counted(coloring):
            calls.append(coloring.colors)
            return is_strongly_woody(coloring)

        for module in (woody.exact, woody.construct):
            monkeypatch.setattr(module, "is_strongly_woody", counted)
        res = strong_arboricity_exact(complete_graph(6), Budget(max_nodes=3))
        assert not res.exact and calls == [res.certificate.colors]

    def test_exhausted_solve_whose_bounds_meet_is_exact(self):
        # K1,3: the square pipeline's one color meets the lower bound 1
        res = strong_arboricity_exact(star_graph(3), Budget(max_nodes=1))
        assert res.exact and res.value == 1 and (res.lower, res.upper) == (1, 1)
        assert res.certificate.colors == (0, 0, 0)

    @pytest.mark.parametrize("solve, g, omega, lower", [
        (chromatic_exact, cycle_graph(4), 3, 3),
        (acyclic_chromatic_exact, path_graph(4), 4, 4),
        (strong_arboricity_exact, cycle_graph(5), 5, 5),
    ])
    def test_a_palette_below_the_lower_bound_is_refused(self, solve, g, omega, lower):
        # an ω too large gives a lower bound the verified coloring beats
        with pytest.raises(AssertionError, match=rf"palette 2 is below .* bound {lower}$"):
            solve(g, omega=omega)

    def test_sandwich_against_acyclic_chromatic(self, connected_n6):
        for g in connected_n6[::6]:
            z = strong_arboricity_exact(g).value
            assert arboricity(g)[0] <= z <= acyclic_chromatic_exact(g).value


def static_order_zeta(g: Graph) -> int:
    """ζ by the static-order search: deepening from the same lower bound,
    edges in decreasing degree sum, every candidate color checked against
    rules (i) and (ii) when it is tried."""
    order = sorted(range(g.m), key=lambda e: (-sum(map(g.degree, g.edges[e])), e))
    adj = [sum(1 << w for w in g.adj[x]) for x in range(g.n)]

    def fits(k):
        parent = [list(range(g.n)) for _ in range(k)]
        member = [[1 << x for x in range(g.n)] for _ in range(k)]
        nbr = [list(adj) for _ in range(k)]

        def find(par, x):
            while par[x] != x:
                x = par[x]
            return x

        def dfs(pos, used):
            if pos == g.m:
                return True
            u, v = g.edges[order[pos]]
            for c in range(min(k, used + 1)):
                par, mem, nb = parent[c], member[c], nbr[c]
                ru, rv = find(par, u), find(par, v)
                if ru == rv or nb[ru] & mem[rv] != 1 << v or adj[v] & mem[ru] != 1 << u:
                    continue
                par[rv] = ru
                saved = mem[ru], nb[ru]
                mem[ru] |= mem[rv]
                nb[ru] |= nb[rv]
                if dfs(pos + 1, max(used, c + 1)):
                    return True
                mem[ru], nb[ru] = saved
                par[rv] = rv
            return False

        return dfs(0, 0)

    k = strong_arboricity_lower_bound(g)
    while g.m and not fits(k):
        k += 1
    return k


class TestAgreementWithStaticOrder:
    # the oracle stops at m <= 10; past it, the forward-checked search must
    # give the value of the static-order search it replaced

    def check(self, graphs):
        for g in graphs:
            res = strong_arboricity_exact(g)
            assert res.value == static_order_zeta(g), g.edges
            assert is_strongly_woody(res.certificate)[0]
            assert res.certificate.palette_size == res.value

    def test_connected_upto_7(self, connected_n7):
        self.check(connected_n7)

    def test_every_8th_connected_8(self):
        self.check(corpus_graphs("connected_n8.g6")[::8])

    def test_triangle_free_planar_upto_12(self):
        self.check(corpus_graphs("triangle_free_planar_upto12.g6"))

    def test_named_graphs(self):
        self.check([complete_bipartite(4, 5), complete_bipartite(4, 6),
                    complete_graph(6), complete_graph(7), petersen_graph()])


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
    def test_lower_bound_on_cliques(self):
        # (ω, the whole bound): C5's bound is its arboricity, a star's is 1
        cases = [(complete_graph(6), 6, 5), (complete_graph(3), 3, 3),
                 (cycle_graph(5), 2, 2), (star_graph(5), 2, 1), (Graph(2, []), 1, 0)]
        for g, omega, bound in cases:
            assert max_clique_size(g) == omega
            assert strong_arboricity_lower_bound(g) == bound
        # χ′(K_q): q colors for odd q, q − 1 for even q, above arboricity
        # ceil(q / 2) from q = 3 on
        for q in range(2, 9):
            assert strong_arboricity_lower_bound(complete_graph(q)) == q - 1 + q % 2

    def test_pair_forest_count(self):
        # K_{a,b}: ω = 2 and a cycle give 3; the count gives the least k
        # with (k − 1)(2(a + b) − k) ≥ 2ab. Both meet χ_a = min(a, b) + 1
        # on K2,3 and K3,3 and stay below it from K4,5 on
        for (a, b), bound in (((2, 3), 3), ((3, 3), 3), ((4, 5), 4), ((4, 6), 4),
                              ((5, 5), 5), ((6, 6), 5), ((7, 7), 6)):
            assert acyclic_chromatic_lower_bound(complete_bipartite(a, b)) == bound
        assert acyclic_chromatic_lower_bound(complete_graph(7)) == 7
        assert acyclic_chromatic_lower_bound(Graph(0, [])) == 0
        assert acyclic_chromatic_lower_bound(Graph(3, [])) == 1
        # a triangle among isolated vertices: the count alone gives 2
        assert acyclic_chromatic_lower_bound(Graph(10, [(0, 1), (1, 2), (0, 2)])) == 3

    def test_bounds_are_sound_on_the_corpora(self):
        # each bound b is at most the exact value: the search finds no
        # coloring with b − 1 colors, on every graph of these corpora
        graphs = [g for name in [f"connected_n{i}.g6" for i in range(1, 8)]
                  + ["planar_connected_n8.g6", "triangle_free_planar_upto12.g6"]
                  for g in corpus_graphs(name)]
        ticker = woody.exact._Ticker(None)
        for g in graphs:
            zeta = strong_arboricity_lower_bound(g)
            if zeta > 1:
                order = woody.exact._edge_order(g)
                assert woody.exact._search_strongly_woody(g, zeta - 1, order, ticker) is None
            chi_a = acyclic_chromatic_lower_bound(g)
            if chi_a > 1:
                order = woody.exact._vertex_order(g)
                assert woody.exact._search_acyclic(g, chi_a - 1, order, ticker) is None

    def test_max_clique(self):
        assert max_clique_size(complete_graph(7)) == 7
        assert max_clique_size(cycle_graph(6)) == 2
        assert max_clique_size(Graph(3, [])) == 1
        assert max_clique_size(petersen_graph()) == 2

    def test_lower_bound_takes_a_known_arboricity(self, connected_n6):
        for g in connected_n6[::5]:
            arb = arboricity(g)[0]
            assert strong_arboricity_lower_bound(g, arb) == strong_arboricity_lower_bound(g)
            with_arb, without = strong_arboricity_exact(g, arb=arb), strong_arboricity_exact(g)
            assert (with_arb.value, with_arb.nodes, with_arb.certificate.colors) == (
                without.value, without.nodes, without.certificate.colors)

    def test_dense_clique_number_matches_networkx(self):
        # dense graphs on 30 to 45 vertices: a search that took a greedy
        # clique in a neighbourhood past 24 vertices returned ω − 1 or ω − 2
        # on four of these 40 (n = 35, p = 0.83: 13 where ω = 15)
        import networkx as nx

        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(30, 45)
            p = rng.uniform(0.7, 0.85)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            oracle = nx.empty_graph(n)
            oracle.add_edges_from(g.edges)
            assert max_clique_size(g) == max(map(len, nx.find_cliques(oracle))), g.edges

    def test_whole_graph_clique_number_matches_networkx(self):
        import networkx as nx

        rng = random.Random(2718)
        for _ in range(80):
            n = rng.randint(25, 60)
            p = rng.uniform(0.1, 0.6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            oracle = nx.empty_graph(n)
            oracle.add_edges_from(g.edges)
            assert max_clique_size(g) == max(map(len, nx.find_cliques(oracle))), g.edges

    def test_bitset_clique_number_matches_networkx(self):
        # small graphs, the empty one among them, in the peeled order and in
        # any other: the order steers only the cost
        import networkx as nx

        rng = random.Random(1729)
        for _ in range(150):
            n = rng.randint(0, 40)
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            oracle = nx.empty_graph(n)
            oracle.add_edges_from(g.edges)
            omega = max(map(len, nx.find_cliques(oracle)), default=0)
            assert max_clique_size(g) == omega
            assert max_clique_size(g, rng.sample(range(n), n)) == omega

    def test_conflict_bound_on_a_hub_over_a_large_grid(self):
        # the degeneracy is 4, so no vertex branches on more than 4 later
        # neighbours, although the hub has 3,600. χ′(K4) = 3, and the
        # arboricity, 4, is the bound
        grid = grid_graph(60, 60, triangulated=True)
        g = Graph(grid.n + 1, list(grid.edges) + [(v, grid.n) for v in range(grid.n)])
        t0 = time.perf_counter()
        assert max_clique_size(g) == 4
        assert strong_arboricity_lower_bound(g) == 4
        assert time.perf_counter() - t0 < 1.0

    def test_clique_number_memory_is_linear_on_a_long_path(self):
        # bitsets over all n vertices took 207 MiB here; each vertex's
        # bitsets now span only its later neighbours
        import tracemalloc

        g = path_graph(40_000)
        order = coloring_number(g)[1]
        tracemalloc.start()
        try:
            assert max_clique_size(g, order) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# the rollback union-find the static-order χ_a reference below relies on
class RollbackUnionFind:
    """Union-find whose unions can be undone in LIFO order.

    No path compression: finds must not mutate state, otherwise rollback
    would need a full journal. Union by size keeps trees O(log n) deep,
    which is what the forest / 2-independent partition search, its one
    solver, relies on.
    """

    __slots__ = ("parent", "size", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[int] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append(rb)
        return True

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        trail = self.trail
        parent = self.parent
        size = self.size
        while len(trail) > mark:
            rb = trail.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb


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
        # K8's bounds meet (ω = 8 = the all-distinct palette), so the solve
        # is exact though the budget ran out; C5's stay apart
        res = acyclic_chromatic_exact(complete_graph(8), Budget(max_nodes=3))
        assert res.exact and res.value == 8 and (res.lower, res.upper) == (8, 8)
        assert is_acyclic_vertex(res.certificate)[0]
        res = acyclic_chromatic_exact(cycle_graph(5), Budget(max_nodes=3))
        assert not res.exact and res.value is None
        assert (res.lower, res.upper) == (3, 5)

    def test_matches_static_order_search(self, connected_n7):
        # the search in a fixed vertex order, with a rollback union-find per
        # color pair, which the forward-checked search replaced
        def static_order_chi_a(g):
            order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
            colors = [None] * g.n

            def dfs(pos, used, k, ufs):
                if pos == g.n:
                    return True
                v = order[pos]
                nbr_cols = {}
                for w in g.adj[v]:
                    if colors[w] is not None:
                        nbr_cols.setdefault(colors[w], []).append(w)
                for a in range(min(k, used + 1)):
                    if a in nbr_cols or any(
                            len({ufs[a, b].find(w) for w in ws}) < len(ws)
                            for b, ws in nbr_cols.items()):
                        continue
                    colors[v] = a
                    marks = []
                    for b, ws in nbr_cols.items():
                        marks.append((ufs[a, b], ufs[a, b].mark()))
                        for w in ws:
                            ufs[a, b].union(v, w)
                    if dfs(pos + 1, max(used, a + 1), k, ufs):
                        return True
                    for uf, mk in reversed(marks):
                        uf.rollback(mk)
                    colors[v] = None
                return False

            k = max(1, max_clique_size(g), 3 if has_cycle(g) else 2 if g.m else 1)
            while True:
                # one union-find per unordered color pair
                pairs = {}
                for a in range(k):
                    for b in range(a):
                        pairs[a, b] = pairs[b, a] = RollbackUnionFind(g.n)
                if dfs(0, 0, k, pairs):
                    return k
                k += 1

        named = [petersen_graph(), mcgee_graph(), complete_bipartite(4, 5),
                 complete_bipartite(5, 5), complete_graph(7)]
        for g in connected_n7 + named:
            res = acyclic_chromatic_exact(g)
            assert res.value == static_order_chi_a(g), g.edges
            assert is_acyclic_vertex(res.certificate)[0]
            assert res.certificate.palette_size == res.value


class TestChromatic:
    def test_values(self):
        assert chromatic_exact(complete_graph(4)).value == 4
        assert chromatic_exact(cycle_graph(5)).value == 3
        assert chromatic_exact(cycle_graph(6)).value == 2
        assert chromatic_exact(petersen_graph()).value == 3

    def test_bad_certificate_is_refused_naming_the_edge(self, monkeypatch):
        # one color on C4: the gate names the first edge whose ends share it
        monkeypatch.setattr(woody.exact, "_search_proper",
                            lambda adj, k, order, ticker: [0] * len(adj))
        named = r"failed verification: MonochromaticEdgeWitness\(edge=0, color=0\)"
        with pytest.raises(AssertionError, match=named):
            chromatic_exact(cycle_graph(4))

    def test_matches_static_order_search(self, connected_n7):
        # the proper coloring search in a fixed vertex order, which the
        # forward-checked search replaced
        def static_order_chi(g):
            order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
            colors = [None] * g.n

            def dfs(pos, used, k):
                if pos == g.n:
                    return True
                v = order[pos]
                forb = {colors[w] for w in g.adj[v]}
                for c in range(min(k, used + 1)):
                    if c not in forb:
                        colors[v] = c
                        if dfs(pos + 1, max(used, c + 1), k):
                            return True
                        colors[v] = None
                return False

            k = max(1, max_clique_size(g))
            while not dfs(0, 0, k):
                k += 1
            return k

        named = [petersen_graph(), mcgee_graph(), complete_bipartite(4, 5), complete_graph(7)]
        for g in connected_n7 + named:
            res = chromatic_exact(g)
            assert res.value == static_order_chi(g), g.edges
            assert is_proper_vertex(res.certificate)
            assert res.certificate.palette_size == res.value


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

    def test_matches_static_order_search(self, connected_n6, connected_n7):
        # the proper coloring search over the line graph in a fixed edge
        # order, which the forward-checked search replaced
        def static_order_index(g):
            order = sorted(range(g.m), key=lambda e: (-sum(map(g.degree, g.edges[e])), e))
            line = [[g.edge_id(x, w) for x in uv for w in g.adj[x] if w not in uv]
                    for uv in g.edges]
            colors = [None] * g.m

            def dfs(pos, used, k):
                if pos == g.m:
                    return True
                e = order[pos]
                forb = {colors[f] for f in line[e]}
                for c in range(min(k, used + 1)):
                    if c not in forb:
                        colors[e] = c
                        if dfs(pos + 1, max(used, c + 1), k):
                            return True
                        colors[e] = None
                return False

            k = max(map(g.degree, range(g.n)))
            while not dfs(0, 0, k):
                k += 1
            return k

        for g in connected_n6 + connected_n7[::3] + [petersen_graph(), mcgee_graph()]:
            res = chromatic_index_exact(g)
            assert res.value == static_order_index(g), g.edges
            assert res.certificate.palette_size == res.value

    def test_labeling_does_not_grow_the_tree(self):
        # under the static order, seeded relabelings of McGee took from
        # 1,695 to 276,006 χ′ nodes; the dynamic order needs at most 207 on
        # 60. χ_a took up to 809 nodes on 20 relabelings of McGee and 1,098
        # on K5,5, and now takes at most 46
        for solve, base, value, bound in (
                (chromatic_index_exact, mcgee_graph(), 3, 1000),
                (acyclic_chromatic_exact, mcgee_graph(), 3, 200),
                (acyclic_chromatic_exact, complete_bipartite(5, 5), 6, 200)):
            rng = random.Random(7)
            for _ in range(20):
                res = solve(relabeled(base, rng))
                assert res.value == value and res.nodes <= bound


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

    @pytest.mark.parametrize("g", [path_graph(1200), cycle_graph(1200)],
                             ids=["P1200", "C1200"])
    def test_deeper_than_the_recursion_limit(self, g):
        # a node is an assignment tried: one per vertex, no backtrack
        res = find_forest_2independent_partition(g)
        assert res.found and res.exact and res.nodes == 1200
        coloring = partition_coloring(g, res.a, res.f)
        assert is_strongly_woody(coloring)[0]

    @pytest.mark.parametrize("g,a", [
        (Graph(0, []), set()),
        (Graph(1, []), {0}),
        (Graph(2, [(0, 1)]), {0}),
        (path_graph(3), {0}),
        (Graph(6, [(1, 2), (2, 3), (4, 5)]), {0, 1, 4}),
    ], ids=["empty", "K1", "K2", "P3", "isolated"])
    def test_colors_that_are_not_interchangeable(self, g, a):
        # A and F are both in use from the start, so one vertex alone can
        # count two admissible colors; the pick must still take it
        res = find_forest_2independent_partition(g)
        assert res.found and res.exact and res.a == a and res.nodes == g.n
        assert res.f == set(range(g.n)) - a
        assert is_strongly_woody(partition_coloring(g, res.a, res.f))[0]


@pytest.mark.parametrize("g", [path_graph(1200), cycle_graph(1200)],
                         ids=["P1200", "C1200"])
@pytest.mark.parametrize("solve,items,values", [
    (strong_arboricity_exact, "m", (1, 2)),
    (acyclic_chromatic_exact, "n", (2, 3)),
    (chromatic_exact, "n", (2, 2)),
    (chromatic_index_exact, "m", (2, 2)),
], ids=["zeta", "chi_a", "chi", "chi_index"])
def test_deeper_than_the_recursion_limit(g, solve, items, values):
    # one node per item: the search colors a path or an even cycle with no
    # backtrack, 1,200 items deep
    res = solve(g)
    assert res.exact and res.value == values[has_cycle(g)]
    assert res.nodes == getattr(g, items)
