import math
import random
from collections import Counter, deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woody.errors import GraphFormatError
from woody.graphs import (
    Graph,
    UnionFind,
    coloring_number,
    complete_graph,
    cycle_graph,
    encode_graph6,
    euler_planar_sanity,
    find_triangle,
    girth,
    graph6_lines,
    has_triangle,
    induces_forest,
    is_2_independent,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    subset_adjacency,
    tree_walk,
)
from woody.verify import enumerate_cycles

from conftest import corpus_lines, corpus_graphs, petersen_graph


class TestGraphModel:
    def test_edge_indices_are_stable_and_sorted(self):
        g = Graph(4, [(2, 1), (0, 3), (3, 1)])
        assert g.edges == ((1, 2), (0, 3), (1, 3))
        assert g.edge_id(3, 0) == 1
        assert g.adj[3] == (0, 1)

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])


class TestTreeWalk:
    def random_forest(self, seed: int):
        """A random forest inside K9 as a subset, with the graph's other
        edges outside it."""
        g = complete_graph(9)
        rng = random.Random(seed)
        order = list(range(g.m))
        rng.shuffle(order)
        uf = UnionFind(g.n)
        eids = [e for e in order[:14] if uf.union(*g.edges[e])]
        return g, eids, uf

    @pytest.mark.parametrize("seed", range(8))
    def test_each_vertex_once_after_its_parent_from_any_root(self, seed):
        g, eids, uf = self.random_forest(seed)
        nbrs = subset_adjacency(g, eids)
        for root in range(g.n):
            seen = {root}
            for x, e, w in tree_walk(nbrs, root):
                assert x not in seen and w in seen
                assert e in eids and set(g.edges[e]) == {x, w}
                seen.add(x)
            assert seen == {v for v in range(g.n) if uf.find(v) == uf.find(root)}

    def test_parent_edges_form_the_tree(self):
        # the subset {0-1, 1-2, 1-3, 4-5} of K6: from 2 the walk stays in 0..3
        g = complete_graph(6)
        eids = [g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(1, 3), g.edge_id(4, 5)]
        nbrs = subset_adjacency(g, eids)
        assert nbrs[1] == [(0, eids[0]), (2, eids[1]), (3, eids[2])]
        walk = sorted(tree_walk(nbrs, 2))
        assert walk == [(0, eids[0], 1), (1, eids[1], 2), (3, eids[2], 1)]
        # 4-5 is a tree of its own; a vertex with no subset edge yields nothing
        assert list(tree_walk(nbrs, 4)) == [(5, eids[3], 4)]
        assert list(tree_walk(subset_adjacency(g, []), 0)) == []


class TestGraph6:
    def test_star_example(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert set(g.edges) == {(0, 4), (1, 4), (2, 4), (3, 4)}

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert (g.n, g.m) == (1, 0)

    def test_roundtrip_on_corpus(self):
        lines = corpus_lines("connected_n6.g6") + corpus_lines("connected_n7.g6")
        assert len(lines) >= 100
        for line in lines:
            assert encode_graph6(parse_graph6(line)) == line

    def test_cross_check_against_networkx_decoder(self):
        # independent decoder oracle over 100+ corpus strings
        lines = corpus_lines("connected_n7.g6")[:150]
        for line in lines:
            ours = parse_graph6(line)
            theirs = nx.from_graph6_bytes(line.encode("ascii"))
            assert ours.n == theirs.number_of_nodes()
            assert set(ours.edges) == {tuple(sorted(e)) for e in theirs.edges()}

    def test_encode_matches_networkx(self):
        for g in [cycle_graph(5), complete_graph(6), star_graph(7), path_graph(9)]:
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.n))
            expected = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert encode_graph6(g) == expected

    def test_large_n_prefix_roundtrip(self):
        g = Graph(100, [(0, 99), (1, 50)])
        h = parse_graph6(encode_graph6(g))
        assert (h.n, set(h.edges)) == (g.n, set(g.edges))

    def test_error_offsets(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph6("D?\x1f")
        assert err.value.offset == 2
        with pytest.raises(GraphFormatError):
            parse_graph6("D?")  # body too short
        with pytest.raises(GraphFormatError):
            parse_graph6("D?{{")  # body too long
        with pytest.raises(GraphFormatError):
            parse_graph6("~?")  # truncated size prefix
        with pytest.raises(GraphFormatError):
            parse_graph6("")

    def test_file_lines(self):
        # blank lines go, and a header is cut from the start of any line,
        # so two headed files concatenate; line numbers count every line
        text = ">>graph6<<\n\n  Bw \n>>graph6<<C~\n>>graph6<< \n"
        assert list(graph6_lines(text.splitlines())) == [(3, "Bw"), (4, "C~")]
        assert list(graph6_lines([])) == []

    def test_nonzero_padding_rejected(self):
        # C? is the empty 4-vertex graph (6 bits used, 0 spare);
        # B? uses 3 of 6 bits, so forcing a low bit must fail
        with pytest.raises(GraphFormatError):
            parse_graph6("B@")

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.sets(st.sampled_from(pairs)))
        g = Graph(n, sorted(chosen))
        h = parse_graph6(encode_graph6(g))
        assert (h.n, set(h.edges)) == (g.n, set(g.edges))


class TestEdgeList:
    def test_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
        assert set(g.edges) == {(0, 1), (1, 2), (0, 2)}

    def test_k4_all_pairs(self):
        text = "4 6\n" + "\n".join(
            f"{i} {j}" for i in range(4) for j in range(i + 1, 4))
        assert parse_edge_list(text).m == 6

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n0 0\n")

    def test_duplicate_and_range_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 2\n0 1\n1 0\n")
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n0 5\n")
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 2\n0 1\n")


class TestGirth:
    def test_small_cases(self):
        assert girth(cycle_graph(5)) == 5
        assert girth(path_graph(6)) == math.inf
        assert girth(star_graph(4)) == math.inf
        assert girth(complete_graph(4)) == 3

    def test_petersen_by_cycle_enumeration(self):
        g = petersen_graph()
        # oracle: no cycle shorter than 5 exists, one of length 5 does
        lengths = {len(c) for c in enumerate_cycles(g) if len(c) <= 5}
        assert lengths == {5}
        assert girth(g) == 5

    def test_agrees_with_cycle_enumeration_on_corpus(self):
        for g in corpus_graphs("connected_n6.g6"):
            expected = min((len(c) for c in enumerate_cycles(g)), default=math.inf)
            assert girth(g) == expected

    def test_forest_iff_infinite(self, connected_n6):
        from woody.graphs import connected_components, has_cycle

        for g in connected_n6:
            assert (girth(g) == math.inf) == (g.m <= g.n - 1)
        # disconnected case: edge budget counts per component
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        assert girth(g) == 3
        assert has_cycle(g) == (g.m > g.n - len(connected_components(g)))
        forest = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert girth(forest) == math.inf
        assert forest.m == forest.n - len(connected_components(forest))


class TestColoringNumber:
    def test_examples(self):
        assert coloring_number(complete_graph(4))[0] == 4
        assert coloring_number(path_graph(5))[0] == 2
        assert coloring_number(star_graph(6))[0] == 2
        assert coloring_number(cycle_graph(6))[0] == 3

    def test_replay_has_exact_max_back_degree(self, connected_n6):
        for g in connected_n6:
            col, order = coloring_number(g)
            assert sorted(order) == list(range(g.n))
            pos = {v: i for i, v in enumerate(order)}
            back = [sum(1 for w in g.adj[v] if pos[w] < pos[v]) for v in order]
            assert max(back, default=0) == col - 1


class TestVertexSets:
    def test_2_independent(self):
        c6 = cycle_graph(6)
        assert is_2_independent(c6, {0, 3})
        assert not is_2_independent(c6, {0, 2})
        assert not is_2_independent(c6, {0, 1})
        assert is_2_independent(c6, {4})
        assert is_2_independent(c6, set())

    def test_2_independent_members_share_nothing(self, connected_n6):
        for g in connected_n6[:60]:
            sets = [{0}, {0, g.n - 1}, set(range(0, g.n, 3))]
            for a in sets:
                if is_2_independent(g, a):
                    for u in a:
                        for v in a:
                            if u < v:
                                assert not g.has_edge(u, v)
                                assert not (g.neighbor_set(u) & g.neighbor_set(v))

    def test_2_independent_matches_breadth_first_distances(self, connected_n6):
        # both directions: a set is accepted iff breadth-first search finds
        # its members at pairwise distance >= 3
        def far_apart(g, a):
            for u in a:
                dist = {u: 0}
                queue = deque([u])
                while queue:
                    w = queue.popleft()
                    for x in g.adj[w]:
                        if x not in dist and dist[w] < 2:
                            dist[x] = dist[w] + 1
                            queue.append(x)
                if any(v != u and v in dist for v in a):
                    return False
            return True

        rng = random.Random(26)
        graphs = connected_n6 + [f(n) for n in range(3, 16) for f in (path_graph, cycle_graph)]
        verdicts = Counter()
        for g in graphs:
            for _ in range(8):
                a = set(rng.sample(range(g.n), rng.randint(0, min(g.n, 4))))
                want = far_apart(g, a)
                assert is_2_independent(g, a) == want, (g.edges, a)
                verdicts[want] += 1
        assert verdicts[True] > 300 and verdicts[False] > 300

    def test_induces_forest(self):
        c5 = cycle_graph(5)
        assert induces_forest(c5, {0, 1, 2, 3})
        assert not induces_forest(c5, {0, 1, 2, 3, 4})
        assert induces_forest(c5, set())


class TestTriangleAndEuler:
    def test_examples(self):
        k4, c4, k5 = complete_graph(4), cycle_graph(4), complete_graph(5)
        assert has_triangle(k4) and euler_planar_sanity(k4)
        assert not has_triangle(c4) and euler_planar_sanity(c4)
        assert not euler_planar_sanity(k5)
        u, v, w = find_triangle(k4)
        assert k4.has_edge(u, v) and k4.has_edge(v, w) and k4.has_edge(u, w)
        assert find_triangle(c4) is None

    def test_tiny_graphs(self):
        assert euler_planar_sanity(complete_graph(2))
        assert euler_planar_sanity(Graph(1, []))
