import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woody import (
    Graph,
    GraphFormatError,
    VertexSubsetView,
    coloring_number,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_cycles,
    euler_planar_sanity,
    find_triangle,
    girth,
    has_triangle,
    induces_forest,
    is_2_independent,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
)
from woody.graphs import subset_adjacency, subset_bfs

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

    def test_subset_view_induced_edges(self):
        g = cycle_graph(5)
        view = VertexSubsetView(g, [0, 1, 2])
        assert view.num_vertices == 3
        induced = {g.edges[i] for i in view.induced_edge_ids()}
        assert induced == {(0, 1), (1, 2)}


class TestSubsetBfs:
    def test_tree_in_discovery_order(self):
        # the subset {0-1, 1-2, 1-3, 4-5} of K6: BFS from 0 stays in 0..3
        g = complete_graph(6)
        eids = [g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(1, 3), g.edge_id(4, 5)]
        nbrs = subset_adjacency(g, eids)
        assert nbrs[1] == [(0, eids[0]), (2, eids[1]), (3, eids[2])]
        tree = subset_bfs(nbrs, 0)
        assert list(tree.items()) == [
            (0, None), (1, (0, eids[0])), (2, (1, eids[1])), (3, (1, eids[2]))]

    def test_stops_at_dst(self):
        g = path_graph(6)
        nbrs = subset_adjacency(g, range(g.m))
        assert list(subset_bfs(nbrs, 2, 1)) == [2, 1]
        assert list(subset_bfs(nbrs, 2, 4)) == [2, 1, 3, 0, 4]
        # a dst outside the subset ends the search at once
        assert subset_bfs(subset_adjacency(g, [0, 1]), 0, 5) == {0: None}
        assert 5 not in subset_bfs(subset_adjacency(g, [0, 1, 4]), 0, 5)


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
        lengths = {len(c) for c in enumerate_cycles(g, max_length=5)}
        assert lengths == {5}
        assert girth(g) == 5

    def test_agrees_with_cycle_enumeration_on_corpus(self):
        for g in corpus_graphs("connected_n6.g6"):
            expected = min((len(c) for c in enumerate_cycles(g)), default=math.inf)
            assert girth(g) == expected

    def test_forest_iff_infinite(self, connected_n6):
        from woody import connected_components, has_cycle

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

    def test_induces_forest(self):
        c5 = cycle_graph(5)
        assert induces_forest(c5, {0, 1, 2, 3})
        assert not induces_forest(c5, {0, 1, 2, 3, 4})
        assert induces_forest(c5, set())


class TestTriangleAndEuler:
    def test_examples(self):
        k4, c4, k5 = complete_graph(4), cycle_graph(4), complete_graph(5)
        assert has_triangle(k4) and euler_planar_sanity(k4)
        assert not has_triangle(c4) and euler_planar_sanity(c4, triangle_free=True)
        assert not euler_planar_sanity(k5)
        u, v, w = find_triangle(k4)
        assert k4.has_edge(u, v) and k4.has_edge(v, w) and k4.has_edge(u, w)
        assert find_triangle(c4) is None

    def test_tiny_graphs(self):
        assert euler_planar_sanity(complete_graph(2))
        assert euler_planar_sanity(Graph(1, []))
