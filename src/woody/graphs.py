"""Graph data model, graph6/edge-list codecs, and basic structural parameters.

Vertices are dense integers 0..n-1 and edges carry stable integer indices,
so colorings and decompositions elsewhere in the package are plain arrays.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from .errors import GraphFormatError
from .unionfind import UnionFind


class Graph:
    """Immutable simple undirected graph.

    edges[i] is the pair (u, v) with u < v whose edge index is i; the tuple
    never changes after construction. Adjacency lists are sorted and agree
    with the edge list.
    """

    __slots__ = ("n", "edges", "adj", "_edge_ids", "_nbr_sets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            lists[u].append(v)
            lists[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in lists)
        self._edge_ids = {e: i for i, e in enumerate(norm)}
        self._nbr_sets = tuple(frozenset(a) for a in self.adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def neighbor_set(self, v: int) -> frozenset:
        return self._nbr_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_ids

    def edge_id(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self._edge_ids[(u, v)]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class VertexSubsetView:
    """A vertex subset of a parent graph together with its induced edges."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: Graph, members: Iterable[int]):
        ms = frozenset(members)
        for v in ms:
            if not 0 <= v < parent.n:
                raise ValueError(f"vertex {v} not in parent graph")
        self.parent = parent
        self.members = ms

    @property
    def num_vertices(self) -> int:
        return len(self.members)

    def induced_edge_ids(self) -> list[int]:
        ms = self.members
        return [i for i, (u, v) in enumerate(self.parent.edges) if u in ms and v in ms]

    @property
    def num_edges(self) -> int:
        return len(self.induced_edge_ids())

    def __repr__(self) -> str:
        return f"VertexSubsetView({sorted(self.members)})"


# ---------------------------------------------------------------------------
# graph6 codec (McKay's format: 6-bit groups, offset 63, upper-triangle
# column order, zero padding)

_G6_LO = 63
_G6_HI = 126


def _g6_char_value(s: str, i: int) -> int:
    c = ord(s[i])
    if not _G6_LO <= c <= _G6_HI:
        raise GraphFormatError(f"character {s[i]!r} out of printable range", i)
    return c - _G6_LO


def _parse_g6_size(s: str) -> tuple[int, int]:
    """Return (n, index of first body byte)."""
    if not s:
        raise GraphFormatError("empty graph6 string", 0)
    first = _g6_char_value(s, 0)
    if first != 63:  # single-byte size, n <= 62
        return first, 1
    if len(s) >= 2 and ord(s[1]) == _G6_HI:  # '~~' + 36 bits
        if len(s) < 8:
            raise GraphFormatError("malformed length prefix: truncated 8-byte size", len(s))
        n = 0
        for i in range(2, 8):
            n = (n << 6) | _g6_char_value(s, i)
        return n, 8
    if len(s) < 4:  # '~' + 18 bits
        raise GraphFormatError("malformed length prefix: truncated 4-byte size", len(s))
    n = 0
    for i in range(1, 4):
        n = (n << 6) | _g6_char_value(s, i)
    return n, 4


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (no header prefix) into a Graph.

    Errors report the byte offset of the offending character: malformed
    length prefix, out-of-range characters, wrong body length, or nonzero
    padding bits.
    """
    s = line.rstrip("\n")
    n, body = _parse_g6_size(s)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - body < nchars:
        raise GraphFormatError(
            f"graph6 body too short: need {nchars} bytes for n={n}", len(s))
    if len(s) - body > nchars:
        raise GraphFormatError("graph6 body too long", body + nchars)
    edges = []
    val = 0
    have = 0
    idx = body - 1
    for j in range(1, n):
        for i in range(j):
            if have == 0:
                idx += 1
                val = _g6_char_value(s, idx)
                have = 6
            have -= 1
            if (val >> have) & 1:
                edges.append((i, j))
    if have and val & ((1 << have) - 1):
        raise GraphFormatError("nonzero padding bits", idx)
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical graph6 string (inverse of parse_graph6)."""
    n = g.n
    if n <= 62:
        out = [chr(n + _G6_LO)]
    elif n <= 258047:
        out = ["~"] + [chr(((n >> sh) & 63) + _G6_LO) for sh in (12, 6, 0)]
    elif n <= 68719476735:
        out = ["~", "~"] + [chr(((n >> sh) & 63) + _G6_LO) for sh in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError("graph too large for graph6")
    val = 0
    have = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | (1 if g.has_edge(i, j) else 0)
            have += 1
            if have == 6:
                out.append(chr(val + _G6_LO))
                val = 0
                have = 0
    if have:
        out.append(chr((val << (6 - have)) + _G6_LO))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace-separated "n m" header plus m "u v" lines."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from None
    if len(tokens) != 2 + 2 * m:
        raise GraphFormatError(
            f"expected {2 * m} endpoint tokens after header, got {len(tokens) - 2}")
    pairs = []
    for i in range(m):
        try:
            u, v = int(tokens[2 + 2 * i]), int(tokens[3 + 2 * i])
        except ValueError as exc:
            raise GraphFormatError(f"bad endpoint in edge {i}: {exc}") from None
        pairs.append((u, v))
    try:
        return Graph(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural parameters


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    q.append(w)
        comps.append(comp)
    return comps


def subset_adjacency(g: Graph, eids: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """(neighbor, edge id) lists of the subgraph formed by the given edges."""
    nbrs: dict[int, list[tuple[int, int]]] = {}
    for e in eids:
        u, v = g.edges[e]
        nbrs.setdefault(u, []).append((v, e))
        nbrs.setdefault(v, []).append((u, e))
    return nbrs


def subset_bfs(nbrs: dict[int, list[tuple[int, int]]], src: int,
               dst: int | None = None) -> dict[int, tuple[int, int] | None]:
    """Breadth-first tree from src inside an edge subset.

    nbrs maps a vertex to its (neighbor, edge id) pairs in the subset, as
    subset_adjacency builds them. Returns {vertex: (parent, edge id)} in
    discovery order, with src mapped to None. Given dst, the search stops
    as soon as dst is discovered (at once if dst touches no subset edge);
    following parents from dst then walks a shortest path back to src.
    """
    tree: dict[int, tuple[int, int] | None] = {src: None}
    if dst is not None and dst not in nbrs:
        return tree
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


def has_cycle(g: Graph) -> bool:
    uf = UnionFind(g.n)
    return any(not uf.union(u, v) for u, v in g.edges)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, math.inf for forests.

    BFS from every vertex; candidate cycle lengths never undercut the true
    girth and are exact from a root lying on a shortest cycle, so the
    overall minimum is exact. O(n*m).
    """
    best: int | float = math.inf
    n = g.n
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du >= best - 1:
                continue
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif w != parent[u]:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def coloring_number(g: Graph) -> tuple[int, list[int]]:
    """Least r admitting a vertex ordering with back-degree <= r-1.

    Computed by repeated minimum-degree removal (degeneracy + 1). Returns
    (r, ordering): replaying the ordering gives max back-degree exactly r-1.
    """
    n = g.n
    if n == 0:
        return 0, []
    deg = [g.degree(v) for v in range(n)]
    maxdeg = max(deg) if n else 0
    buckets: list[list[int]] = [[] for _ in range(maxdeg + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    removal = []
    core = 0
    cur = 0
    for _ in range(n):
        # lazy deletion: skip bucket entries whose degree is stale
        while True:
            while cur <= maxdeg and not buckets[cur]:
                cur += 1
            v = buckets[cur].pop()
            if not removed[v] and deg[v] == cur:
                break
        core = max(core, deg[v])
        removed[v] = True
        removal.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
                if deg[w] < cur:
                    cur = deg[w]
    removal.reverse()
    return core + 1, removal


def is_2_independent(g: Graph, a: Iterable[int]) -> bool:
    """True iff all distinct members of a are at pairwise distance >= 3.

    Equivalent check: no edge inside a and no vertex of G has two
    neighbors in a.
    """
    members = set(a)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph")
    if len(members) <= 1:
        return True
    for u, v in g.edges:
        if u in members and v in members:
            return False
    for w in range(g.n):
        hits = 0
        for x in g.adj[w]:
            if x in members:
                hits += 1
                if hits >= 2:
                    return False
    return True


def induces_forest(g: Graph, f: Iterable[int]) -> bool:
    members = set(f)
    uf = UnionFind(g.n)
    for u, v in g.edges:
        if u in members and v in members:
            if not uf.union(u, v):
                return False
    return True


def has_triangle(g: Graph) -> bool:
    return find_triangle(g) is not None


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    for u, v in g.edges:
        common = g.neighbor_set(u) & g.neighbor_set(v)
        if common:
            return (u, v, min(common))
    return None


def euler_planar_sanity(g: Graph, triangle_free: bool = False) -> bool:
    """Necessary edge-count condition for planarity (no embedding is computed).

    m <= 3n-6 in general, m <= 2n-4 when the graph is declared triangle-free.
    Used only to reject corrupt corpora that claim to be planar.
    """
    n, m = g.n, g.m
    if n <= 2:
        return m <= 1
    return m <= (2 * n - 4 if triangle_free else 3 * n - 6)


# small constructors used across tests and the CLI


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
