"""Exact arboricity via matroid-partition augmentation, plus the
brute-force density maximization that serves as its independent oracle.

The two routes are kept deliberately separate: arboricity() builds a
certifying forest decomposition by exchange-path search (Edmonds'
matroid partition, on forests kept rooted so that a connectivity test is
a label comparison and a cycle is a climb along parent edges), while
fractional_arboricity_bruteforce() maximizes |E(H)|/(|V(H)|-1) over all
induced subgraphs with exact rational arithmetic. Their agreement
(min forests = ceiling of max density) is asserted across the test corpus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardError, PreconditionError
from .graphs import Graph, VertexSubsetView
from .unionfind import UnionFind

DENSITY_MAX_VERTICES = 24


@dataclass(frozen=True)
class ForestDecomposition:
    """Assignment of every edge to one of num_forests acyclic classes."""

    parent: Graph
    assignment: tuple[int, ...]
    num_forests: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_forests)]
        for e, f in enumerate(self.assignment):
            out[f].append(e)
        return out

    def is_valid(self) -> bool:
        if len(self.assignment) != self.parent.m:
            return False
        if any(not 0 <= f < self.num_forests for f in self.assignment):
            return False
        for eids in self.classes():
            uf = UnionFind(self.parent.n)
            for e in eids:
                u, v = self.parent.edges[e]
                if not uf.union(u, v):
                    return False
        return True

    def to_json(self) -> list[int]:
        return list(self.assignment)


@dataclass(frozen=True)
class DensityCertificate:
    """A vertex subset witnessing the maximum of |E(H)| / (|V(H)|-1)."""

    subgraph: VertexSubsetView
    density: Fraction

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.subgraph.members),
            "num_edges": self.subgraph.num_edges,
            "density": [self.density.numerator, self.density.denominator],
        }

    def check(self) -> bool:
        nv = self.subgraph.num_vertices
        if nv < 2:
            return self.density == 0
        return self.density == Fraction(self.subgraph.num_edges, nv - 1)


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _tree_walk(adj: dict[int, list[tuple[int, int]]], root: int):
    """Yield the vertices of root's tree in adj, one per step."""
    yield root
    stack = [(root, -1)]
    while stack:
        w, pe = stack.pop()
        for x, e in adj.get(w, ()):
            if e != pe:
                yield x
                stack.append((x, e))


class _Forest:
    """One forest of the partition, kept rooted.

    Next to the adjacency (vertex -> [(neighbor, edge id)]) every vertex has
    a component label, the id of the edge to its parent (-1 at a root) and
    a depth, so connectivity is one label comparison and the path between
    two vertices is a climb to their meeting point. A link or a cut rewrites
    only the smaller of the two trees involved: a link knows the sizes
    (kept per label), a cut searches both sides in turn until one runs out.
    """

    __slots__ = ("edges", "adj", "label", "parent", "depth", "size", "next_label")

    def __init__(self, g: Graph):
        self.edges = g.edges
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self.label = list(range(g.n))
        self.parent = [-1] * g.n
        self.depth = [0] * g.n
        self.size: dict[int, int] = {}  # vertices per label, for trees with edges
        self.next_label = g.n

    def _hang(self, s: int, pe: int, lab: int, d: int) -> None:
        """Root s's tree at s, below parent edge pe at depth d, labelled lab."""
        label, parent, depth, adj = self.label, self.parent, self.depth, self.adj
        label[s], parent[s], depth[s] = lab, pe, d
        stack = [s]
        while stack:
            w = stack.pop()
            pe, d = parent[w], depth[w] + 1
            for x, e in adj.get(w, ()):
                if e != pe:
                    label[x], parent[x], depth[x] = lab, e, d
                    stack.append(x)

    def link(self, e: int) -> None:
        """Add edge e, hanging the smaller tree under the larger one."""
        u, v = self.edges[e]
        label, size = self.label, self.size
        if label[u] == label[v]:
            raise AssertionError(f"edge {e} would close a cycle in its forest")
        su, sv = size.pop(label[u], 1), size.pop(label[v], 1)
        if su < sv:
            u, v = v, u
        self._hang(v, e, label[u], self.depth[u] + 1)
        size[label[u]] = su + sv
        self.adj.setdefault(u, []).append((v, e))
        self.adj.setdefault(v, []).append((u, e))

    def cut(self, e: int) -> None:
        """Remove edge e; the smaller of the two trees it leaves gets a
        fresh label and is re-rooted at its end of e."""
        u, v = self.edges[e]
        adj, size = self.adj, self.size
        adj[u].remove((v, e))
        adj[v].remove((u, e))
        walks = (_tree_walk(adj, u), _tree_walk(adj, v))
        small = 0
        while True:
            if next(walks[0], None) is None:
                s, t = u, v
                break
            if next(walks[1], None) is None:
                s, t = v, u
                break
            small += 1
        big = size.pop(self.label[t]) - small
        lab = self.next_label
        self.next_label += 1
        self._hang(s, -1, lab, 0)
        if self.parent[t] == e:
            self.parent[t] = -1
        if small > 1:
            size[lab] = small
        if big > 1:
            size[self.label[t]] = big

    def path(self, a: int, b: int) -> list[int]:
        """Edge ids of the tree path from a to b, in order from a."""
        parent, depth, edges = self.parent, self.depth, self.edges
        head: list[int] = []
        tail: list[int] = []
        while a != b:
            if depth[a] >= depth[b]:
                e = parent[a]
                head.append(e)
                x, y = edges[e]
                a = y if x == a else x
            else:
                e = parent[b]
                tail.append(e)
                x, y = edges[e]
                b = y if x == b else x
        head.extend(reversed(tail))
        return head


class _Partitioner:
    """Incremental k-forest partition with breadth-first exchange search
    (Edmonds' matroid partition).

    An uncovered edge enters the first forest in which its ends lie in
    different trees. If every forest closes a cycle, the cycle edges are
    candidates for displacement and the search continues from them. A BFS
    (shortest exchange chain) keeps sequential displacements valid, so
    every forest stays a forest after each single move.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.owner: list[int | None] = [None] * g.m
        self.forests = [_Forest(g) for _ in range(k)]

    def add_forest(self) -> None:
        self.forests.append(_Forest(self.g))
        self.k += 1

    def _insert(self, fi: int, e: int) -> None:
        self.forests[fi].link(e)
        self.owner[e] = fi

    def place(self, e0: int) -> bool:
        """Cover edge e0, possibly displacing edges along an exchange chain."""
        edges, owner, forests = self.g.edges, self.owner, self.forests
        pred: dict[int, int | None] = {e0: None}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = edges[x]
            own = owner[x]
            for fi, forest in enumerate(forests):
                if fi != own and forest.label[xu] != forest.label[xv]:
                    # augment: x enters fi, its predecessor takes x's old slot
                    target = fi
                    while True:
                        old = owner[x]
                        if old is not None:
                            forests[old].cut(x)
                        self._insert(target, x)
                        p = pred[x]
                        if p is None:
                            return True
                        x, target = p, old
            # x closes a cycle in every other forest: queue each cycle's
            # edges from xv back to xu (the order decides which
            # decomposition comes out)
            for fi, forest in enumerate(forests):
                if fi != own:
                    for y in forest.path(xv, xu):
                        if y not in pred:
                            pred[y] = x
                            queue.append(y)
        return False


def arboricity(g: Graph) -> tuple[int, ForestDecomposition]:
    """Minimum number of forests partitioning the edges, with a certificate.

    Starts at the density lower bound ceil(m/(n-1)) and runs matroid
    partition augmentation; a failed exchange search proves the current k
    infeasible, so k is incremented and the search resumes.
    """
    m = g.m
    if m == 0:
        return 0, ForestDecomposition(g, (), 0)
    k = max(1, -((-m) // (g.n - 1)))
    part = _Partitioner(g, k)
    for e in range(m):
        while not part.place(e):
            part.add_forest()
    decomp = ForestDecomposition(g, tuple(part.owner), part.k)
    if not decomp.is_valid():
        raise AssertionError("matroid partition produced an invalid decomposition")
    return part.k, decomp


def fractional_arboricity_bruteforce(g: Graph) -> DensityCertificate:
    """Exact maximization of |E(H)|/(|V(H)|-1) over induced vertex subsets.

    Restriction to induced subgraphs is safe: taking all edges over a fixed
    vertex set never lowers the ratio. Edge counts come from a subset DP;
    densities are exact integer pairs, never floats. 2^n enumeration,
    guarded at n <= 24.
    """
    n = g.n
    if n > DENSITY_MAX_VERTICES:
        raise GuardError(f"subset enumeration guarded at n <= {DENSITY_MAX_VERTICES}")
    if n < 2:
        return DensityCertificate(VertexSubsetView(g, range(n)), Fraction(0))
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    counts = [0] * (1 << n)
    best_num, best_den, best_mask = 0, 1, (1 << min(2, n)) - 1
    for s in range(1, 1 << n):
        low = s & (-s)
        v = low.bit_length() - 1
        rest = s ^ low
        cnt = counts[rest] + (masks[v] & rest).bit_count()
        counts[s] = cnt
        size = s.bit_count()
        if size >= 2 and cnt * best_den > best_num * (size - 1):
            best_num, best_den, best_mask = cnt, size - 1, s
    members = [v for v in range(n) if (best_mask >> v) & 1]
    return DensityCertificate(VertexSubsetView(g, members), Fraction(best_num, best_den))


def arboricity_lower_bound(g: Graph) -> int:
    """ceil of the whole-graph density; cheap and always valid."""
    if g.m == 0:
        return 0
    return -((-g.m) // (g.n - 1))


def two_forest_decomposition(g: Graph) -> ForestDecomposition:
    """Arboricity specialization for graphs decomposable into two forests."""
    k, decomp = arboricity(g)
    if k > 2:
        cert = None
        if g.n <= DENSITY_MAX_VERTICES:
            cert = fractional_arboricity_bruteforce(g)
        raise PreconditionError(
            f"graph needs {k} forests, not 2", certificate=cert)
    return ForestDecomposition(g, decomp.assignment, 2)


def nash_williams_ceiling(g: Graph) -> int:
    """ceil of the exact fractional arboricity (oracle-side value)."""
    cert = fractional_arboricity_bruteforce(g)
    if cert.density == 0:
        return 0
    return _ceil_fraction(cert.density)
