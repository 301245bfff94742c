"""Exact arboricity via matroid-partition augmentation, plus the
brute-force density maximization that serves as its independent oracle.

The two routes are kept deliberately separate: arboricity() builds a
certifying forest decomposition by exchange-path search, while
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


class _Partitioner:
    """Incremental k-forest partition with breadth-first exchange search.

    Forests are adjacency dicts. An uncovered edge seeks a forest that
    accepts it; if every forest closes a cycle, the cycle edges are
    candidates for displacement and the search continues from them. A BFS
    (shortest exchange chain) keeps sequential displacements valid.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.owner: list[int | None] = [None] * g.m
        self.forests: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(k)]

    def add_forest(self) -> None:
        self.forests.append(dict())
        self.k += 1

    def _forest_path(self, fi: int, src: int, dst: int) -> list[int] | None:
        """Edge ids of the path from src to dst inside forest fi, else None."""
        adj = self.forests[fi]
        if src not in adj or dst not in adj:
            return None
        prev: dict[int, tuple[int, int]] = {}
        seen = {src}
        q = deque([src])
        while q:
            u = q.popleft()
            if u == dst:
                break
            for w, e in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    prev[w] = (u, e)
                    q.append(w)
        if dst not in seen:
            return None
        path = []
        cur = dst
        while cur != src:
            cur, e = prev[cur]
            path.append(e)
        return path

    def _insert(self, fi: int, e: int) -> None:
        u, v = self.g.edges[e]
        self.forests[fi].setdefault(u, []).append((v, e))
        self.forests[fi].setdefault(v, []).append((u, e))
        self.owner[e] = fi

    def _remove(self, fi: int, e: int) -> None:
        u, v = self.g.edges[e]
        self.forests[fi][u].remove((v, e))
        self.forests[fi][v].remove((u, e))

    def place(self, e0: int) -> bool:
        """Cover edge e0, possibly displacing edges along an exchange chain."""
        pred: dict[int, int | None] = {e0: None}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for fi in range(self.k):
                if self.owner[x] == fi:
                    continue
                path = self._forest_path(fi, xu, xv)
                if path is None:
                    # augment: x enters fi, its predecessor takes x's old slot
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
                for y in path:
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
