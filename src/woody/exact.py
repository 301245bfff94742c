"""Desk-scale exact solvers: strong arboricity, acyclic chromatic number,
chromatic number, chromatic index, and the forest / 2-independent vertex
partition search.

All solvers are iterative-deepening branch and bound with canonical-palette
symmetry breaking (a new color index may be used only once all smaller
indices appear) and rollback union-find for incremental feasibility. Every
certificate is re-verified before it is returned; budget exhaustion yields
explicit bounds instead of a guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .construct import arboricity_square_coloring
from .decompose import arboricity
from .errors import GuardError
from .graphs import Graph, connected_components, girth, has_cycle, has_triangle
from .unionfind import RollbackUnionFind
from .verify import (
    EdgeColoring,
    VertexColoring,
    is_acyclic_vertex,
    is_proper_edge,
    is_proper_vertex,
    is_strongly_woody,
)

# the unpruned oracle search verifies every canonical coloring with up to
# zeta colors: K5 (m = 10) takes about 2 s, while refuting k = 4 alone on
# K6 (m = 15) means 44.7M leaves
ORACLE_MAX_EDGES = 10


@dataclass(frozen=True)
class Budget:
    """Node-count and wall-clock ceilings for one solver call."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    exact results carry value == lower == upper and a re-verified
    certificate; inexact results carry the bounds proven before the budget
    ran out (upper may be None when no feasible coloring is known).
    """

    value: int | None
    lower: int
    upper: int | None
    exact: bool
    certificate: object
    nodes: int
    seconds: float


class _BudgetExhausted(Exception):
    pass


class _Ticker:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget | None, t0: float):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (
            t0 + budget.max_seconds
            if budget and budget.max_seconds is not None else None)

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExhausted
        if self.deadline is not None and (self.nodes & 255) == 0 \
                and time.monotonic() > self.deadline:
            raise _BudgetExhausted


def _edge_order(g: Graph) -> list[int]:
    # constrained edges first: decreasing degree sum, edge index as tie-break
    return sorted(
        range(g.m),
        key=lambda e: (-(g.degree(g.edges[e][0]) + g.degree(g.edges[e][1])), e))


def _vertex_order(g: Graph) -> list[int]:
    # decreasing degree, vertex index as tie-break
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _deepen(g: Graph, budget: Budget | None, coloring_type, lower, search,
            check, exhausted) -> SolveResult:
    """Iterative deepening shared by the exact coloring solvers.

    A graph with nothing to color (no edges for an edge coloring, no
    vertices for a vertex coloring) is solved by the empty coloring.
    Otherwise k runs up from lower() and search(k, ticker) returns at most
    k colors, or None when k colors do not suffice. The first coloring
    found is normalized and must pass check, which returns (ok, witness).
    If the budget runs out at level k, k is the proven lower bound and
    exhausted() gives the (upper bound, certificate) to report.
    """
    t0 = time.monotonic()
    ticker = _Ticker(budget, t0)
    if not coloring_type.length_for(g):
        return SolveResult(0, 0, 0, True, coloring_type(g, []), 0, time.monotonic() - t0)
    k = lower()
    while True:
        try:
            found = search(k, ticker)
        except _BudgetExhausted:
            upper, certificate = exhausted()
            return SolveResult(None, k, upper, False, certificate, ticker.nodes,
                               time.monotonic() - t0)
        if found is not None:
            coloring = coloring_type(g, found).normalized()
            ok, witness = check(coloring)
            if not ok:
                raise AssertionError(
                    f"solver certificate failed verification: {witness}")
            return SolveResult(k, k, k, True, coloring, ticker.nodes,
                               time.monotonic() - t0)
        k += 1


def max_clique_size(g: Graph, vertices=None) -> int:
    """Size of a maximum clique among `vertices` (default: all).

    Exact branch and bound up to 24 candidate vertices, greedy below that
    threshold; the greedy value is still a clique, hence a sound lower
    bound wherever this feeds one.
    """
    verts = sorted(range(g.n) if vertices is None else vertices)
    if not verts:
        return 0
    nbr = {v: g.neighbor_set(v) for v in verts}
    if len(verts) > 24:
        best = 0
        for v in sorted(verts, key=lambda x: -len(nbr[x] & set(verts))):
            clique = {v}
            for w in verts:
                if w != v and all(w in nbr[u] for u in clique):
                    clique.add(w)
            best = max(best, len(clique))
        return best
    best = 0

    def expand(cand: list[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for i, v in enumerate(cand):
            if size + len(cand) - i <= best:
                return
            rest = [w for w in cand[i + 1:] if w in nbr[v]]
            expand(rest, size + 1)

    expand(verts, 0)
    return best


def adjacent_conflict_bound(g: Graph) -> int:
    """Lower bound on strong arboricity from pairwise-conflicting edges.

    Edges vu, vw must get distinct colors whenever uw is also an edge (the
    two-edge path plus its closing edge is a broken cycle). The star of v
    into a clique inside N(v) is therefore rainbow, giving the bound
    max over v of the clique number of G[N(v)].
    """
    best = 0
    for v in range(g.n):
        nb = g.adj[v]
        if len(nb) <= best:
            continue
        best = max(best, max_clique_size(g, nb))
    return best


def strong_arboricity_lower_bound(g: Graph) -> int:
    if g.m == 0:
        return 0
    arb_k, _ = arboricity(g)
    lb = max(arb_k, 1, adjacent_conflict_bound(g))
    if has_triangle(g):
        lb = max(lb, 3)
    elif has_cycle(g):
        lb = max(lb, 2)
    return lb


def _search_strongly_woody(g: Graph, k: int, order: list[int],
                           ticker: _Ticker, prune: bool) -> list[int] | None:
    """Find one strongly woody coloring with at most k colors, else None.

    Giving color c to edge uv is rejected when (i) u and v already meet in
    class c, or (ii) the merged class-c component would contain both ends
    of some other graph edge (whatever color that edge has or will get, a
    monochromatic cycle or broken cycle would become unavoidable).

    Incremental state, per color: a union-find over the vertices (union by
    size, no path compression, undone in LIFO order) and, per component
    root r, two vertex bitsets: member[r], the component, and nbr[r], the
    union of its members' neighbourhoods. With ru and rv the roots of u and
    v, rule (ii) asks for an edge xy other than uv with x in ru's component
    and y in rv's. Split on y: either y != v, a vertex of member[rv] other
    than v inside nbr[ru]; or y == v and x != u, a vertex of member[ru]
    other than u inside adj(v). As v is always in nbr[ru] and u in adj(v),
    the rule reads nbr[ru] & member[rv] != bit(v) or adj(v) & member[ru] !=
    bit(u). That is O(1) big-int work per candidate color in place of a
    rescan of every edge, and the same predicate, so the search tree (node
    counts, certificates) is the one the edge scan gives.

    prune=False is the oracle mode: no rule at all, every leaf verified.
    """
    n, m = g.n, g.m
    edges = g.edges
    colors: list[int | None] = [None] * m

    adj_mask = [0] * n
    for u, v in edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    parent = [list(range(n)) for _ in range(k)]
    size = [[1] * n for _ in range(k)]
    member = [[1 << x for x in range(n)] for _ in range(k)]
    nbr = [list(adj_mask) for _ in range(k)]

    def dfs(pos: int, used: int) -> bool:
        if pos == m:
            if prune:
                return True
            return is_strongly_woody(EdgeColoring(g, colors))[0]
        e = order[pos]
        u, v = edges[e]
        bit_u, bit_v, adj_v = 1 << u, 1 << v, adj_mask[v]
        for c in range(min(k - 1, used) + 1):
            ticker.tick()
            if not prune:
                colors[e] = c
                if dfs(pos + 1, max(used, c + 1)):
                    return True
                colors[e] = None
                continue
            par = parent[c]
            ru = u
            while par[ru] != ru:
                ru = par[ru]
            rv = v
            while par[rv] != rv:
                rv = par[rv]
            if ru == rv:
                continue
            mem = member[c]
            nb = nbr[c]
            if (nb[ru] & mem[rv]) != bit_v or (adj_v & mem[ru]) != bit_u:
                continue
            sz = size[c]
            if sz[ru] < sz[rv]:
                ru, rv = rv, ru
            par[rv] = ru
            sz[ru] += sz[rv]
            saved_nbr = nb[ru]
            mem[ru] |= mem[rv]
            nb[ru] = saved_nbr | nb[rv]
            colors[e] = c
            if dfs(pos + 1, max(used, c + 1)):
                return True
            colors[e] = None
            mem[ru] &= ~mem[rv]
            nb[ru] = saved_nbr
            sz[ru] -= sz[rv]
            par[rv] = rv
        return False

    return list(colors) if dfs(0, 0) else None  # type: ignore[arg-type]


def strong_arboricity_exact(g: Graph, budget: Budget | None = None,
                            prune: bool = True) -> SolveResult:
    """Minimum palette of a strongly woody coloring, with certificate.

    Iterative deepening from a lower bound combining arboricity, the
    rainbow-star conflict bound, and the triangle rule. prune=False is the
    oracle mode used by the test suite: no feasibility pruning, full leaf
    verification, deepening from k=1; it raises GuardError at once on
    graphs with more than ORACLE_MAX_EDGES edges. On budget exhaustion the
    square pipeline's coloring is the reported upper bound.
    """
    if not prune and g.m > ORACLE_MAX_EDGES:
        raise GuardError(
            f"unpruned search guarded at m <= {ORACLE_MAX_EDGES} (got m={g.m})")
    order = _edge_order(g)

    def fallback():
        coloring = arboricity_square_coloring(g)
        return coloring.palette_size, coloring

    return _deepen(
        g, budget, EdgeColoring,
        lambda: strong_arboricity_lower_bound(g) if prune else 1,
        lambda k, ticker: _search_strongly_woody(g, k, order, ticker, prune),
        is_strongly_woody, fallback)


def _search_acyclic(g: Graph, k: int, order: list[int], ticker: _Ticker
                    ) -> list[int] | None:
    """One acyclic proper vertex coloring with at most k colors, else None.

    Giving color a to v is rejected if a neighbor already has a, or if two
    neighbors share color b and sit in one component of the bicolored
    (a, b) subgraph, which would close a two-colored cycle through v.
    """
    n = g.n
    colors: list[int | None] = [None] * n
    pair_ufs: dict[tuple[int, int], RollbackUnionFind] = {}

    def pair_uf(a: int, b: int) -> RollbackUnionFind:
        key = (a, b) if a < b else (b, a)
        uf = pair_ufs.get(key)
        if uf is None:
            uf = pair_ufs[key] = RollbackUnionFind(n)
        return uf

    def dfs(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        nbr_cols: dict[int, list[int]] = {}
        for w in g.adj[v]:
            cw = colors[w]
            if cw is not None:
                nbr_cols.setdefault(cw, []).append(w)
        limit = min(k - 1, used)
        for a in range(limit + 1):
            ticker.tick()
            if a in nbr_cols:
                continue
            ok = True
            for b, ws in nbr_cols.items():
                if len(ws) < 2:
                    continue
                uf = pair_uf(a, b)
                roots = set()
                for w in ws:
                    r = uf.find(w)
                    if r in roots:
                        ok = False
                        break
                    roots.add(r)
                if not ok:
                    break
            if not ok:
                continue
            colors[v] = a
            marks = []
            for b, ws in nbr_cols.items():
                uf = pair_uf(a, b)
                marks.append((uf, uf.mark()))
                for w in ws:
                    uf.union(v, w)
            if dfs(pos + 1, max(used, a + 1)):
                return True
            for uf, mk in reversed(marks):
                uf.rollback(mk)
            colors[v] = None
        return False

    return list(colors) if dfs(0, 0) else None  # type: ignore[arg-type]


def acyclic_chromatic_exact(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Minimum colors in a proper vertex coloring with no two-colored cycle."""
    order = _vertex_order(g)
    # a cycle needs three colors, an edge two
    return _deepen(
        g, budget, VertexColoring,
        lambda: max(1, max_clique_size(g),
                    3 if has_cycle(g) else 2 if g.m else 1),
        lambda k, ticker: _search_acyclic(g, k, order, ticker),
        is_acyclic_vertex, lambda: (g.n, None))


def _search_proper_vertex(g: Graph, k: int, order: list[int], ticker: _Ticker
                          ) -> list[int] | None:
    n = g.n
    colors: list[int | None] = [None] * n

    def dfs(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        forb = {colors[w] for w in g.adj[v] if colors[w] is not None}
        limit = min(k - 1, used)
        for c in range(limit + 1):
            ticker.tick()
            if c in forb:
                continue
            colors[v] = c
            if dfs(pos + 1, max(used, c + 1)):
                return True
            colors[v] = None
        return False

    return list(colors) if dfs(0, 0) else None  # type: ignore[arg-type]


def chromatic_exact(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Exact chromatic number with a certifying proper coloring."""
    order = _vertex_order(g)
    return _deepen(
        g, budget, VertexColoring, lambda: max(1, max_clique_size(g)),
        lambda k, ticker: _search_proper_vertex(g, k, order, ticker),
        lambda c: (is_proper_vertex(c), None), lambda: (g.n, None))


def _search_proper_edge(g: Graph, k: int, order: list[int], ticker: _Ticker
                        ) -> list[int] | None:
    masks = [0] * g.n
    colors: list[int | None] = [None] * g.m
    edges = g.edges
    m = g.m

    def dfs(pos: int, used: int) -> bool:
        if pos == m:
            return True
        e = order[pos]
        u, v = edges[e]
        forb = masks[u] | masks[v]
        limit = min(k - 1, used)
        for c in range(limit + 1):
            ticker.tick()
            bit = 1 << c
            if forb & bit:
                continue
            colors[e] = c
            masks[u] |= bit
            masks[v] |= bit
            if dfs(pos + 1, max(used, c + 1)):
                return True
            masks[u] &= ~bit
            masks[v] &= ~bit
            colors[e] = None
        return False

    return list(colors) if dfs(0, 0) else None  # type: ignore[arg-type]


def chromatic_index_exact(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Exact chromatic index via branch and bound over edges.

    Lower bound: maximum degree, sharpened by the matching capacity
    ceil(m / floor(n/2)).
    """
    order = _edge_order(g)
    return _deepen(
        g, budget, EdgeColoring,
        lambda: max(max(map(g.degree, range(g.n))), -((-g.m) // (g.n // 2))),
        lambda k, ticker: _search_proper_edge(g, k, order, ticker),
        lambda c: (is_proper_edge(c), None), lambda: (None, None))


@dataclass(frozen=True)
class PartitionSearchResult:
    """Outcome of the forest / 2-independent partition search.

    found=False with exact=True proves nonexistence; with exact=False it
    only records an exhausted budget.
    """

    found: bool
    a: frozenset | None
    f: frozenset | None
    exact: bool
    nodes: int
    seconds: float


def find_forest_2independent_partition(g: Graph, budget: Budget | None = None
                                       ) -> PartitionSearchResult:
    """Split V into A (pairwise distance >= 3) and F (induces a forest).

    The returned partition satisfies every precondition of
    partition_coloring, so girth below 4 is an immediate exact NotFound.
    Exhaustive DFS in BFS vertex order, pruning 2-independence as A grows
    and forest-ness of F via rollback union-find.
    """
    t0 = time.monotonic()
    ticker = _Ticker(budget, t0)
    n = g.n
    if girth(g) < 4:
        return PartitionSearchResult(False, None, None, True, 0, time.monotonic() - t0)
    # each component in BFS order from its lowest vertex
    order = [v for comp in connected_components(g) for v in comp]
    dist2: list[tuple[int, ...]] = []
    for v in range(n):
        near = set()
        for w in g.adj[v]:
            near.add(w)
            near.update(g.adj[w])
        near.discard(v)
        dist2.append(tuple(sorted(near)))
    in_a = bytearray(n)
    in_f = bytearray(n)
    uf = RollbackUnionFind(n)

    def dfs(pos: int) -> bool:
        ticker.tick()
        if pos == n:
            return True
        v = order[pos]
        if not any(in_a[w] for w in dist2[v]):
            in_a[v] = 1
            if dfs(pos + 1):
                return True
            in_a[v] = 0
        mk = uf.mark()
        ok = True
        for w in g.adj[v]:
            if in_f[w] and not uf.union(v, w):
                ok = False
                break
        if ok:
            in_f[v] = 1
            if dfs(pos + 1):
                return True
            in_f[v] = 0
        uf.rollback(mk)
        return False

    try:
        found = dfs(0)
    except _BudgetExhausted:
        return PartitionSearchResult(False, None, None, False, ticker.nodes,
                                     time.monotonic() - t0)
    if not found:
        return PartitionSearchResult(False, None, None, True, ticker.nodes,
                                     time.monotonic() - t0)
    a = frozenset(v for v in range(n) if in_a[v])
    f = frozenset(v for v in range(n) if in_f[v])
    return PartitionSearchResult(True, a, f, True, ticker.nodes,
                                 time.monotonic() - t0)
