"""Desk-scale exact solvers: strong arboricity, acyclic chromatic number,
chromatic number, chromatic index, and the forest / 2-independent vertex
partition search.

The coloring solvers are iterative-deepening branch and bound with
canonical-palette symmetry breaking (a new color index may be used only
once all smaller indices appear) and incremental feasibility state undone
on backtrack. Every certificate is re-verified before it is returned;
budget exhaustion yields explicit bounds, the upper one with a verified
coloring, instead of a guess.

ζ, χ_a, χ, χ′ and the partition search branch in one forward-checked,
most-constrained-first search (_search_colors) on an explicit trail, not
the call stack; each gives only its admissibility rule, and the search
checks and restores every mask clear the rule makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .construct import arboricity_square_coloring
from .decompose import arboricity
from .graphs import Graph, coloring_number, connected_components, has_cycle, has_triangle
from .verify import (
    EdgeColoring,
    VertexColoring,
    check_proper_vertex,
    is_acyclic_vertex,
    is_proper_edge,
    is_strongly_woody,
    verified,
)


@dataclass(frozen=True)
class Budget:
    """A node ceiling and an optional deadline in seconds for one solver
    call; None means none. A deadline makes the result depend on the
    machine's speed. A ceiling that could never be met is refused."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"budget nodes must be at least 1, got {self.max_nodes}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            # also false for nan, which would never run out
            raise ValueError(f"budget seconds must be positive, got {self.max_seconds}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: lower, a proven lower bound, and upper,
    the palette of certificate, a re-verified coloring. The solve is exact
    when they meet, whether or not the budget ran out; value is then that
    number, else None."""

    lower: int
    upper: int
    certificate: object
    nodes: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


class _BudgetExhausted(Exception):
    pass


class _Ticker:
    """Counts search nodes up to the ceiling, so nodes == max_nodes on a node
    budget's exhaustion; reads the clock only for a deadline asked for."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (time.monotonic() + budget.max_seconds
                         if budget and budget.max_seconds is not None else None)

    def tick(self) -> None:
        if self.nodes == self.max_nodes or self.deadline is not None and (
                self.nodes & 255 == 255 and time.monotonic() > self.deadline):
            raise _BudgetExhausted
        self.nodes += 1


def _edge_order(g: Graph) -> list[int]:
    # constrained edges first: decreasing degree sum; the sort is stable, so
    # ties stay in edge index order
    return sorted(range(g.m),
                  key=lambda e: -(g.degree(g.edges[e][0]) + g.degree(g.edges[e][1])))


def _vertex_order(g: Graph) -> list[int]:
    # decreasing degree, ties in vertex index order (the sort is stable)
    return sorted(range(g.n), key=lambda v: -g.degree(v))


def _deepen(g: Graph, budget: Budget | None, coloring_type, lower, search,
            check, exhausted=None) -> SolveResult:
    """Iterative deepening shared by the exact coloring solvers.

    k runs up from lower(), or from 0 when there is nothing to color (no
    edges, or no vertices), and search(k, ticker) returns at most k colors,
    or None when k colors do not suffice. The first coloring found is
    normalized and passed through verify.verified with check. If the
    budget runs out at level k, the certificate is exhausted(), which has
    passed its own verified gate, or else the all-distinct coloring through
    check. k is the proven lower bound and the certificate's palette the
    upper one; the one exit refuses a palette below k (AssertionError).
    """
    ticker = _Ticker(budget)
    size = coloring_type.length_for(g)
    k = lower() if size else 0
    try:
        while (found := search(k, ticker)) is None:
            k += 1
        certificate = verified(coloring_type(g, found).normalized(), check)
    except _BudgetExhausted:
        certificate = exhausted() if exhausted else verified(
            coloring_type(g, range(size)), check)
    upper = certificate.palette_size
    if upper < k:
        raise AssertionError(f"verified palette {upper} is below the proven lower bound {k}")
    return SolveResult(k, upper, certificate, ticker.nodes)


def max_clique_size(g: Graph, order: list[int] | None = None) -> int:
    """Clique number ω of g: exact branch and bound on vertex bitsets.

    Each vertex, in smallest-last removal order, branches only on its later
    neighbours, of which there are at most the degeneracy, so its bitsets
    span just those, bit i for the i-th of them in removal order. That is
    the branching and pruning of bitsets over all n vertices, in space
    linear in the edges. order, when given, is read as
    coloring_number(g)[1]: any order of the vertices gives ω, and that one
    bounds the branching; a caller that already has it spares a second peel.
    """
    removal = (coloring_number(g)[1] if order is None else order)[::-1]
    pos = [0] * g.n
    for j, v in enumerate(removal):
        pos[v] = j
    later: list[list[int]] = [[] for _ in removal]
    for j, v in enumerate(removal):
        for p in map(pos.__getitem__, g.adj[v]):
            if p < j:
                later[p].append(j)
    best, bit = 0, [0] * g.n  # bit[p]: p's bit among the current neighbours, else 0
    for nbrs in later:
        if len(nbrs) >= best:  # else a clique through this vertex cannot beat best
            for i, p in enumerate(nbrs):
                bit[p] = 1 << i
            adj = [sum(map(bit.__getitem__, later[p])) for p in nbrs]
            for p in nbrs:
                bit[p] = 0
            best = _grow_clique(adj, (1 << len(nbrs)) - 1, 1, best)
    return best


def _grow_clique(adj: list[int], cand: int, size: int, best: int) -> int:
    # the largest of best and size + a clique inside the bitset cand, cut
    # once size + popcount(cand) cannot beat best; a module function, as a
    # recursive closure is a reference cycle that every call would leave to
    # the cyclic garbage collector
    while cand and size + cand.bit_count() > best:
        low = cand & -cand
        cand ^= low
        best = _grow_clique(adj, cand & adj[low.bit_length() - 1], size + 1, best)
    return max(best, size)


def strong_arboricity_lower_bound(g: Graph, arb: int | None = None,
                                  omega: int | None = None) -> int:
    """Arboricity and χ′(K_ω): ω when ω is odd, ω − 1 when it is even.

    Inside a clique every color class is a matching. Two edges vu and vw
    of one color c meet the clique edge uw: if uw has color c the three
    close a monochromatic triangle, and if not the path u, v, w and uw
    form a broken cycle. So the ω(ω − 1)/2 edges of a maximum clique need
    χ′(K_ω) colors: ω − 1 meet at each vertex, and when ω is odd K_ω has
    no perfect matching, so a class holds at most (ω − 1)/2 of them.

    arb and omega, when given, must be arboricity(g)[0] and
    max_clique_size(g); a caller that already has them spares a second
    decomposition and clique search.
    """
    if g.m == 0:
        return 0
    if arb is None:
        arb, _ = arboricity(g)
    if omega is None:
        omega = max_clique_size(g)
    return max(arb, omega - 1 + omega % 2)


def _search_colors(colors, mask, k: int, order: list[int], ticker: _Ticker,
                   assign, used: int = 0) -> list[int] | None:
    """The forward-checked search behind ζ, χ_a, χ, χ′ and the partition
    search: one coloring of the items with at most k colors, else None.

    mask[e] holds the colors still admissible for the uncolored item e.
    The search branches on the uncolored item with the fewest (Brélaz's
    DSATUR rule: the one fresh color the canonical palette allows counts as
    one, and ties go to the item that comes first in order). used is the
    number of colors in use from the start: 0 gives the canonical palette,
    k makes the colors not interchangeable. assign(e, c, bit_c) is a
    generator that carries the admissibility rule: given colors[e] = c, it
    clears the colors it excludes from the masks of the uncolored items and
    yields them once as (cleared, crossed): the items that lost bit_c, and
    an (item, bit) pair for every other color cleared (only χ_a clears
    any; the other rules yield an empty crossed). Resumed on backtrack, it
    undoes its own state once the masks are restored here. An assignment
    whose clears leave some uncolored item with no admissible color is
    pruned at once. The branching runs on an explicit trail, so no depth
    is too deep for it.
    """
    m = len(colors)
    # (item, untried colors, palette before it, suspended assign, clears, bit)
    trail = []
    while True:
        if len(trail) == m:
            return list(colors)
        # the fresh color `used` is in every mask while used < k (an item
        # excludes only colors in use), and the wipe-out check keeps every
        # mask nonempty once all k are: no count is 0 or exceeds k
        low = (2 << used) - 1
        count = k + 1
        for f in order:
            if colors[f] is None and (fc := (mask[f] & low).bit_count()) < count:
                e, count = f, fc
                if count == 1:
                    break
        cands = mask[e] & low
        while True:  # e's next color; with none left, back to the item before
            if not cands:
                if not trail:
                    return None
                e, cands, used, rule, cleared, crossed, bit_c = trail.pop()
            else:
                bit_c = cands & -cands
                cands ^= bit_c
                c = bit_c.bit_length() - 1
                ticker.tick()
                colors[e] = c
                rule = assign(e, c, bit_c)
                cleared, crossed = next(rule)
                used_after = used + (c == used)  # low allows no c above used
                # the wipe-out check: once all k colors are in use, an item
                # whose mask emptied has no color left; only χ_a crosses
                # colors, so the other rules skip that generator
                if used_after < k or all(map(mask.__getitem__, cleared)) and (
                        not crossed or all(mask[x] for x, _ in crossed)):
                    trail.append((e, cands, used, rule, cleared, crossed, bit_c))
                    used = used_after
                    break
            for f in cleared:
                mask[f] |= bit_c
            for x, bit in crossed:
                mask[x] |= bit
            next(rule, None)
            colors[e] = None


def _search_strongly_woody(g: Graph, k: int, order: list[int],
                           ticker: _Ticker) -> list[int] | None:
    """Find one strongly woody coloring with at most k colors, else None.

    Giving color c to edge xy is inadmissible when (i) x and y already meet
    in class c, or (ii) the merged class-c component would contain both
    ends of some other graph edge (whatever color that edge has or will
    get, a monochromatic cycle or broken cycle would become unavoidable).
    So c is admissible for xy iff xy is the only edge between the class-c
    components of x and y.

    Incremental state, per color: root[x], the label of x's component, and
    per label r two vertex bitsets: member[r], the component, and nbr[r],
    the union of its members' neighbourhoods. With X and Y the components
    of x and y, c is inadmissible iff x in Y, nbr[X] & Y != bit(y) or
    adj(y) & X != bit(x).

    Forward checking in _search_colors: components only grow along a path,
    and an edge inside one, or not alone between two, stays so as they
    grow, so a pruned color stays pruned. A union in class c moves no
    vertex outside the merged component, so only the uncolored edges with
    an end in it are rechecked for c.
    """
    n, m = g.n, g.m
    colors: list[int | None] = [None] * m
    mask = [(1 << k) - 1] * m
    adj_mask = [0] * n
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(g.edges):
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
        incident[u].append((e, v, 1 << v))
        incident[v].append((e, u, 1 << u))
    root = [list(range(n)) for _ in range(k)]
    member = [[1 << x for x in range(n)] for _ in range(k)]
    nbr = [list(adj_mask) for _ in range(k)]

    edges = g.edges

    def assign(e: int, c: int, bit_c: int):
        u, v = edges[e]
        rt, mem, nb = root[c], member[c], nbr[c]
        ru, rv = rt[u], rt[v]
        mem_u, mem_v, nb_u = mem[ru], mem[rv], nb[ru]
        merged = mem[ru] = mem_u | mem_v
        merged_nbr = nb[ru] = nb_u | nb[rv]
        cleared = []
        rest = merged
        while rest:
            bit_x = rest & -rest
            rest ^= bit_x
            x = bit_x.bit_length() - 1
            rt[x] = ru
            for f, y, bit_y in incident[x]:
                if colors[f] is None and mask[f] & bit_c and (
                        merged & bit_y or merged_nbr & mem[rt[y]] != bit_y
                        or adj_mask[y] & merged != bit_x):
                    mask[f] ^= bit_c
                    cleared.append(f)
        yield cleared, ()
        mem[ru], nb[ru] = mem_u, nb_u
        rest = mem_v
        while rest:
            bit_x = rest & -rest
            rest ^= bit_x
            rt[bit_x.bit_length() - 1] = rv

    return _search_colors(colors, mask, k, order, ticker, assign)


def _search_proper(adj, k: int, order: list[int], ticker: _Ticker) -> list[int] | None:
    """One proper coloring with at most k colors of the graph with
    adjacency lists adj, else None. A color excludes itself from the
    neighbours.

    A static order leaves the tree at the mercy of the labeling: on 60
    seeded relabelings of the McGee graph, χ′ took 1,695 to 276,006 nodes
    in a static edge order and 36 to 207 on this search.
    """
    colors: list[int | None] = [None] * len(adj)
    mask = [(1 << k) - 1] * len(adj)

    def assign(e: int, c: int, bit_c: int):
        cleared = [f for f in adj[e] if colors[f] is None and mask[f] & bit_c]
        for f in cleared:
            mask[f] ^= bit_c
        yield cleared, ()

    return _search_colors(colors, mask, k, order, ticker, assign)


def strong_arboricity_exact(g: Graph, budget: Budget | None = None,
                            arb: int | None = None,
                            omega: int | None = None) -> SolveResult:
    """Minimum palette of a strongly woody coloring, with certificate.

    Iterative deepening from strong_arboricity_lower_bound(g, arb), the
    larger of arboricity and χ′(K_ω), as every color class is a matching
    inside a clique; arb and omega are passed on to it. On budget
    exhaustion the square pipeline's coloring, which that pipeline
    verifies, is the reported upper bound.
    """
    order = _edge_order(g)
    return _deepen(
        g, budget, EdgeColoring, lambda: strong_arboricity_lower_bound(g, arb, omega),
        lambda k, ticker: _search_strongly_woody(g, k, order, ticker),
        is_strongly_woody, lambda: arboricity_square_coloring(g))


def _search_acyclic(g: Graph, k: int, order: list[int], ticker: _Ticker
                    ) -> list[int] | None:
    """One acyclic proper vertex coloring with at most k colors, else None.

    Color c is inadmissible for x when a neighbour of x has c, or when two
    neighbours of x share a color b and lie in one component of the
    bicolored (b, c) subgraph: coloring x with c would close a two-colored
    cycle. Giving v color a changes only the (a, b) components through v,
    so one bitset BFS over cls[a] | cls[b] per color b at v finds the new
    one, and only the uncolored vertices next to it are rechecked: b is
    cleared from x when x has two a-colored neighbours in it, a when x has
    two b-colored ones. Components only grow along a path, so a pruned
    color stays pruned. The b clears go to _search_colors as crossed.
    """
    colors: list[int | None] = [None] * g.n
    mask = [(1 << k) - 1] * g.n
    adj = [sum(1 << w for w in nb) for nb in g.adj]
    cls = [0] * k

    def assign(v: int, a: int, bit_a: int):
        cls[a] |= 1 << v
        cleared = [w for w in g.adj[v] if colors[w] is None and mask[w] & bit_a]
        for w in cleared:
            mask[w] ^= bit_a
        crossed = []
        colored = sum(cls)  # the classes are disjoint
        for b, in_b in enumerate(cls):
            if not in_b & adj[v]:
                continue
            bit_b = 1 << b
            pair = cls[a] | in_b
            comp = todo = 1 << v
            near = 0
            while todo:
                low = todo & -todo
                todo ^= low
                nb = adj[low.bit_length() - 1]
                near |= nb
                todo |= nb & pair & ~comp
                comp |= nb & pair
            near &= ~colored
            while near:
                low = near & -near
                near ^= low
                x = low.bit_length() - 1
                if mask[x] & bit_b and (adj[x] & comp & cls[a]).bit_count() > 1:
                    mask[x] ^= bit_b
                    crossed.append((x, bit_b))
                if mask[x] & bit_a and (adj[x] & comp & in_b).bit_count() > 1:
                    mask[x] ^= bit_a
                    cleared.append(x)
        yield cleared, crossed
        cls[a] ^= 1 << v

    return _search_colors(colors, mask, k, order, ticker, assign)


def acyclic_chromatic_lower_bound(g: Graph, omega: int | None = None) -> int:
    """ω, 3 when g has a cycle, and the pair-forest count.

    Any two classes of an acyclic coloring induce a forest (Alon,
    McDiarmid & Reed 1991), so k nonempty classes of sizes n_i hold at
    most Σ_{i<j} (n_i + n_j − 1) = (k − 1)n − k(k − 1)/2 edges: k is at
    least the least k with (k − 1)(2n − k) ≥ 2m. The count rises with k
    up to n, where it always holds. omega, when given, must be
    max_clique_size(g).
    """
    if omega is None:
        omega = max_clique_size(g)
    k = max(omega, 3 if has_cycle(g) else 0)
    while (k - 1) * (2 * g.n - k) < 2 * g.m:
        k += 1
    return k


def acyclic_chromatic_exact(g: Graph, budget: Budget | None = None,
                            omega: int | None = None) -> SolveResult:
    """Minimum colors in a proper vertex coloring with no two-colored cycle,
    by iterative deepening from acyclic_chromatic_lower_bound(g, omega)."""
    order = _vertex_order(g)
    return _deepen(
        g, budget, VertexColoring, lambda: acyclic_chromatic_lower_bound(g, omega),
        lambda k, ticker: _search_acyclic(g, k, order, ticker),
        is_acyclic_vertex)


def chromatic_exact(g: Graph, budget: Budget | None = None,
                    omega: int | None = None) -> SolveResult:
    """Exact chromatic number with a certifying proper coloring, deepening
    from omega, which when given must be max_clique_size(g)."""
    order = _vertex_order(g)
    return _deepen(
        g, budget, VertexColoring,
        lambda: max_clique_size(g) if omega is None else omega,
        lambda k, ticker: _search_proper(g.adj, k, order, ticker),
        check_proper_vertex)


def chromatic_index_exact(g: Graph, budget: Budget | None = None) -> SolveResult:
    """Exact chromatic index: the chromatic number of the line graph, by
    the proper coloring search over the edges (_search_proper).

    Lower bound: maximum degree, sharpened by the matching capacity
    ceil(m / floor(n/2)).
    """
    order = _edge_order(g)
    line = [[g.edge_id(x, w) for x in uv for w in g.adj[x] if w not in uv]
            for uv in g.edges]

    def check(c):
        return is_proper_edge(c), None

    return _deepen(
        g, budget, EdgeColoring,
        lambda: max(max(map(g.degree, range(g.n))), -((-g.m) // (g.n // 2))),
        lambda k, ticker: _search_proper(line, k, order, ticker),
        check)


@dataclass(frozen=True)
class PartitionSearchResult:
    """Outcome of the forest / 2-independent partition search: A, or None
    when none was found, which exact=True proves and exact=False only
    leaves open. found and f (the other of the _n vertices) are read off a."""

    a: frozenset | None
    exact: bool
    nodes: int
    _n: int

    @property
    def found(self) -> bool:
        return self.a is not None

    @property
    def f(self) -> frozenset | None:
        return None if self.a is None else frozenset(range(self._n)) - self.a


def find_forest_2independent_partition(g: Graph, budget: Budget | None = None
                                       ) -> PartitionSearchResult:
    """Split V into A (pairwise distance >= 3) and F (induces a forest).

    The returned partition satisfies every precondition of
    partition_coloring, so a triangle is an immediate exact NotFound.
    _search_colors colors the vertices: 0 is A and 1 is F, both in use from
    the start, as they are not interchangeable; A is tried first, and ties
    go to a BFS order. v in A clears A from the uncolored vertices within
    distance 2 of v; v in F clears F from every uncolored vertex with two
    neighbours in v's F-tree, the one tree that grew. Trees only grow along
    a path, so a cleared F stays cleared.
    """
    ticker = _Ticker(budget)
    n = g.n
    found, exact = None, True
    if not has_triangle(g):
        # each component in BFS order from its lowest vertex
        order = [v for comp in connected_components(g) for v in comp]
        colors = [None] * n
        mask = [3] * n

        def assign(v: int, c: int, bit_c: int):
            if c:
                # the F-tree v joined, walked inside F
                tree, members = 1 << v, [v]
                for y in members:
                    for x in g.adj[y]:
                        if colors[x] == 1 and not tree >> x & 1:
                            tree |= 1 << x
                            members.append(x)
                near = {x for y in members for x in g.adj[y]
                        if sum(tree >> w & 1 for w in g.adj[x]) > 1}
            else:
                near = {x for w in g.adj[v] for x in (w, *g.adj[w])}
            cleared = [x for x in near if colors[x] is None and mask[x] & bit_c]
            for x in cleared:
                mask[x] ^= bit_c
            yield cleared, ()

        try:
            found = _search_colors(colors, mask, 2, order, ticker, assign, used=2)
        except _BudgetExhausted:
            exact = False
    a = None if found is None else frozenset(v for v in range(n) if found[v] == 0)
    return PartitionSearchResult(a, exact, ticker.nodes, n)
