"""Exact arboricity, seeded from the degeneracy order and finished by
matroid-partition augmentation, with a Nash-Williams witness for its
lower bound.

arboricity() builds a certifying forest decomposition: a smallest-last
seed whose slot loop roots each tree, then Edmonds' exchange search on
forests that adopt those parent edges and keep them rooted: a connectivity
test is a label comparison, a cycle is a climb along parent edges, and a
link or a cut re-roots the smaller tree in one graphs.tree_walk.
A failed augmentation returns its own proof that one forest more is
needed: the edges it reached hold a component with more edges than the
current forests can cover (Nash-Williams). Either way the decomposition
carries a vertex set whose density anyone can recount
(density_certificate(), checked by verify.DensityCertificate), and the
parent edges of every forest as arboricity() rooted it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, UnionFind, coloring_number, tree_walk
from .verify import DensityCertificate, EdgeColoring, is_woody


@dataclass(frozen=True)
class ForestDecomposition:
    """Assignment of every edge to one of num_forests acyclic classes, with
    the vertex set of a subgraph too dense for fewer forests (None: all
    vertices).

    rooting, when given, holds per forest each vertex's parent edge (-1 at
    a root): every edge of the forest is the parent edge of exactly one of
    its ends. arboricity() fills it with the rooting it built; a
    decomposition assembled by hand may leave it None.
    """

    parent: Graph
    assignment: tuple[int, ...]
    num_forests: int
    dense: frozenset | None = None
    rooting: tuple[tuple[int, ...], ...] | None = None

    def is_valid(self) -> bool:
        """Every class is below num_forests and is a forest (verify.is_woody);
        the EdgeColoring it builds refuses a wrong length (ValueError)."""
        if any(not 0 <= f < self.num_forests for f in self.assignment):
            return False
        return is_woody(EdgeColoring(self.parent, self.assignment))[0]

    def density_certificate(self) -> DensityCertificate:
        """The density witness arboricity() found: check(num_forests) shows
        that no fewer forests suffice."""
        return DensityCertificate(self.parent, self.dense or frozenset(range(self.parent.n)))


class _Forest:
    """One forest of the partition, kept rooted.

    Next to the adjacency (vertex -> [(neighbor, edge id)]) every vertex has
    a component label, the id of the edge to its parent (-1 at a root) and
    a depth, so connectivity is one label comparison and the path between
    two vertices is a climb to their meeting point. A link or a cut rewrites
    only the smaller of the two trees involved: a link knows the sizes
    (kept per label, as each re-rooting counts what it hangs), a cut walks
    both sides in turn until one runs out.
    """

    __slots__ = ("edges", "adj", "label", "parent", "depth", "size", "next_label")

    def __init__(self, g: Graph, up: list[int] | None = None, order: Sequence[int] = ()):
        """Adopt the parent edges up (None: none) in one pass over order, which
        lists each vertex after its parent; an order missing a child is refused."""
        self.edges = edges = g.edges
        self.parent = parent = [-1] * g.n if up is None else up
        self.label = label = list(range(g.n))
        self.depth = depth = [0] * g.n
        self.next_label = g.n
        self.adj = adj = {}
        self.size = size = {}  # vertices per label, for trees with edges
        for v in order:
            e = parent[v]
            if e != -1:
                x, y = edges[e]
                w = x + y - v
                lab = label[v] = label[w]
                depth[v] = depth[w] + 1
                size[lab] = size.get(lab, 1) + 1
                adj.setdefault(v, []).append((w, e))
                adj.setdefault(w, []).append((v, e))
        if len(adj) - len(size) != g.n - parent.count(-1):  # adj holds one root per tree
            raise ValueError("order misses a vertex that has a parent edge")

    def _hang(self, s: int, pe: int, lab: int, d: int) -> int:
        """Root s's tree at s, below parent edge pe at depth d, labelled lab;
        returns the tree's number of vertices."""
        label, parent, depth = self.label, self.parent, self.depth
        label[s], parent[s], depth[s] = lab, pe, d
        count = 1
        for count, (x, e, w) in enumerate(tree_walk(self.adj, s), 2):
            label[x], parent[x], depth[x] = lab, e, depth[w] + 1
        return count

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
        walk_u, walk_v = tree_walk(adj, u), tree_walk(adj, v)
        while next(walk_u, None) is not None:
            if next(walk_v, None) is None:
                u, v = v, u
                break
        # now u's side is the smaller one; a tie keeps u
        lab = self.next_label
        self.next_label += 1
        small = self._hang(u, -1, lab, 0)
        big = size.pop(self.label[v]) - small
        if self.parent[v] == e:
            self.parent[v] = -1
        if small > 1:
            size[lab] = small
        if big > 1:
            size[self.label[v]] = big

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

    def __init__(self, g: Graph, forests: list[_Forest]):
        """The search over adopted forests (see _Forest); other edges uncovered."""
        self.g = g
        self.owner: list[int | None] = [None] * g.m
        self.forests = forests
        for fi, forest in enumerate(forests):
            for e in forest.parent:
                if e != -1:
                    self.owner[e] = fi

    def add_forest(self) -> None:
        self.forests.append(_Forest(self.g))

    def _insert(self, fi: int, e: int) -> None:
        self.forests[fi].link(e)
        self.owner[e] = fi

    def place(self, e0: int) -> bool:
        """Cover edge e0, possibly displacing edges along an exchange chain.

        On failure self.reached holds the edges the search reached, e0
        among them. Every reached edge closes a cycle in each forest but its
        own, and that cycle was reached too, so each forest restricted to
        them spans every component of the graph H they form: they number
        k(|V(H)| - c(H)) + 1, and the component C holding e0 has
        k(|C| - 1) + 1 of them, too many for k forests.
        """
        edges, owner, forests = self.g.edges, self.owner, self.forests
        pred: dict[int, int | None] = {e0: None}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = edges[x]
            own = owner[x]
            for target, forest in enumerate(forests):
                if target != own and forest.label[xu] != forest.label[xv]:
                    break
            else:
                # x closes a cycle in every other forest: queue each cycle's
                # edges from xv back to xu (the order decides which
                # decomposition comes out)
                for fi, forest in enumerate(forests):
                    if fi != own:
                        for y in forest.path(xv, xu):
                            if y not in pred:
                                pred[y] = x
                                queue.append(y)
                continue
            # augment: x enters target, its predecessor takes x's old slot
            while True:
                old = owner[x]
                if old is not None:
                    forests[old].cut(x)
                self._insert(target, x)
                p = pred[x]
                if p is None:
                    return True
                x, target = p, old
        self.reached = pred
        return False


def arboricity(g: Graph, col: tuple[int, list[int]] | None = None
               ) -> tuple[int, ForestDecomposition]:
    """Minimum number of forests partitioning the edges, with a certificate.

    Seed (Matula & Beck): in the coloring_number order every edge is owned
    by its later end, and its slot is its rank among its owner's edges in
    index order. Each slot class is a forest, since a vertex owns at most
    one edge per slot and it points to an earlier vertex, so a cycle's
    latest vertex would own two. The slots number the degeneracy d. If d is
    at most k0 = ceil(m/(n-1)), a lower bound (Nash-Williams), the slots
    are a minimum decomposition. Otherwise the first k0 slot classes seed
    the exchange search (Edmonds' matroid partition), which places the
    later slots' edges in index order; a failed search proves the current
    k infeasible, so k is incremented and the search resumes. The proof is
    the component of its reached edges that holds the edge it could not
    place (see _Partitioner.place), and the vertex set of the last one is
    the decomposition's dense set. Where nothing failed, k = k0 and the
    whole graph is the witness.

    The slot loop roots the seed: an edge in slot s of its owner w is w's
    parent edge in forest s, each tree hanging from its earliest vertex in
    the order. The exchange search's forests adopt the first k rows and keep
    them rooted; the decomposition carries the final parent-edge rows.

    col, when given, must be coloring_number(g); a caller that already has
    it spares a second pass.
    """
    m, n, edges = g.m, g.n, g.edges
    if m == 0:
        return 0, ForestDecomposition(g, (), 0, rooting=())
    k = max(1, -((-m) // (n - 1)))
    r, order = col or coloring_number(g)
    rank = {v: i for i, v in enumerate(order)}
    owned = [0] * n
    slot = []
    rooting = [[-1] * n for _ in range(max(k, r - 1))]
    for e, (u, v) in enumerate(edges):
        w = u if rank[u] > rank[v] else v
        s = owned[w]
        slot.append(s)
        rooting[s][w] = e
        owned[w] = s + 1
    dense = failed = None
    if r - 1 > k:
        part = _Partitioner(g, [_Forest(g, up, order) for up in rooting[:k]])
        for e, s in enumerate(slot):
            if s >= k:
                while not part.place(e):
                    failed = e
                    part.add_forest()
        if failed is not None:
            uf = UnionFind(n)
            for x in part.reached:
                uf.union(*edges[x])
            root = uf.find(edges[failed][0])
            dense = frozenset(v for v in range(n) if uf.find(v) == root)
        slot, rooting = part.owner, [f.parent for f in part.forests]
    decomp = ForestDecomposition(g, tuple(slot), len(rooting), dense, tuple(map(tuple, rooting)))
    if not decomp.is_valid():
        raise AssertionError("forest partition produced an invalid decomposition")
    return decomp.num_forests, decomp
