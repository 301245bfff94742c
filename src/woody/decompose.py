"""Exact arboricity, seeded from the degeneracy order and finished by
matroid-partition augmentation, with a Nash-Williams witness for its
lower bound.

arboricity() builds a certifying forest decomposition: a smallest-last
seed, then Edmonds' exchange search on forests kept rooted so that a
connectivity test is a label comparison and a cycle is a climb along parent
edges; a link or a cut re-roots the smaller tree in one graphs.tree_walk.
A failed augmentation returns its own proof that one forest more is
needed: the edges it reached hold a component with more edges than the
current forests can cover (Nash-Williams). Either way the decomposition
carries a vertex set whose density anyone can recount
(density_certificate(), checked by verify.DensityCertificate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, UnionFind, coloring_number, subset_adjacency, tree_walk
from .verify import DensityCertificate, EdgeColoring, is_woody


@dataclass(frozen=True)
class ForestDecomposition:
    """Assignment of every edge to one of num_forests acyclic classes, with
    the vertex set of a subgraph too dense for fewer forests (None: all
    vertices)."""

    parent: Graph
    assignment: tuple[int, ...]
    num_forests: int
    dense: frozenset | None = None

    def is_valid(self) -> bool:
        """Every class is below num_forests and is a forest (verify.is_woody)."""
        if len(self.assignment) != self.parent.m:
            return False
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

    def __init__(self, g: Graph, eids: Iterable[int] = (), order: Iterable[int] = ()):
        """The acyclic edges eids, each tree rooted at its earliest vertex in order."""
        self.edges = g.edges
        self.adj = subset_adjacency(g, eids)
        self.label = list(range(g.n))
        self.parent = [-1] * g.n
        self.depth = [0] * g.n
        self.next_label = g.n
        self.size = {}  # vertices per label, for trees with edges
        for v in order:
            if v in self.adj and self.label[v] == v:
                self.size[v] = self._hang(v, -1, v, 0)

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

    def __init__(self, g: Graph, classes: list[list[int]], order: Iterable[int] = ()):
        """One forest per acyclic edge class, rooted by order; other edges uncovered."""
        self.g = g
        self.owner: list[int | None] = [None] * g.m
        self.forests = [_Forest(g, eids, order) for eids in classes]
        for fi, eids in enumerate(classes):
            for e in eids:
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

    col, when given, must be coloring_number(g); a caller that already has
    it spares a second pass.
    """
    m, n, edges = g.m, g.n, g.edges
    if m == 0:
        return 0, ForestDecomposition(g, (), 0)
    k = max(1, -((-m) // (n - 1)))
    r, order = col or coloring_number(g)
    rank = {v: i for i, v in enumerate(order)}
    owned = [0] * n
    slot = []
    for u, v in edges:
        w = u if rank[u] > rank[v] else v
        slot.append(owned[w])
        owned[w] += 1
    if r - 1 <= k:
        decomp = ForestDecomposition(g, tuple(slot), k)
    else:
        classes: list[list[int]] = [[] for _ in range(k)]
        for e, s in enumerate(slot):
            if s < k:
                classes[s].append(e)
        part = _Partitioner(g, classes, order)
        failed = None
        for e, s in enumerate(slot):
            if s >= k:
                while not part.place(e):
                    failed = e
                    part.add_forest()
        dense = None
        if failed is not None:
            uf = UnionFind(n)
            for x in part.reached:
                uf.union(*edges[x])
            root = uf.find(edges[failed][0])
            dense = frozenset(v for v in range(n) if uf.find(v) == root)
        decomp = ForestDecomposition(g, tuple(part.owner), len(part.forests), dense)
    if not decomp.is_valid():
        raise AssertionError("forest partition produced an invalid decomposition")
    return decomp.num_forests, decomp
