"""Edge/vertex coloring types and the woody / strongly woody / p-woody
verifiers, with violation witnesses that re-verify independently, and the
checks of a density witness (arb) and of a smallest-last order (col).

A color class is "woody" material when it induces a forest. A coloring is
strongly woody when additionally no broken cycle (a cycle minus one edge)
is monochromatic. The fast strong verifier uses a component argument; the
slow oracle enumerates cycles directly and is the authority in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import GuardError
from .graphs import Graph, UnionFind, subset_adjacency, tree_walk

ORACLE_MAX_VERTICES = 10


class _Coloring:
    """A total map from edge or vertex index to color index. The
    constructor is the one check of a coloring's shape (its length, and a
    nonnegative int in every entry); all other code relies on it.

    palette_size is 1 + max color, which matches the number of colors only
    in normalized form; verifiers accept unnormalized input. Subclasses
    name the Graph attribute that gives the length (m or n).
    """

    __slots__ = ("parent", "colors")
    _length = ""
    total = True  # every coloring is; kept for callers that test it

    @classmethod
    def length_for(cls, parent: Graph) -> int:
        """Number of entries a coloring of parent has."""
        return getattr(parent, cls._length)

    def __init__(self, parent: Graph, colors: Sequence[int]):
        colors = tuple(colors)
        expected = self.length_for(parent)
        if len(colors) != expected:
            raise ValueError(f"expected {expected} entries, got {len(colors)}")
        for c in colors:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"bad color {c!r}")
        self.parent = parent
        self.colors = colors

    @property
    def palette_size(self) -> int:
        return 1 + max(self.colors, default=-1)

    def used_colors(self) -> set[int]:
        return set(self.colors)

    def normalized(self) -> "_Coloring":
        """Renumber colors by first appearance in index order."""
        remap: dict[int, int] = {}
        return type(self)(self.parent, [remap.setdefault(c, len(remap)) for c in self.colors])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.colors)})"


class EdgeColoring(_Coloring):
    """A coloring of the edges: one entry per edge index."""

    __slots__ = ()
    _length = "m"


class VertexColoring(_Coloring):
    """A coloring of the vertices: one entry per vertex index."""

    __slots__ = ()
    _length = "n"


@dataclass(frozen=True)
class BrokenCycleWitness:
    """Certificate of a woodiness violation.

    For kind "monochromatic_cycle", path_edges is a full cycle in one color
    and closing_edge is None; vertices lists the cycle once (the edge from
    vertices[-1] back to vertices[0] is the last entry of path_edges).
    For kind "monochromatic_broken_cycle", path_edges is a one-color simple
    path of at least two edges between vertices[0] and vertices[-1], and
    closing_edge is the differently colored graph edge joining them.
    """

    kind: str
    color: int
    vertices: tuple[int, ...]
    path_edges: tuple[int, ...]
    closing_edge: int | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "color": self.color,
            "vertices": list(self.vertices),
            "path_edges": list(self.path_edges),
        }
        if self.closing_edge is not None:
            out["closing_edge"] = self.closing_edge
        return out

    def check(self, coloring: EdgeColoring) -> bool:
        """Re-verify this witness against a coloring, trusting nothing."""
        g = coloring.parent
        if any(coloring.colors[e] != self.color for e in self.path_edges):
            return False
        verts = self.vertices
        if len(set(verts)) != len(verts):
            return False
        if self.kind == "monochromatic_cycle":
            if len(self.path_edges) != len(verts) or len(verts) < 3:
                return False
            return self.closing_edge is None and _edges_follow(g, self.path_edges, verts)
        if self.kind == "monochromatic_broken_cycle":
            if len(self.path_edges) < 2 or len(verts) != len(self.path_edges) + 1:
                return False
            if self.closing_edge is None or self.closing_edge in self.path_edges:
                return False
            # the path and its closing edge run round one cycle
            return (_edges_follow(g, (*self.path_edges, self.closing_edge), verts)
                    and coloring.colors[self.closing_edge] != self.color)
        return False


def _edges_follow(g: Graph, edges, verts) -> bool:
    """Whether edge i of edges joins verts[i] to the next vertex, the last
    vertex back to the first."""
    ring = (*verts, verts[0])
    return all({*g.edges[e]} == {ring[i], ring[i + 1]} for i, e in enumerate(edges))


@dataclass(frozen=True)
class BicoloredCycleWitness:
    """A cycle whose vertices use exactly two colors, refuting acyclicity."""

    colors: tuple[int, int]
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "kind": "bicolored_cycle",
            "colors": list(self.colors),
            "vertices": list(self.vertices),
            "edges": list(self.edges),
        }

    def check(self, coloring: VertexColoring) -> bool:
        g = coloring.parent
        verts = self.vertices
        if len(verts) < 3 or len(set(verts)) != len(verts):
            return False
        if {coloring.colors[v] for v in verts} != set(self.colors):
            return False
        if len(self.edges) != len(verts):
            return False
        return _edges_follow(g, self.edges, verts)


# a NamedTuple: a frozen dataclass would cost about 0.5 ms more at import
class MonochromaticEdgeWitness(NamedTuple):
    """An edge whose two ends share a color, refuting properness."""

    edge: int
    color: int

    def to_json(self) -> dict:
        return {"kind": "monochromatic_edge", "edge": self.edge, "color": self.color}

    def check(self, coloring: VertexColoring) -> bool:
        u, v = coloring.parent.edges[self.edge]
        return coloring.colors[u] == coloring.colors[v] == self.color


def verified(coloring, check):
    """coloring, once check(coloring) returns (True, witness); otherwise an
    AssertionError naming the witness. Every producer passes its output
    through here: a certificate that fails its check is a bug, not a user
    error."""
    ok, witness = check(coloring)
    if not ok:
        raise AssertionError(f"{type(coloring).__name__} failed verification: {witness}")
    return coloring


def _class_path(g: Graph, class_edges: list[int], src: int, dst: int
                ) -> tuple[list[int], list[int]]:
    """Path from src to dst in the forest of the given edges: (vertices,
    edge ids). The walk from src stops at dst; a climb back along the
    parents it recorded is the tree's one path between them."""
    up: dict[int, tuple[int, int]] = {}
    for x, e, w in tree_walk(subset_adjacency(g, class_edges), src):
        up[x] = (w, e)
        if x == dst:
            break
    else:
        raise AssertionError("no path inside color class; verifier state is broken")
    verts = [dst]
    eids = []
    cur = dst
    while cur != src:
        cur, e = up[cur]
        verts.append(cur)
        eids.append(e)
    verts.reverse()
    eids.reverse()
    return verts, eids


def _port_forest(g: Graph, labels: Sequence) -> tuple[tuple | None, list[dict], UnionFind]:
    """Join the edges of every class in one union-find over ports.

    labels[e] is the class of edge e. Classes are joined in sorted label
    order, the edges of a class in index order. A port is a (vertex, label)
    pair with an edge of that label at the vertex, so there are at most 2m
    ports and classes never share one. Returns (cycle, ports, uf): ports[v]
    maps each label present at v to an element of uf, so two vertices share
    a component of a class iff their elements for it have one root. cycle
    is None when every class is a forest; otherwise building stopped at the
    first join that failed, and cycle is (label, vertices, edge ids) of the
    cycle it closed, closing edge last.
    """
    edges = g.edges
    ports: list[dict] = [{} for _ in range(g.n)]
    # an element is named after the edge that starts its tree; a port seen
    # for the first time joins its neighbour's tree without a union
    uf = UnionFind(g.m)
    order = sorted(range(g.m), key=labels.__getitem__)  # stable: index order
    current, start = None, 0
    for i, e in enumerate(order):
        label = labels[e]
        if label != current:
            current, start = label, i
        u, v = edges[e]
        at_u, at_v = ports[u], ports[v]
        a, b = at_u.get(label), at_v.get(label)
        if a is None:
            at_u[label] = at_v.setdefault(label, e) if b is None else b
        elif b is None:
            at_v[label] = a
        elif not uf.union(a, b):
            verts, path = _class_path(g, order[start:i], u, v)
            return (label, tuple(verts), tuple(path) + (e,)), ports, uf
    return None, ports, uf


def _woody_ports(c: EdgeColoring):
    """is_woody's witness, and _port_forest's ports and union-find for
    is_strongly_woody to reuse."""
    cycle, ports, uf = _port_forest(c.parent, c.colors)
    witness = None
    if cycle is not None:
        color, verts, path = cycle
        witness = BrokenCycleWitness("monochromatic_cycle", color, verts, path, None)
    return witness, ports, uf


def is_woody(c: EdgeColoring) -> tuple[bool, BrokenCycleWitness | None]:
    """True iff every color class induces a forest.

    On failure, returns a monochromatic cycle witness for the first class,
    in color order, in which adding an edge (in index order) closed a cycle.
    """
    witness = _woody_ports(c)[0]
    return witness is None, witness


def is_strongly_woody(c: EdgeColoring) -> tuple[bool, BrokenCycleWitness | None]:
    """Fast strongly-woody check with witness reconstruction.

    Characterization used: every class is a forest, and for every graph
    edge uv and every color k other than uv's, u and v lie in different
    components of class k. Its equivalence to the cycle-based definition
    is not taken on faith; the test suite cross-checks it against
    is_strongly_woody_oracle, which remains the authority.

    Only colors present at both u and v can join them, so each edge costs
    min(deg u, deg v) lookups: O(n + sum over uv of min(deg u, deg v)),
    which is at most O(n + a(G) m) (Chiba & Nishizeki 1985). Of all
    violations the one with the smallest (color, edge index) is reported.
    """
    witness, ports, uf = _woody_ports(c)
    if witness is not None:
        return False, witness
    g = c.parent
    colors = c.colors
    find = uf.find
    bad: tuple[int, int] | None = None
    for idx, (u, v) in enumerate(g.edges):
        at_u, at_v = ports[u], ports[v]
        if len(at_u) > len(at_v):
            at_u, at_v = at_v, at_u
        own = colors[idx]
        for k, p in at_u.items():
            if k != own and (bad is None or k < bad[0]):
                q = at_v.get(k)
                if q is not None and find(p) == find(q):
                    bad = (k, idx)
    if bad is None:
        return True, None
    color, idx = bad
    u, v = g.edges[idx]
    class_edges = [e for e, k in enumerate(colors) if k == color]
    verts, path = _class_path(g, class_edges, u, v)
    return False, BrokenCycleWitness(
        "monochromatic_broken_cycle", color, tuple(verts), tuple(path), idx)


def enumerate_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every simple cycle exactly once as a vertex tuple.

    The first vertex is the cycle's minimum and the orientation is fixed by
    second < last. Exponential in general; callers guard the input size.
    """
    adj = g.adj
    on_path = [False] * g.n
    for root in range(g.n):
        # the depth-first walk from root over larger vertices; stack holds
        # one neighbour iterator per vertex of path
        path = [root]
        on_path[root] = True
        stack = [iter(adj[root])]
        while stack:
            for w in stack[-1]:
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        yield tuple(path)
                elif w > root and not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False


def cycle_edge_ids(g: Graph, cycle: Sequence[int]) -> list[int]:
    k = len(cycle)
    return [g.edge_id(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def _guard_enumeration(g: Graph, force: bool) -> None:
    if g.n > ORACLE_MAX_VERTICES and not force:
        raise GuardError(
            f"cycle enumeration guarded at n <= {ORACLE_MAX_VERTICES} "
            f"(got n={g.n}); pass force=True to override")


def is_strongly_woody_oracle(c: EdgeColoring, force: bool = False) -> bool:
    """Definition-faithful check: no cycle minus one edge is monochromatic.

    Enumerates all cycles and all single-edge deletions. Test-only oracle.
    """
    g = c.parent
    _guard_enumeration(g, force)
    for cyc in enumerate_cycles(g):
        eids = cycle_edge_ids(g, cyc)
        for drop in range(len(eids)):
            rest = [c.colors[e] for i, e in enumerate(eids) if i != drop]
            if len(set(rest)) == 1:
                return False
    return True


def is_p_woody(c: EdgeColoring, p: int, force: bool = False) -> bool:
    """True iff every cycle C carries at least min(|C|, p+1) colors."""
    if p < 1:
        raise ValueError("p must be positive")
    g = c.parent
    _guard_enumeration(g, force)
    for cyc in enumerate_cycles(g):
        eids = cycle_edge_ids(g, cyc)
        need = min(len(eids), p + 1)
        if len({c.colors[e] for e in eids}) < need:
            return False
    return True


def is_proper_vertex(f: VertexColoring) -> bool:
    """check_proper_vertex's verdict alone."""
    return check_proper_vertex(f)[0]


def is_proper_edge(c: EdgeColoring) -> bool:
    """No two edges with a common end share a color."""
    ends: set[tuple[int, int]] = set()
    for (u, v), color in zip(c.parent.edges, c.colors):
        if (u, color) in ends or (v, color) in ends:
            return False
        ends.update(((u, color), (v, color)))
    return True


def check_proper_vertex(f: VertexColoring) -> tuple[bool, MonochromaticEdgeWitness | None]:
    """True when no edge has both ends in one color; otherwise the first
    such edge (in index order) is the witness."""
    for e, (u, v) in enumerate(f.parent.edges):
        if f.colors[u] == f.colors[v]:
            return False, MonochromaticEdgeWitness(e, f.colors[u])
    return True, None


def is_acyclic_vertex(f: VertexColoring) -> tuple[
        bool, BicoloredCycleWitness | MonochromaticEdgeWitness | None]:
    """Proper (check_proper_vertex) and no cycle uses only two colors.

    The edges between each pair of color classes form one class of
    _port_forest, pairs in sorted order; a cycle in a class is the
    bicolored cycle witness.
    """
    ok, witness = check_proper_vertex(f)
    if not ok:
        return False, witness
    g, colors = f.parent, f.colors
    pairs = [(a, b) if a < b else (b, a)
             for a, b in ((colors[u], colors[v]) for u, v in g.edges)]
    cycle, _, _ = _port_forest(g, pairs)
    if cycle is None:
        return True, None
    pair, verts, path = cycle
    return False, BicoloredCycleWitness(pair, verts, path)


@dataclass(frozen=True)
class DensityCertificate:
    """A vertex subset H of graph. Its density |E(H)| / (|V(H)|-1), counted
    over the induced edges, proves arb >= ceil(density) (Nash-Williams):
    each forest covers at most |V(H)|-1 of those edges."""

    graph: Graph
    vertices: frozenset

    @property
    def num_edges(self) -> int:
        """Edges of graph with both ends in the subset."""
        vs = self.vertices
        return sum(u in vs and v in vs for u, v in self.graph.edges)

    @property
    def density(self) -> Fraction:
        return Fraction(self.num_edges, max(1, len(self.vertices) - 1))

    def to_json(self) -> dict:
        density = self.density
        return {
            "vertices": sorted(self.vertices),
            "num_edges": self.num_edges,
            "density": [density.numerator, density.denominator],
        }

    def check(self, k: int) -> bool:
        """True iff the subset proves arb >= k: more than (k-1)(|H|-1) edges."""
        return self.num_edges > (k - 1) * (len(self.vertices) - 1)


def replay_coloring_number(g: Graph, order: list[int]) -> int:
    """Max back-degree of the ordering plus one (upper bound on col)."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    return 1 + max((sum(pos[w] < pos[v] for w in g.adj[v]) for v in order), default=0)
