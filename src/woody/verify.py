"""Edge/vertex coloring types and the woody / strongly woody / p-woody
verifiers, with violation witnesses that re-verify independently.

A color class is "woody" material when it induces a forest. A coloring is
strongly woody when additionally no broken cycle (a cycle minus one edge)
is monochromatic. The fast strong verifier uses a component argument; the
slow oracle enumerates cycles directly and is the authority in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import GuardError
from .graphs import Graph, subset_adjacency, subset_bfs
from .unionfind import UnionFind

ORACLE_MAX_VERTICES = 10


class _Coloring:
    """A map from edge or vertex index to color index; entries may be None
    (unassigned).

    palette_size is 1 + max assigned color, which matches the number of
    colors only in normalized form; verifiers accept unnormalized input.
    Subclasses name the Graph attribute that gives the length (m or n).
    """

    __slots__ = ("parent", "colors")
    _length = ""

    @classmethod
    def length_for(cls, parent: Graph) -> int:
        """Number of entries a coloring of parent has."""
        return getattr(parent, cls._length)

    def __init__(self, parent: Graph, colors: Sequence[int | None]):
        colors = tuple(colors)
        expected = self.length_for(parent)
        if len(colors) != expected:
            raise ValueError(f"expected {expected} entries, got {len(colors)}")
        for c in colors:
            if c is not None and (not isinstance(c, int) or c < 0):
                raise ValueError(f"bad color {c!r}")
        self.parent = parent
        self.colors = colors

    @property
    def total(self) -> bool:
        return all(c is not None for c in self.colors)

    @property
    def palette_size(self) -> int:
        assigned = [c for c in self.colors if c is not None]
        return 1 + max(assigned) if assigned else 0

    def used_colors(self) -> set[int]:
        return {c for c in self.colors if c is not None}

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.colors):
            if c is not None:
                out.setdefault(c, []).append(i)
        return out

    def normalized(self) -> "_Coloring":
        """Renumber colors by first appearance in index order."""
        remap: dict[int, int] = {}
        out: list[int | None] = []
        for c in self.colors:
            if c is None:
                out.append(None)
                continue
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return type(self)(self.parent, out)

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
        if self.kind == "monochromatic_cycle":
            if len(self.path_edges) != len(verts) or len(verts) < 3:
                return False
            if self.closing_edge is not None:
                return False
            if len(set(verts)) != len(verts):
                return False
            ring = list(verts) + [verts[0]]
            for i, e in enumerate(self.path_edges):
                u, v = g.edges[e]
                if {u, v} != {ring[i], ring[i + 1]}:
                    return False
            return True
        if self.kind == "monochromatic_broken_cycle":
            if len(self.path_edges) < 2 or len(verts) != len(self.path_edges) + 1:
                return False
            if len(set(verts)) != len(verts):
                return False
            for i, e in enumerate(self.path_edges):
                u, v = g.edges[e]
                if {u, v} != {verts[i], verts[i + 1]}:
                    return False
            if self.closing_edge is None or self.closing_edge in self.path_edges:
                return False
            cu, cv = g.edges[self.closing_edge]
            if {cu, cv} != {verts[0], verts[-1]}:
                return False
            return coloring.colors[self.closing_edge] != self.color
        return False


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
        ring = list(verts) + [verts[0]]
        if len(self.edges) != len(verts):
            return False
        for i, e in enumerate(self.edges):
            u, v = g.edges[e]
            if {u, v} != {ring[i], ring[i + 1]}:
                return False
        return True


def _require_total(c) -> None:
    if not c.total:
        raise ValueError("coloring is partial; verifiers need a total coloring")


def _class_path(g: Graph, class_edges: list[int], src: int, dst: int
                ) -> tuple[list[int], list[int]]:
    """Path from src to dst using only the given edges: (vertices, edge ids)."""
    tree = subset_bfs(subset_adjacency(g, class_edges), src, dst)
    if dst not in tree:
        raise AssertionError("no path inside color class; verifier state is broken")
    verts = [dst]
    eids = []
    cur = dst
    while cur != src:
        cur, e = tree[cur]
        verts.append(cur)
        eids.append(e)
    verts.reverse()
    eids.reverse()
    return verts, eids


def is_woody(c: EdgeColoring) -> tuple[bool, BrokenCycleWitness | None]:
    """True iff every color class induces a forest.

    On failure, returns a monochromatic cycle witness for the first class
    in which adding an edge closed a cycle.
    """
    _require_total(c)
    g = c.parent
    for color, eids in sorted(c.classes().items()):
        uf = UnionFind(g.n)
        placed: list[int] = []
        for e in eids:
            u, v = g.edges[e]
            if not uf.union(u, v):
                verts, path = _class_path(g, placed, u, v)
                return False, BrokenCycleWitness(
                    "monochromatic_cycle", color,
                    tuple(verts), tuple(path) + (e,), None)
            placed.append(e)
    return True, None


def is_strongly_woody(c: EdgeColoring) -> tuple[bool, BrokenCycleWitness | None]:
    """Fast strongly-woody check with witness reconstruction.

    Characterization used: every class is a forest, and for every graph
    edge uv and every color k other than uv's, u and v lie in different
    components of class k. Its equivalence to the cycle-based definition
    is not taken on faith; the test suite cross-checks it against
    is_strongly_woody_oracle, which remains the authority.
    """
    ok, witness = is_woody(c)
    if not ok:
        return False, witness
    g = c.parent
    for color, eids in sorted(c.classes().items()):
        uf = UnionFind(g.n)
        for e in eids:
            u, v = g.edges[e]
            uf.union(u, v)
        for idx, (u, v) in enumerate(g.edges):
            if c.colors[idx] == color:
                continue
            if uf.find(u) == uf.find(v):
                verts, path = _class_path(g, eids, u, v)
                return False, BrokenCycleWitness(
                    "monochromatic_broken_cycle", color,
                    tuple(verts), tuple(path), idx)
    return True, None


def enumerate_cycles(g: Graph, max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every simple cycle exactly once as a vertex tuple.

    The first vertex is the cycle's minimum and the orientation is fixed by
    second < last. Exponential in general; callers guard the input size.
    """
    adj = g.adj
    on_path = [False] * g.n
    path: list[int] = []

    def extend(root: int, u: int):
        for w in adj[u]:
            if w == root:
                if len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
            elif w > root and not on_path[w]:
                if max_length is None or len(path) < max_length:
                    path.append(w)
                    on_path[w] = True
                    yield from extend(root, w)
                    path.pop()
                    on_path[w] = False

    for root in range(g.n):
        path = [root]
        on_path[root] = True
        yield from extend(root, root)
        on_path[root] = False


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
    _require_total(c)
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
    _require_total(c)
    g = c.parent
    _guard_enumeration(g, force)
    for cyc in enumerate_cycles(g):
        eids = cycle_edge_ids(g, cyc)
        need = min(len(eids), p + 1)
        if len({c.colors[e] for e in eids}) < need:
            return False
    return True


def is_proper_vertex(f: VertexColoring) -> bool:
    _require_total(f)
    g = f.parent
    return all(f.colors[u] != f.colors[v] for u, v in g.edges)


def is_proper_edge(c: EdgeColoring) -> bool:
    """No two edges with a common end share a color."""
    _require_total(c)
    ends: set[tuple[int, int]] = set()
    for (u, v), color in zip(c.parent.edges, c.colors):
        if (u, color) in ends or (v, color) in ends:
            return False
        ends.update(((u, color), (v, color)))
    return True


def is_acyclic_vertex(f: VertexColoring) -> tuple[bool, BicoloredCycleWitness | None]:
    """Proper and no cycle uses only two colors.

    For each color pair the edges within the union of the two classes are
    fed to a union-find; a repeated join yields the bicolored cycle witness.
    """
    _require_total(f)
    if not is_proper_vertex(f):
        return False, None
    g = f.parent
    by_pair: dict[tuple[int, int], list[int]] = {}
    for idx, (u, v) in enumerate(g.edges):
        a, b = f.colors[u], f.colors[v]
        pair = (a, b) if a < b else (b, a)
        by_pair.setdefault(pair, []).append(idx)
    for pair, eids in sorted(by_pair.items()):
        uf = UnionFind(g.n)
        placed: list[int] = []
        for e in eids:
            u, v = g.edges[e]
            if not uf.union(u, v):
                verts, path = _class_path(g, placed, u, v)
                return False, BicoloredCycleWitness(
                    pair, tuple(verts), tuple(path) + (e,))
            placed.append(e)
    return True, None
