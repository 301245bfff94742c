"""Constructive strongly woody coloring pipelines.

Each pipeline that promises a strongly woody result re-verifies its output
with the fast verifier before returning it; a verification failure is a
bug, not a user error, and raises AssertionError.
"""

from __future__ import annotations

from .decompose import ForestDecomposition, arboricity, two_forest_decomposition
from .errors import PreconditionError
from .graphs import (
    Graph,
    coloring_number,
    find_triangle,
    girth,
    has_triangle,
    induces_forest,
    is_2_independent,
    subset_adjacency,
    subset_bfs,
)
from .verify import EdgeColoring, VertexColoring, is_strongly_woody


def derived_coloring(g: Graph, f: VertexColoring, k: int) -> EdgeColoring:
    """Color each edge uv with f(u)+f(v) modulo k.

    If f is an acyclic vertex coloring, the result is strongly woody: a
    monochromatic broken cycle would force the underlying cycle to
    alternate two vertex colors. Properness or acyclicity of f is not
    checked here; callers own that guarantee.
    """
    if f.parent is not g:
        raise ValueError("vertex coloring belongs to a different graph")
    if not f.total:
        raise ValueError("vertex coloring must be total")
    if k < 1:
        raise ValueError("palette size must be positive")
    for v, c in enumerate(f.colors):
        if c >= k:
            raise ValueError(f"vertex {v} has color {c} outside 0..{k - 1}")
    colors = [(f.colors[u] + f.colors[v]) % k for u, v in g.edges]
    return EdgeColoring(g, colors)


def depth_parity_shading(d: ForestDecomposition) -> EdgeColoring:
    """Split every forest class into two shades by depth parity.

    Each tree is rooted at its lowest-index vertex; an edge whose child
    endpoint sits at depth j gets shade (j-1) mod 2, so forest i emits
    colors 2i and 2i+1. No shade contains a path of three edges: on any
    tree path the two edges of a descending chain alternate shades, so a
    monochromatic path has at most one edge on each side of its apex.
    """
    g = d.parent
    colors: list[int | None] = [None] * g.m
    for fi, eids in enumerate(d.classes()):
        nbrs = subset_adjacency(g, eids)
        depth: dict[int, int] = {}
        for root in sorted(nbrs):
            if root in depth:
                continue
            # discovery order puts every parent before its children
            for w, link in subset_bfs(nbrs, root).items():
                if link is None:
                    depth[w] = 0
                    continue
                u, e = link
                depth[w] = depth[u] + 1
                colors[e] = 2 * fi + depth[u] % 2
    return EdgeColoring(g, colors)


def triangle_free_planar_coloring(g: Graph) -> EdgeColoring:
    """Strongly woody coloring with at most 4 colors for sparse
    triangle-free graphs (two forests, each split into two shades).

    Planarity itself is never tested; the arboricity <= 2 consequence is
    checked directly, so any triangle-free graph decomposable into two
    forests is accepted.
    """
    tri = find_triangle(g)
    if tri is not None:
        raise PreconditionError(f"graph has a triangle {tri}", certificate=tri)
    decomp = two_forest_decomposition(g)
    coloring = depth_parity_shading(decomp)
    ok, witness = is_strongly_woody(coloring)
    if not ok:
        raise AssertionError(f"shading pipeline produced invalid coloring: {witness}")
    return coloring


def product_coloring(g: Graph, a: EdgeColoring, b: EdgeColoring) -> EdgeColoring:
    """Common refinement of two edge colorings, densely renumbered.

    If a makes every triangle rainbow and b admits no monochromatic broken
    cycle with three or more edges, the product is strongly woody.
    """
    if a.parent is not g or b.parent is not g:
        raise ValueError("colorings belong to a different graph")
    if not (a.total and b.total):
        raise ValueError("product needs total colorings")
    remap: dict[tuple[int, int], int] = {}
    colors = []
    for e in range(g.m):
        pair = (a.colors[e], b.colors[e])
        if pair not in remap:
            remap[pair] = len(remap)
        colors.append(remap[pair])
    return EdgeColoring(g, colors)


def degeneracy_greedy_vertex_coloring(g: Graph) -> VertexColoring:
    """Proper coloring greedily along the degeneracy ordering.

    Uses at most coloring_number(g) colors since each vertex sees fewer
    than that many earlier neighbors.
    """
    col, order = coloring_number(g)
    colors: list[int | None] = [None] * g.n
    for v in order:
        used = {colors[w] for w in g.adj[v] if colors[w] is not None}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    vc = VertexColoring(g, colors)
    if vc.palette_size > max(col, 0):
        raise AssertionError("greedy exceeded the coloring number")
    return vc


def arboricity_square_coloring(g: Graph) -> EdgeColoring:
    """Strongly woody coloring for an arbitrary graph.

    Triangle-free graphs take the shading of a minimum forest
    decomposition alone (at most 2*arb colors). Otherwise the shading is
    crossed with the edge coloring derived from a greedy proper vertex
    coloring, which keeps triangles rainbow: at most 2*chi*arb colors,
    and chi <= 2*arb gives the 4*arb^2 bound.
    """
    ell, decomp = arboricity(g)
    shaded = depth_parity_shading(decomp)
    if not has_triangle(g):
        result = shaded
    else:
        f = degeneracy_greedy_vertex_coloring(g)
        chi = f.palette_size
        derived = derived_coloring(g, f, chi)
        result = product_coloring(g, derived, shaded)
        if result.palette_size > 2 * chi * ell:
            raise AssertionError("product exceeded its palette bound")
    ok, witness = is_strongly_woody(result)
    if not ok:
        raise AssertionError(f"square pipeline produced invalid coloring: {witness}")
    return result


def partition_coloring(g: Graph, a, f) -> EdgeColoring:
    """Two-color strongly woody coloring from a forest / 2-independent split.

    Class 0 is the forest induced by f; class 1 is the star forest between
    a and f. Every precondition failure is reported by name.
    """
    a_set, f_set = set(a), set(f)
    if a_set & f_set or a_set | f_set != set(range(g.n)):
        raise PreconditionError("a and f do not partition the vertex set")
    if not induces_forest(g, f_set):
        raise PreconditionError("f does not induce a forest")
    if not is_2_independent(g, a_set):
        raise PreconditionError("a is not 2-independent")
    for u, v in g.edges:
        if u in a_set and v in a_set:
            raise PreconditionError(f"edge ({u}, {v}) lies inside a")
    if girth(g) < 4:
        raise PreconditionError("girth below 4")
    colors = []
    for u, v in g.edges:
        colors.append(0 if (u in f_set and v in f_set) else 1)
    coloring = EdgeColoring(g, colors)
    ok, witness = is_strongly_woody(coloring)
    if not ok:
        raise AssertionError(f"partition coloring failed verification: {witness}")
    return coloring
