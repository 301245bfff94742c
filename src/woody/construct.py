"""Constructive strongly woody coloring pipelines.

Each pipeline that promises a strongly woody result passes its output
through verify.verified with the fast verifier before returning it.
"""

from __future__ import annotations

from .decompose import ForestDecomposition, arboricity
from .errors import PreconditionError
from .graphs import (
    Graph,
    coloring_number,
    find_triangle,
    has_triangle,
    induces_forest,
    is_2_independent,
)
from .verify import EdgeColoring, VertexColoring, is_strongly_woody, verified


def derived_coloring(g: Graph, f: VertexColoring, k: int) -> EdgeColoring:
    """Color each edge uv with f(u)+f(v) modulo k.

    If f is an acyclic vertex coloring, the result is strongly woody: a
    monochromatic broken cycle would force the underlying cycle to
    alternate two vertex colors. Properness or acyclicity of f is not
    checked here; callers own that guarantee.
    """
    if f.parent is not g:
        raise ValueError("vertex coloring belongs to a different graph")
    if f.palette_size > k:  # the 0-vertex graph has χ = χ_a = 0
        raise ValueError(f"vertex color {f.palette_size - 1} outside 0..{k - 1}")
    colors = [(f.colors[u] + f.colors[v]) % k for u, v in g.edges]
    return EdgeColoring(g, colors)


def depth_parity_shading(d: ForestDecomposition) -> EdgeColoring:
    """Split every forest class into two shades by depth parity.

    Each tree is rooted at its lowest-index vertex. An edge whose parent
    endpoint sits at depth j gets shade j mod 2, so forest i emits colors
    2i and 2i+1. No shade contains a path of three edges: on any tree path
    the two edges of a descending chain alternate shades, so a
    monochromatic path has at most one edge on each side of its apex.

    The depths come from d.rooting, climbing parent edges once per vertex
    in index order: the first climb in a tree starts at its lowest vertex
    and runs to the tree's root in the rooting, so the edges on it take
    their upper end as child; every later climb stops at a vertex whose
    depth parity is known. A decomposition without a rooting, a parent
    edge outside its forest or not at its vertex, a forest edge that is not
    the parent edge of exactly one of its ends, or a climb that revisits a
    vertex raises ValueError.
    """
    g = d.parent
    n, edges, assignment = g.n, g.edges, d.assignment
    rooting = d.rooting
    if rooting is None or len(rooting) != d.num_forests or any(len(up) != n for up in rooting):
        raise ValueError("decomposition carries no rooting of its forests and vertices")
    colors: list[int | None] = [None] * g.m
    for fi, up in enumerate(rooting):
        parity = [-1] * n  # depth mod 2 below the lowest vertex; 2 on the current climb
        base = 2 * fi
        for v in range(n):
            if parity[v] >= 0:
                continue
            climb = []
            x = v
            while parity[x] < 0:
                e = up[x]
                if e < 0:
                    break
                a, b = edges[e]
                y = b if a == x else a if b == x else -1
                if assignment[e] != fi or y < 0:
                    raise ValueError(f"forest {fi}: parent edge {e} of vertex {x} "
                                     "is not a forest edge at it")
                if up[y] == e:
                    raise ValueError(f"forest {fi}: edge {e} is the parent edge of both ends")
                parity[x] = 2
                climb.append(x)
                x = y
            else:
                if parity[x] == 2:
                    raise ValueError(f"forest {fi}: the climb from vertex {v} "
                                     f"revisits vertex {x}")
                p = parity[x]
                for y in reversed(climb):
                    colors[up[y]] = base + p
                    p ^= 1
                    parity[y] = p
                continue
            # x is a root and v the lowest vertex of its tree
            p = 0
            for y in climb:
                parity[y] = p
                colors[up[y]] = base + p
                p ^= 1
            parity[x] = p
        if n - up.count(-1) != assignment.count(fi):
            raise ValueError(f"forest {fi}: an edge is the parent edge of neither end")
    return EdgeColoring(g, colors)


def triangle_free_planar_coloring(g: Graph) -> EdgeColoring:
    """Strongly woody coloring with at most 4 colors for sparse
    triangle-free graphs (two forests, each split into two shades).

    Planarity itself is never tested; the arboricity <= 2 consequence is
    checked directly, so any triangle-free graph decomposable into two
    forests is accepted; one that needs more is refused with arboricity's
    density witness, checked first.
    """
    tri = find_triangle(g)
    if tri is not None:
        raise PreconditionError(f"graph has a triangle {tri}", certificate=tri)
    k, decomp = arboricity(g)
    if k > 2:
        cert = decomp.density_certificate()
        if not cert.check(k):
            raise AssertionError(f"density witness does not prove {k} forests")
        raise PreconditionError(f"graph needs {k} forests, not 2", certificate=cert)
    return verified(depth_parity_shading(decomp), is_strongly_woody)


def product_coloring(g: Graph, a: EdgeColoring, b: EdgeColoring) -> EdgeColoring:
    """Common refinement of two edge colorings: the pair (a, b) of each
    edge, renumbered by first appearance.

    If a makes every triangle rainbow and b admits no monochromatic broken
    cycle with three or more edges, the product is strongly woody.
    """
    if a.parent is not g or b.parent is not g:
        raise ValueError("colorings belong to a different graph")
    width = b.palette_size
    return EdgeColoring(g, [x * width + y for x, y in zip(a.colors, b.colors)]).normalized()


def degeneracy_greedy_vertex_coloring(g: Graph, col: tuple[int, list[int]] | None = None
                                      ) -> VertexColoring:
    """Proper coloring greedily along the degeneracy ordering.

    Uses at most coloring_number(g) colors since each vertex sees fewer
    than that many earlier neighbors. col, when given, must be
    coloring_number(g).
    """
    col, order = col or coloring_number(g)
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
    return _square_coloring(g)[1]


def _square_coloring(g: Graph) -> tuple[int, EdgeColoring]:
    """arboricity_square_coloring together with the arboricity it found."""
    col = coloring_number(g)  # the arboricity seed and the greedy's order
    ell, decomp = arboricity(g, col)
    if has_triangle(g):
        return ell, shaded_product(g, degeneracy_greedy_vertex_coloring(g, col), decomp)
    return ell, verified(depth_parity_shading(decomp), is_strongly_woody)


def shaded_product(g: Graph, f: VertexColoring, decomp: ForestDecomposition
                   ) -> EdgeColoring:
    """The coloring derived from the proper vertex coloring f (triangles
    rainbow) crossed with decomp's depth-parity shading (no path of three
    edges in a shade): verified strongly woody, <= 2*|f|*arb colors."""
    k = f.palette_size
    result = product_coloring(g, derived_coloring(g, f, k), depth_parity_shading(decomp))
    if result.palette_size > 2 * k * decomp.num_forests:
        raise AssertionError("product exceeded its palette bound")
    return verified(result, is_strongly_woody)


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
    tri = find_triangle(g)
    if tri is not None:
        raise PreconditionError(f"girth below 4: triangle {tri}", certificate=tri)
    colors = [0 if (u in f_set and v in f_set) else 1 for u, v in g.edges]
    return verified(EdgeColoring(g, colors), is_strongly_woody)
