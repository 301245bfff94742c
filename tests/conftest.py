import math
import random
from pathlib import Path

import pytest

from woody.errors import GuardError
from woody.graphs import Graph, UnionFind, parse_graph6, subset_adjacency, tree_walk
from woody.verify import DensityCertificate, EdgeColoring, is_strongly_woody

DATA = Path(__file__).parent / "data"


def corpus_lines(name: str) -> list[str]:
    return (DATA / name).read_text().split()


def corpus_graphs(name: str) -> list[Graph]:
    return [parse_graph6(line) for line in corpus_lines(name)]


def connected_upto(nmax: int) -> list[Graph]:
    out = []
    for n in range(1, nmax + 1):
        out.extend(corpus_graphs(f"connected_n{n}.g6"))
    return out


@pytest.fixture(scope="session")
def connected_n6() -> list[Graph]:
    return connected_upto(6)


@pytest.fixture(scope="session")
def connected_n7() -> list[Graph]:
    return connected_upto(7)


# ---------------------------------------------------------------------------
# named graphs


def lcf_graph(n: int, shifts: list[int], reps: int) -> Graph:
    edges = {(i, (i + 1) % n) for i in range(n)}
    idx = 0
    for _ in range(reps):
        for s in shifts:
            j = (idx + s) % n
            edges.add((min(idx, j), max(idx, j)))
            idx += 1
    return Graph(n, sorted((min(u, v), max(u, v)) for u, v in edges))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def cube_graph() -> Graph:
    return lcf_graph(8, [3, -3], 4)


def mcgee_graph() -> Graph:
    return lcf_graph(24, [12, 7, -7], 8)


def grid_graph(rows: int, cols: int, triangulated: bool = False) -> Graph:
    """The rows x cols grid; triangulated adds the down-right diagonals."""
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if triangulated and r + 1 < rows and c + 1 < cols:
                edges.append((vid(r, c), vid(r + 1, c + 1)))
    return Graph(rows * cols, edges)


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices permuted and its edge indices shuffled."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, edges)


def subdivide(g: Graph, times: int) -> Graph:
    """Replace every edge by a path with `times` internal vertices."""
    edges = []
    next_v = g.n
    for u, v in g.edges:
        prev = u
        for _ in range(times):
            edges.append((prev, next_v))
            prev = next_v
            next_v += 1
        edges.append((prev, v))
    return Graph(next_v, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------------------
# the density oracle: Nash-Williams' formula by brute force

DENSITY_MAX_VERTICES = 24


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
        return DensityCertificate(g, frozenset(range(n)))
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
    return DensityCertificate(g, frozenset(v for v in range(n) if (best_mask >> v) & 1))


def nash_williams_ceiling(g: Graph) -> int:
    """ceil of the exact fractional arboricity: the arboricity, by
    Nash-Williams' theorem."""
    return math.ceil(fractional_arboricity_bruteforce(g).density)


# ---------------------------------------------------------------------------
# the ζ oracle: every canonical edge coloring, each one checked whole

ZETA_MAX_EDGES = 10


def zeta_oracle(g: Graph) -> tuple[int, int]:
    """(ζ, nodes) by enumeration, with nothing from woody.exact.

    Deepening from k = 1, each edge in turn takes a color already in use
    or the next new one, with edges in decreasing degree sum, ties by
    index; every complete coloring goes to is_strongly_woody, and each
    color tried counts as one node. The canonical colorings grow like the
    Bell numbers: K5 (m = 10) takes 175,400 nodes, while refuting k = 4
    alone on K6 (m = 15) means 44.7M complete colorings, so it is guarded
    at m <= 10.
    """
    if g.m > ZETA_MAX_EDGES:
        raise GuardError(f"zeta enumeration guarded at m <= {ZETA_MAX_EDGES} (got m={g.m})")
    if g.m == 0:
        return 0, 0
    order = sorted(range(g.m), key=lambda e: (-sum(map(g.degree, g.edges[e])), e))
    colors = [0] * g.m
    nodes = 0

    def extend(i: int, used: int, k: int) -> bool:
        nonlocal nodes
        if i == g.m:
            return is_strongly_woody(EdgeColoring(g, colors))[0]
        for c in range(min(used + 1, k)):
            nodes += 1
            colors[order[i]] = c
            if extend(i + 1, max(used, c + 1), k):
                return True
        return False

    k = 1
    while not extend(0, 0, k):
        k += 1
    return k, nodes


# ---------------------------------------------------------------------------
# the shading oracle: every forest walked from its lowest vertex


def shading_oracle(g: Graph, assignment) -> list[int]:
    """The depth-parity shading of a forest decomposition, with nothing
    from woody.construct.

    Each tree of forest i is rooted at its lowest-index vertex and walked
    with tree_walk; an edge whose parent end sits at depth j gets color
    2i + j mod 2.
    """
    colors: list[int | None] = [None] * g.m
    classes: dict[int, list[int]] = {}
    for e, fi in enumerate(assignment):
        classes.setdefault(fi, []).append(e)
    for fi, eids in classes.items():
        nbrs = subset_adjacency(g, eids)
        depth: dict[int, int] = {}
        for root in sorted(nbrs):
            if root in depth:
                continue
            depth[root] = 0
            for x, e, w in tree_walk(nbrs, root):
                assert x not in depth, f"forest {fi} has a cycle"
                depth[x] = depth[w] + 1
                colors[e] = 2 * fi + depth[w] % 2
    return colors


# ---------------------------------------------------------------------------
# test-side edge contraction, with parallel edges retained


def contract_edge(g: Graph, colors, eidx: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Contract edge eidx; return (n, multigraph edges as (u, v, color)).

    The contracted edge vanishes; every other edge survives with endpoints
    relabeled, so a pair of parallel edges is kept as two entries.
    """
    cu, cv = g.edges[eidx]
    out = []
    for i, (u, v) in enumerate(g.edges):
        if i == eidx:
            continue
        nu = cu if u == cv else u
        nv = cu if v == cv else v
        out.append((nu, nv, colors[i]))
    return g.n, out


def multigraph_is_woody(n: int, colored_edges) -> bool:
    """Per-color acyclicity on a multigraph; a same-color parallel pair is
    a cycle of length two."""
    by_color: dict[int, list[tuple[int, int]]] = {}
    for u, v, c in colored_edges:
        by_color.setdefault(c, []).append((u, v))
    for pairs in by_color.values():
        uf = UnionFind(n)
        for u, v in pairs:
            if not uf.union(u, v):
                return False
    return True


def random_coloring(g: Graph, palette: int, rng: random.Random):
    return [rng.randrange(palette) for _ in range(g.m)]


def color_classes(coloring) -> dict[int, list[int]]:
    """Each color of coloring to its indices, in index order."""
    out: dict[int, list[int]] = {}
    for i, c in enumerate(coloring.colors):
        out.setdefault(c, []).append(i)
    return out


# ---------------------------------------------------------------------------
# a process pool stand-in that starts no process


class FakePool:
    """Records how the hunt sized its pool and runs the map in-process."""

    def __init__(self, made: list, max_workers: int):
        self.max_workers = max_workers
        self.chunksize = None
        made.append(self)

    def map(self, fn, iterable, chunksize=1):
        self.chunksize = chunksize
        return map(fn, iterable)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def fake_pool(monkeypatch) -> list:
    """Replace the hunt's ProcessPoolExecutor; returns the pools it made.

    run_hunt imports the executor from concurrent.futures.process when it
    starts workers, so the stand-in goes in there.
    """
    import concurrent.futures.process

    made: list = []
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(made, max_workers))
    return made
