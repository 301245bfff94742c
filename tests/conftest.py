import random
from pathlib import Path

import pytest

from woody import Graph, parse_graph6
from woody.unionfind import UnionFind

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
    """Replace the hunt's ProcessPoolExecutor; returns the pools it made."""
    import woody.harness

    made: list = []
    monkeypatch.setattr(woody.harness, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(made, max_workers))
    return made
