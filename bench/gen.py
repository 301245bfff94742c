"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and of the shipped corpora
under tests/data, so one seed always gives the same inputs. The program
under test only ever sees the generated graphs and colorings.
"""

from __future__ import annotations

import random
from pathlib import Path

from woody.graphs import Graph, complete_graph

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "tests" / "data"
DATA_DIR = Path(__file__).resolve().parent / "data"

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

# hunt-dense: the DENSE_CERTAIN costliest graphs are always in the sample
# (each is up to 3% of the whole file's serial time, so drawing them at
# random would swing graphs/s across seeds by more than any bound), and one
# graph is drawn from every run of DENSE_STRIDE graphs in cost order below.
DENSE_CORPUS = "connected_n8"
DENSE_CERTAIN = 3
DENSE_STRIDE = 15

PLANAR_CORPORA = [f"planar_connected_n{i}" for i in range(1, 9)] \
    + ["triangle_free_planar_upto12"]
PLANAR_SAMPLE = 700

# scale-sparse: (rows, triangulated). Sizes are fixed, so the seed moves
# labels and edge order but not the amount of work.
SCALE_SHAPES = [(30, False), (30, True), (40, False)]

# exact-stretch: relabeling moves zeta node counts by up to 13x
# (K_{5,5}: 62k to 803k, K_7: 52k to 206k), so the costly graphs keep their
# natural labels and only the cheap ones are relabeled per seed.
STRETCH_RELABELED = ("K4,5", "Petersen", "McGee")


def read_corpus(name: str) -> list[str]:
    return (CORPUS_DIR / f"{name}.g6").read_text(encoding="ascii").splitlines()


def read_answers(name: str) -> list[str]:
    """Line i: girth, arb, col, chi_a, zeta, cost class as base-36 digits."""
    return (DATA_DIR / f"{name}.ans").read_text(encoding="ascii").splitlines()


def decode_answer(code: str) -> tuple[int, ...]:
    return tuple(DIGITS.index(ch) for ch in code)


def dense_sample(seed: int) -> list[tuple[str, int, str]]:
    """Cost-stratified sample of connected_n8 as (corpus, line, graph6)."""
    texts = read_corpus(DENSE_CORPUS)
    cost = [decode_answer(a)[5] for a in read_answers(DENSE_CORPUS)]
    order = sorted(range(len(texts)), key=lambda i: (-cost[i], i))
    rnd = random.Random(seed)
    picked = order[:DENSE_CERTAIN]
    rest = order[DENSE_CERTAIN:]
    for start in range(0, len(rest), DENSE_STRIDE):
        picked.append(rnd.choice(rest[start:start + DENSE_STRIDE]))
    return [(DENSE_CORPUS, i + 1, texts[i]) for i in sorted(picked)]


def planar_sample(seed: int) -> list[tuple[str, int, str]]:
    """Uniform sample of the planar corpora as (corpus, line, graph6)."""
    pool = [(name, i + 1, text) for name in PLANAR_CORPORA
            for i, text in enumerate(read_corpus(name))]
    picked = random.Random(seed).sample(range(len(pool)), PLANAR_SAMPLE)
    return [pool[i] for i in sorted(picked)]


def _relabeled(n: int, edges: list[tuple[int, int]], rnd: random.Random,
               *aligned: list) -> tuple[Graph, list[list]]:
    """Graph with permuted vertices and shuffled edge order.

    Each list in `aligned` holds one entry per edge and is shuffled along.
    """
    perm = list(range(n))
    rnd.shuffle(perm)
    idx = list(range(len(edges)))
    rnd.shuffle(idx)
    g = Graph(n, [(perm[edges[i][0]], perm[edges[i][1]]) for i in idx])
    return g, [[seq[i] for i in idx] for seq in aligned]


def grid_edges(r: int, triangulated: bool) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of the r x r grid and a proper edge coloring of it.

    Edges of one direction alternate two colors by row or column parity,
    so every class is a matching: strongly woody with 4 colors (6 when
    triangulated by the down-right diagonals).
    """
    edges, colors = [], []
    for i in range(r):
        for j in range(r):
            v = i * r + j
            if j + 1 < r:
                edges.append((v, v + 1))
                colors.append(j % 2)
            if i + 1 < r:
                edges.append((v, v + r))
                colors.append(2 + i % 2)
            if triangulated and i + 1 < r and j + 1 < r:
                edges.append((v, v + r + 1))
                colors.append(4 + i % 2)
    return edges, colors


def scale_graphs(seed: int) -> list[dict]:
    """Relabeled grids with a rainbow and a planted failing coloring each.

    The planted coloring takes the matching coloring and gives three sides
    of one seeded grid square a fresh, largest color: a monochromatic path
    closed by the fourth side, which the verifier meets only in its last
    color class.
    """
    rnd = random.Random(seed)
    out = []
    for r, tri in SCALE_SHAPES:
        edges, matching = grid_edges(r, tri)
        i, j = rnd.randrange(r - 1), rnd.randrange(r - 1)
        v = i * r + j
        path = {(v, v + 1), (v + 1, v + 1 + r), (v + r, v + r + 1)}
        fresh = max(matching) + 1
        planted = [fresh if e in path else c for e, c in zip(edges, matching)]
        g, (planted,) = _relabeled(r * r, edges, rnd, planted)
        out.append({
            "label": f"{'trigrid' if tri else 'grid'}{r}",
            "graph": g,
            "triangulated": tri,
            "rainbow": list(range(g.m)),
            "planted": planted,
        })
    return out


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def mcgee() -> Graph:
    """The (3,7)-cage on 24 vertices, LCF notation [12, 7, -7]^8."""
    n = 24
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i, s in enumerate([12, 7, -7] * 8):
        edges.add((i, (i + s) % n))
    return Graph(n, sorted({(min(e), max(e)) for e in edges}))


STRETCH_GRAPHS = {
    "K4,5": lambda: complete_bipartite(4, 5),
    "K4,6": lambda: complete_bipartite(4, 6),
    "K5,5": lambda: complete_bipartite(5, 5),
    "K7": lambda: complete_graph(7),
    "Petersen": petersen,
    "McGee": mcgee,
}


def stretch_set(seed: int) -> list[tuple[str, str, Graph]]:
    """(instance label, graph name, graph): every graph in its natural
    labeling, then a seeded relabeling of each STRETCH_RELABELED graph."""
    rnd = random.Random(seed)
    out = [(name, name, make()) for name, make in STRETCH_GRAPHS.items()]
    for name in STRETCH_RELABELED:
        g = STRETCH_GRAPHS[name]()
        h, _ = _relabeled(g.n, list(g.edges), rnd)
        out.append((f"{name}~{seed}", name, h))
    return out
