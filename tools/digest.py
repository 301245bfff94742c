#!/usr/bin/env python3
"""Print one sha256 per graph6 corpus file over what the library computes
for each of its graphs.

Each graph adds one JSON line to its file's hash: the graph6 string; the
arboricity decomposition (assignment, num_forests and the dense vertex
set, None meaning all vertices); the exact ζ and χ_a results (value,
search nodes and certificate colors), solved with no budget; the colors of
the square pipeline (arboricity_square_coloring); and is_woody and
is_strongly_woody of the all-zero edge coloring, as (ok, witness JSON).
Two trees that print the same digest for a corpus give the same values,
certificates, constructions, verdicts and node counts on it, so a
refactor that should change nothing can show that it did not.

Usage: PYTHONPATH=src python tools/digest.py tests/data/connected_n7.g6 [...]
"""

import hashlib
import json
import sys

from woody.construct import arboricity_square_coloring
from woody.decompose import arboricity
from woody.exact import acyclic_chromatic_exact, strong_arboricity_exact
from woody.graphs import graph6_lines, parse_graph6
from woody.verify import EdgeColoring, is_strongly_woody, is_woody


def graph_record(line: str) -> list:
    g = parse_graph6(line)
    _, decomp = arboricity(g)
    dense = None if decomp.dense is None else sorted(decomp.dense)
    solves = [(res.value, res.nodes, list(res.certificate.colors))
              for res in (strong_arboricity_exact(g), acyclic_chromatic_exact(g))]
    square = list(arboricity_square_coloring(g).colors)
    zero = EdgeColoring(g, [0] * g.m)
    verdicts = [(ok, None if witness is None else witness.to_json())
                for ok, witness in (is_woody(zero), is_strongly_woody(zero))]
    return [line, list(decomp.assignment), decomp.num_forests, dense, *solves,
            square, verdicts]


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, encoding="ascii") as fh:
        for _, line in graph6_lines(fh):
            h.update(json.dumps(graph_record(line)).encode("ascii") + b"\n")
    return h.hexdigest()


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    for path in paths:
        print(f"{digest(path)}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
