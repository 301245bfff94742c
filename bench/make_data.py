"""Regenerate the benchmark's expected-answer files under bench/data/.

One file per corpus file the hunt workloads sample from. Line i of
`<corpus>.ans` describes line i of `tests/data/<corpus>.g6` as six base-36
digits: girth (0 for a forest), arboricity, coloring number, acyclic
chromatic number, strong arboricity, and a cost class
floor(2 * log2(1 + zeta nodes + chi_a nodes)) that the hunt-dense sampler
stratifies on. The answers are invariants of the graph, so they hold for
every seed.

    python3 bench/make_data.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from woody.decompose import arboricity  # noqa: E402
from woody.exact import acyclic_chromatic_exact, strong_arboricity_exact  # noqa: E402
from woody.graphs import coloring_number, girth, parse_graph6  # noqa: E402

CORPORA = ["connected_n8"] + [f"planar_connected_n{i}" for i in range(1, 9)] \
    + ["triangle_free_planar_upto12"]
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def answer_line(text: str) -> str:
    g = parse_graph6(text)
    gir = girth(g)
    chi_a = acyclic_chromatic_exact(g)
    zeta = strong_arboricity_exact(g)
    if not (chi_a.exact and zeta.exact):
        raise SystemExit(f"inexact solve on {text}")
    cost = min(35, int(2 * math.log2(1 + zeta.nodes + chi_a.nodes)))
    values = [0 if gir == math.inf else gir, arboricity(g)[0],
              coloring_number(g)[0], chi_a.value, zeta.value, cost]
    return "".join(DIGITS[v] for v in values)


def main() -> None:
    out_dir = ROOT / "bench" / "data"
    for name in CORPORA:
        src = ROOT / "tests" / "data" / f"{name}.g6"
        lines = src.read_text(encoding="ascii").splitlines()
        (out_dir / f"{name}.ans").write_text(
            "".join(answer_line(t.strip()) + "\n" for t in lines), encoding="ascii")
        print(name, len(lines), file=sys.stderr)


if __name__ == "__main__":
    main()
