"""Correctness gate, run outside the timed region.

Each check returns a list of failure messages, one per wrong operation, so
the caller can count them against the operations attempted. The checks
lean on the independent oracles where the input is small enough: the
cycle-enumeration verifier for certificates with n <= 10, Nash-Williams
density for arboricity, and witnesses that re-check themselves.
"""

from __future__ import annotations

from woody.decompose import arboricity
from woody.graphs import parse_graph6
from woody.verify import (
    ORACLE_MAX_VERTICES,
    EdgeColoring,
    is_acyclic_vertex,
    is_proper_vertex,
    is_strongly_woody,
    is_strongly_woody_oracle,
)

import gen


def strongly_woody_certificate(g, colors, value) -> str | None:
    """Why a claimed optimal strongly woody coloring is not one, else None."""
    coloring = EdgeColoring(g, colors)
    if coloring.palette_size != value or len(coloring.used_colors()) != value:
        return f"certificate uses {coloring.palette_size} colors, claims {value}"
    if not is_strongly_woody(coloring)[0]:
        return "certificate fails the fast verifier"
    if g.n <= ORACLE_MAX_VERTICES and not is_strongly_woody_oracle(coloring):
        return "certificate fails the cycle-enumeration oracle"
    return None


def check_hunt(outcome, sources: list[tuple[str, int, str]], answers: dict) -> list[str]:
    """Hunt records against the committed answers and their certificates.

    sources[i] is the (corpus, line, graph6) behind line i+1 of the sampled
    corpus file; answers maps a corpus name to its decoded answer lines.
    """
    fails = []
    if outcome.exit_code != 0 or outcome.violations or outcome.parse_errors:
        fails.append(f"hunt exit {outcome.exit_code}, {len(outcome.violations)} "
                     f"violations, {len(outcome.parse_errors)} parse errors")
    seen = set()
    for rec in outcome.records:
        line = int(rec["graph_id"].rpartition(":")[2])
        corpus, src_line, text = sources[line - 1]
        where = f"{corpus}:{src_line}"
        seen.add(line)
        if rec["graph6"] != text:
            fails.append(f"{where}: record is for another graph")
            continue
        if not rec["zeta_exact"] or rec["budget_exhausted"]:
            fails.append(f"{where}: inexact solve")
            continue
        got = (0 if rec["girth"] is None else rec["girth"], rec["arb"], rec["col"],
               rec["chi_a"], rec["zeta"])
        want = answers[corpus][src_line - 1][:5]
        if got != want:
            fails.append(f"{where}: girth/arb/col/chi_a/zeta {got}, expected {want}")
            continue
        if any(v == "violated" for v in rec["flags"].values()):
            fails.append(f"{where}: unexpected violation {rec['flags']}")
            continue
        why = strongly_woody_certificate(parse_graph6(text), rec["zeta_coloring"], rec["zeta"])
        if why:
            fails.append(f"{where}: {why}")
    for line, (corpus, src_line, _) in enumerate(sources, start=1):
        if line not in seen:
            fails.append(f"{corpus}:{src_line}: missing from the report")
    return fails


def _nash_williams_arb(m: int, n: int) -> int:
    # grids and triangulated grids are densest as a whole: ceil(m / (n - 1))
    return -(-m // (n - 1))


def check_scale(item: dict, own, verdicts: list) -> list[str]:
    """Square-pipeline coloring and the three verifier verdicts of one graph.

    verdicts: is_strongly_woody results for (own, rainbow, planted).
    """
    g = item["graph"]
    fails = []
    arb, decomp = arboricity(g)
    if not decomp.is_valid():
        fails.append(f"{item['label']}: forest decomposition invalid")
    if arb != _nash_williams_arb(g.m, g.n):
        fails.append(f"{item['label']}: arboricity {arb}, expected "
                     f"{_nash_williams_arb(g.m, g.n)}")
    bound = 4 * arb * arb if item["triangulated"] else 2 * arb
    if not own.total or own.palette_size > bound:
        fails.append(f"{item['label']}: square coloring has {own.palette_size} colors")
    for kind, (ok, witness), want in zip(("own", "rainbow", "planted"), verdicts,
                                         (True, True, False)):
        if ok != want:
            fails.append(f"{item['label']}: {kind} coloring judged {ok}")
        elif not ok and not witness.check(EdgeColoring(g, item["planted"])):
            fails.append(f"{item['label']}: planted rejection witness does not check")
    return fails


def _proper_edge(coloring) -> bool:
    g = coloring.parent
    seen = set()
    for e, (u, v) in enumerate(g.edges):
        c = coloring.colors[e]
        if (u, c) in seen or (v, c) in seen:
            return False
        seen.update(((u, c), (v, c)))
    return True


def check_solve(label: str, g, solver: str, res, want: int) -> str | None:
    """Why one exact solve is wrong, else None."""
    if not res.exact:
        return f"{label} {solver}: inexact (bounds {res.lower}..{res.upper})"
    if res.value != want:
        return f"{label} {solver}: {res.value}, expected {want}"
    cert = res.certificate
    if solver == "zeta":
        why = strongly_woody_certificate(g, cert.colors, want)
        return f"{label} zeta: {why}" if why else None
    if solver == "chi_index":
        ok = _proper_edge(cert)
    else:
        ok = is_proper_vertex(cert) if solver == "chi" else is_acyclic_vertex(cert)[0]
    if not ok or len(set(cert.colors)) != want:
        return f"{label} {solver}: certificate does not check"
    return None


def load_answers(names) -> dict:
    return {name: [gen.decode_answer(a) for a in gen.read_answers(name)] for name in names}

