"""Command-line front end: verify | color | exact | hunt.

Exit codes: 0 success / valid / no violation, 1 invalid coloring or failed
precondition, 2 unreadable input (parse or size-guard errors), a bad
option or a crashed hunt worker, 4 exact solve ended inexact on budget,
10 conjecture violation found (the counterexample is quarantined first).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .construct import (
    _square_coloring,
    derived_coloring,
    depth_parity_shading,
    partition_coloring,
    product_coloring,
    triangle_free_planar_coloring,
)
from .decompose import arboricity
from .errors import GraphFormatError, GuardError, PreconditionError, WorkerCrashError
from .exact import (
    Budget,
    acyclic_chromatic_exact,
    chromatic_exact,
    chromatic_index_exact,
    find_forest_2independent_partition,
    strong_arboricity_exact,
)
from .graphs import Graph, parse_edge_list, parse_graph6
from .harness import (
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECONDS,
    CONJECTURES,
    HuntConfig,
    parse_config_file,
    run_hunt,
    write_jsonl,
    write_summary_csv,
)
from .verify import (
    EdgeColoring,
    is_p_woody,
    is_strongly_woody,
    is_woody,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INEXACT = 4
EXIT_VIOLATION = 10

_EDGE_LIST_HEADER = re.compile(r"^\s*\d+\s+\d+\s*$")


def load_graph_file(path: str) -> Graph:
    """Read a graph from a file holding either graph6 or an edge list.

    An edge-list file starts with an 'n m' digit header; graph6 bytes are
    all >= chr(63), so the two formats cannot collide. A graph6 file must
    hold exactly one graph.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: empty graph file")
    if _EDGE_LIST_HEADER.match(lines[0]):
        return parse_edge_list(text)
    graphs = [ln.strip() for ln in lines]
    if graphs[0].startswith(">>graph6<<"):
        graphs[0] = graphs[0][len(">>graph6<<"):].strip()
        if not graphs[0]:
            del graphs[0]
    if len(graphs) != 1:
        raise GraphFormatError(f"{path}: holds {len(graphs)} graphs, expected one")
    return parse_graph6(graphs[0])


def load_coloring_file(path: str, g: Graph) -> EdgeColoring:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    try:
        colors = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    try:
        return EdgeColoring(g, colors)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def write_coloring_file(path: str, coloring) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(str(c) for c in coloring.colors))
        fh.write("\n")


def _budget_from_args(args) -> Budget:
    nodes = args.budget_nodes if args.budget_nodes is not None else DEFAULT_BUDGET_NODES
    secs = args.budget_secs if args.budget_secs is not None else DEFAULT_BUDGET_SECONDS
    return Budget(nodes, secs)


def cmd_verify(args) -> int:
    g = load_graph_file(args.graph)
    coloring = load_coloring_file(args.coloring, g)
    if args.mode == "woody":
        ok, witness = is_woody(coloring)
    elif args.mode == "strong":
        ok, witness = is_strongly_woody(coloring)
    else:
        if args.p is None:
            print("p-woody mode needs --p", file=sys.stderr)
            return EXIT_PARSE
        ok = is_p_woody(coloring, args.p, force=args.force)
        witness = None
    if ok:
        # counts reported in normalized form; verification accepted raw colors
        print(f"valid: {args.mode} coloring with palette "
              f"{coloring.normalized().palette_size}")
        return EXIT_OK
    print(f"invalid: {args.mode} coloring violated")
    if witness is not None:
        print(json.dumps(witness.to_json(), sort_keys=True))
    return EXIT_INVALID


def _palette(coloring) -> int:
    return coloring.normalized().palette_size


def _color_acyclic(g: Graph, budget: Budget):
    res = acyclic_chromatic_exact(g, budget)
    if not res.exact:
        raise PreconditionError(
            f"acyclic chromatic solve inexact (bounds {res.lower}..{res.upper})")
    coloring = derived_coloring(g, res.certificate, res.value)
    return coloring, f"palette {_palette(coloring)} <= acyclic chromatic number {res.value}"


def _color_parity(g: Graph, budget: Budget):
    coloring = triangle_free_planar_coloring(g)
    return coloring, f"palette {_palette(coloring)} <= 4 (two shaded forests)"


def _color_partition(g: Graph, budget: Budget):
    search = find_forest_2independent_partition(g, budget)
    if not search.found:
        kind = "no partition exists" if search.exact else "budget exhausted"
        raise PreconditionError(f"forest / 2-independent partition not found: {kind}")
    coloring = partition_coloring(g, search.a, search.f)
    return coloring, "palette 2 (forest + star forest)"


def _color_product(g: Graph, budget: Budget):
    chi_res = chromatic_exact(g, budget)
    if not chi_res.exact:
        raise PreconditionError(
            f"chromatic solve inexact (bounds {chi_res.lower}..{chi_res.upper})")
    ell, decomp = arboricity(g)
    derived = derived_coloring(g, chi_res.certificate, chi_res.value)
    shaded = depth_parity_shading(decomp)
    coloring = product_coloring(g, derived, shaded)
    ok, witness = is_strongly_woody(coloring)
    if not ok:
        raise AssertionError(f"product pipeline failed verification: {witness}")
    return coloring, (
        f"palette {_palette(coloring)} <= 2 * chi * arb = {2 * chi_res.value * ell}")


def _color_square(g: Graph, budget: Budget):
    ell, coloring = _square_coloring(g)
    return coloring, f"palette {_palette(coloring)} <= 4 * arb^2 = {4 * ell * ell}"


_COLOR_METHODS = {
    "acyclic": _color_acyclic,
    "parity": _color_parity,
    "partition": _color_partition,
    "product": _color_product,
    "square": _color_square,
}


def cmd_color(args) -> int:
    g = load_graph_file(args.graph)
    budget = _budget_from_args(args)
    try:
        coloring, summary = _COLOR_METHODS[args.method](g, budget)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            cert = exc.certificate
            payload = cert.to_json() if hasattr(cert, "to_json") else cert
            print(json.dumps(payload, sort_keys=True, default=str), file=sys.stderr)
        return EXIT_INVALID
    ok, witness = is_strongly_woody(coloring)
    if not ok:
        raise AssertionError(f"emitted coloring failed re-verification: {witness}")
    out = args.output or (args.graph + ".coloring")
    write_coloring_file(out, coloring)
    print(f"wrote {out}: {summary}")
    return EXIT_OK


_EXACT_PARAMS = {
    "strong-arb": strong_arboricity_exact,
    "acyclic-chromatic": acyclic_chromatic_exact,
    "chromatic": chromatic_exact,
    "chromatic-index": chromatic_index_exact,
}


def cmd_exact(args) -> int:
    g = load_graph_file(args.graph)
    budget = _budget_from_args(args)
    res = _EXACT_PARAMS[args.param](g, budget)
    if res.exact:
        print(f"{args.param} = {res.value} "
              f"(nodes {res.nodes}, {res.seconds:.3f}s)")
        out = args.output or (args.graph + f".{args.param}.cert")
        write_coloring_file(out, res.certificate)
        print(f"certificate written to {out}")
        return EXIT_OK
    print(f"{args.param} inexact: bounds [{res.lower}, {res.upper}] "
          f"(nodes {res.nodes}, {res.seconds:.3f}s)")
    return EXIT_INEXACT


def cmd_hunt(args) -> int:
    conjectures = tuple(args.conjectures.split(",")) if args.conjectures else \
        ("twoarb", "col", "girth-eq")
    for name in conjectures:
        if name not in CONJECTURES:
            print(f"unknown conjecture {name!r}; choose from {', '.join(CONJECTURES)}",
                  file=sys.stderr)
            return EXIT_PARSE
    budget = _budget_from_args(args)
    config = HuntConfig(
        conjectures=conjectures,
        budget_nodes=budget.max_nodes,
        budget_seconds=budget.max_seconds,
        strict=args.strict,
        timings=args.timings,
        with_chi=args.with_chi,
        provenance=args.provenance or "",
        seed=args.seed or 0,
    )
    try:
        outcome = run_hunt(args.corpus, config,
                           jobs=1 if args.jobs is None else args.jobs)
    except GraphFormatError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WorkerCrashError as exc:
        print(f"hunt aborted: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with open(args.report, "w", encoding="ascii") as fh:
        write_jsonl(outcome.records, fh)
    with open(args.summary, "w", encoding="ascii", newline="") as fh:
        write_summary_csv(outcome.summary, fh)
    print(f"report: {args.report} ({len(outcome.records)} records)")
    print(f"summary: {args.summary}")
    if outcome.violations:
        with open(args.quarantine, "w", encoding="ascii") as fh:
            write_jsonl(outcome.violations, fh)
        print(f"CONJECTURE VIOLATION: {len(outcome.violations)} certificate(s) "
              f"written to {args.quarantine}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


_CONFIG_KEYS = {
    "budget_nodes": int,
    "budget_secs": float,
    "jobs": int,
    "strict": _flag,
    "timings": _flag,
    "with_chi": _flag,
    "p": int,
    "method": str,
    "conjectures": str,
    "provenance": str,
    "seed": int,
}


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    values = parse_config_file(args.config)
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        # unset flags are None or False; a flag given as 0 still wins
        value = getattr(args, key, None)
        if value is None or value is False:
            setattr(args, key, _CONFIG_KEYS[key](raw))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woody",
        description="Compute, construct, and verify strongly woody edge colorings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--budget-nodes", type=int, default=None, dest="budget_nodes",
                       help=f"search nodes per solver call (default {DEFAULT_BUDGET_NODES})")
        p.add_argument("--budget-secs", type=float, default=None, dest="budget_secs",
                       help=f"seconds per solver call (default {DEFAULT_BUDGET_SECONDS:g})")
        p.add_argument("--config", default=None, help="key=value file merged under flags")

    p_verify = sub.add_parser("verify", help="check a coloring file against a graph")
    p_verify.add_argument("graph")
    p_verify.add_argument("coloring")
    p_verify.add_argument("--mode", choices=["woody", "strong", "p-woody"],
                          default="strong")
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--force", action="store_true",
                          help="override the cycle-enumeration size guard")
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_color = sub.add_parser("color", help="construct a strongly woody coloring")
    p_color.add_argument("graph")
    p_color.add_argument("--method", choices=sorted(_COLOR_METHODS), default=None)
    p_color.add_argument("-o", "--output", default=None)
    add_common(p_color)
    p_color.set_defaults(func=cmd_color)

    p_exact = sub.add_parser("exact", help="run an exact solver")
    p_exact.add_argument("graph")
    p_exact.add_argument("--param", choices=sorted(_EXACT_PARAMS), required=True)
    p_exact.add_argument("-o", "--output", default=None)
    add_common(p_exact)
    p_exact.set_defaults(func=cmd_exact)

    p_hunt = sub.add_parser("hunt", help="batch conjecture hunt over graph6 corpora")
    p_hunt.add_argument("corpus", nargs="+")
    p_hunt.add_argument("--conjectures", default=None,
                        help=f"comma list from: {', '.join(CONJECTURES)}")
    p_hunt.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default 1, at least 1); graphs go "
                             "to workers in chunks of at most 32, in corpus order, "
                             "and no more workers start than there are chunks; a "
                             "violation stop waits only for the chunks already "
                             "running; a crashed worker exits 2 naming the first "
                             "graph without a record")
    p_hunt.add_argument("--strict", action="store_true")
    p_hunt.add_argument("--timings", action="store_true",
                        help="include per-stage milliseconds in records "
                             "(breaks byte-for-byte report determinism)")
    p_hunt.add_argument("--with-chi", action="store_true", dest="with_chi")
    p_hunt.add_argument("--provenance", default=None,
                        help="generator name / declared class, recorded verbatim")
    p_hunt.add_argument("--seed", type=int, default=None)
    p_hunt.add_argument("--report", default="hunt_report.jsonl")
    p_hunt.add_argument("--summary", default="hunt_summary.csv")
    p_hunt.add_argument("--quarantine", default="quarantine.jsonl")
    add_common(p_hunt)
    p_hunt.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if args.command == "color" and args.method is None:
            print("color needs --method (flag or config)", file=sys.stderr)
            return EXIT_PARSE
        return args.func(args)
    except (GraphFormatError, GuardError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
