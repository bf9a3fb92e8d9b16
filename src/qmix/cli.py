"""Command-line surface: spectrum | certify | search | batch.

Exit codes: 0 = analysis completed (rule-out verdicts are data, not errors),
1 = usage error, 2 = input error, which includes an eigensolver failure on
the input.  Output is deterministic JSON; batch mode streams one JSON
document per graph followed by an aggregate, and its output is
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .certificates import CertifyOptions, Tier, certify_graph, collect_facts
from .graphs import GraphFormatError, MatrixKind, WeightedGraph, parse_graph6, parse_weighted_edgelist
from .report import (certificate_report_dict, graph_summary, mixing_report_dict,
                     periodicity_summary, render_json, report_header, spectrum_summary)
from .search import GridError, scan_local, scan_uniform
from .spectral import SpectralError, decompose_graph
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_MATRIX = {"adjacency": MatrixKind.ADJACENCY,
           "laplacian": MatrixKind.LAPLACIAN,
           "signless": MatrixKind.SIGNLESS_LAPLACIAN}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analysis = _Parser(add_help=False)  # flags of every command
    analysis.add_argument("--matrix", choices=sorted(_MATRIX), default="adjacency")
    analysis.add_argument("--tol-group", type=_positive_float, default=None,
                          help="eigenvalue grouping scale override")
    analysis.add_argument("--tol-supp", type=_positive_float, default=None,
                          help="support membership threshold override")
    analysis.add_argument("--tol-detect", type=_positive_float, default=None,
                          help="mixing detection threshold override")
    certifying = _Parser(add_help=False)  # flags of certify and batch
    certifying.add_argument("--tier", choices=["strict", "paper"], default="strict")
    certifying.add_argument("--assert-planar", action="store_true",
                            help="enable planar-family bounds (planarity is asserted, never tested)")
    graph_file = "graph file (.g6 graph6, .wel weighted edge list)"

    p = sub.add_parser("spectrum", parents=[analysis],
                       help="eigenvalues, classification, periodicity")
    p.add_argument("input", help=graph_file)

    p = sub.add_parser("certify", parents=[analysis, certifying],
                       help="run the rule-out certificates")
    p.add_argument("input", help=graph_file)
    p.add_argument("--vertex", type=int, default=None)

    p = sub.add_parser("search", parents=[analysis], help="scan for (local) uniform mixing")
    p.add_argument("input", help=graph_file)
    p.add_argument("--vertex", type=int, default=None,
                   help="scan one column; omit for the graph-wide scan")
    p.add_argument("--tmax", type=_positive_float, default=10.0)
    p.add_argument("--step", type=_positive_float, default=None)
    p.add_argument("--csv", type=str, default=None,
                   help="write the grid profile as CSV 't,delta'")

    p = sub.add_parser("batch", parents=[analysis, certifying],
                       help="certify every graph6 line under a directory")
    p.add_argument("input", help="directory of .g6 files")
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _tolerances(args) -> Tolerances:
    overrides = {}
    if args.tol_group is not None:
        overrides["group_scale"] = args.tol_group
    if args.tol_supp is not None:
        overrides["supp"] = args.tol_supp
    if args.tol_detect is not None:
        overrides["detect"] = args.tol_detect
    return replace(DEFAULT_TOLERANCES, **overrides) if overrides else DEFAULT_TOLERANCES


def _read_text(path: Path) -> str:
    """The UTF-8 text of a file; an unreadable or undecodable file is an
    input error that names the path."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def _load_graph(path: str) -> WeightedGraph:
    p = Path(path)
    text = _read_text(p)
    suffix = p.suffix.lower()
    try:
        if suffix == ".g6":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if not lines:
                raise GraphFormatError("no graph6 lines in file")
            return parse_graph6(lines[0])
        if suffix == ".wel":
            return parse_weighted_edgelist(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    raise GraphFormatError(f"{path}: unknown input format (expected .g6 or .wel)")


def _cmd_spectrum(args) -> int:
    tol = _tolerances(args)
    g = _load_graph(args.input)
    dec = decompose_graph(g, _MATRIX[args.matrix], tol)
    doc = report_header(tol)
    doc["command"] = "spectrum"
    doc["matrix"] = args.matrix
    doc["graph"] = graph_summary(g)
    doc["spectrum"] = spectrum_summary(dec, tol)
    doc["periodicity"] = periodicity_summary(dec, tol)
    print(render_json(doc))
    return 0


def _certify_options(args) -> CertifyOptions:
    return CertifyOptions(
        tier=Tier.PAPER_ASSERTED if args.tier == "paper" else Tier.STRICT,
        assert_planar=args.assert_planar)


def _cmd_certify(args) -> int:
    tol = _tolerances(args)
    g = _load_graph(args.input)
    if args.vertex is not None and not 0 <= args.vertex < g.n:
        raise GraphFormatError(f"vertex {args.vertex} out of range for n={g.n}")
    kind = _MATRIX[args.matrix]
    dec = decompose_graph(g, kind, tol)
    facts = collect_facts(g, dec, kind, _certify_options(args), tol)
    report = certify_graph(g, dec, kind, facts.opts, tol, facts)
    doc = report_header(tol)
    doc["command"] = "certify"
    doc["graph"] = graph_summary(g, facts)
    del facts  # frees the signed pool before the report is rendered
    doc["certificates"] = certificate_report_dict(report, only_vertex=args.vertex)
    print(render_json(doc))
    return 0


def _cmd_search(args) -> int:
    tol = _tolerances(args)
    g = _load_graph(args.input)
    if args.vertex is not None and not 0 <= args.vertex < g.n:
        raise GraphFormatError(f"vertex {args.vertex} out of range for n={g.n}")
    kind = _MATRIX[args.matrix]
    dec = decompose_graph(g, kind, tol)
    try:
        if args.vertex is None:
            report = scan_uniform(dec, args.tmax, args.step, tol)
        else:
            report = scan_local(dec, args.vertex, args.tmax, args.step, tol)
    except GridError as exc:
        raise _UsageError(f"--tmax/--step: {exc}") from None
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("t,delta\n")
                for t, d in zip(report.grid, report.profile):
                    fh.write(f"{format(float(t), '.15g')},{format(float(d), '.15g')}\n")
        except OSError as exc:
            print(f"qmix: cannot write CSV: {exc}", file=sys.stderr)
            return 2
    doc = report_header(tol)
    doc["command"] = "search"
    doc["matrix"] = args.matrix
    doc["graph"] = graph_summary(g)
    doc["mixing"] = mixing_report_dict(report)
    print(render_json(doc))
    return 0


def _batch_payloads(directory: str):
    """(file, line number, graph6 line) per graph in file order; a .g6 entry
    that is not readable UTF-8 text gives (file, 0, reason) in its place."""
    root = Path(directory)
    if not root.is_dir():
        raise GraphFormatError(f"{directory}: not a directory")
    payloads = []
    for path in sorted(root.glob("*.g6")):
        try:
            text = _read_text(path)
        except GraphFormatError as exc:
            payloads.append((str(path), 0, str(exc)))
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                payloads.append((str(path), lineno, line.strip()))
    return payloads


def _batch_one(task) -> dict:
    path, lineno, line, kind, opts, tol = task
    entry: dict = {"file": path, "line": lineno}
    try:
        if lineno == 0:  # the file could not be read, and line is the reason
            raise GraphFormatError(line)
        g = parse_graph6(line)
        dec = decompose_graph(g, kind, tol)
        report = certify_graph(g, dec, kind, opts, tol)
        entry["n"] = g.n
        entry["edge_count"] = g.edge_count
        entry["graph_ruled_out"] = report.graph_ruled_out
        entry["surviving_vertices"] = list(report.surviving_vertices)
        entry["fired_rules"] = report.fired_rules()
        entry["twin_search_truncated"] = report.twin_search_truncated
        entry["signed_enumeration_truncated"] = report.signed_enumeration_truncated
    except (GraphFormatError, ValueError, SpectralError) as exc:
        entry["error"] = str(exc)
    return entry


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    payloads = _batch_payloads(args.input)
    shared = (_MATRIX[args.matrix], _certify_options(args), _tolerances(args))
    tasks = [(path, lineno, line, *shared) for path, lineno, line in payloads]
    # a pool starts all of its workers at once, so never more than can be busy
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        entries = [_batch_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_batch_one, tasks))
    rule_counts: dict[str, int] = {}
    errors = 0
    ruled_out = 0
    for entry in entries:
        print(render_json(entry, indent=0).replace("\n", " "))
        if "error" in entry:
            errors += 1
            continue
        if entry["graph_ruled_out"]:
            ruled_out += 1
        for rule in entry["fired_rules"]:
            rule_counts[rule] = rule_counts.get(rule, 0) + 1
    aggregate = {
        "schema": 1,
        "aggregate": {
            "graphs": len(entries),
            "errors": errors,
            "ruled_out": ruled_out,
            "survivors": len(entries) - errors - ruled_out,
            "rule_counts": {k: rule_counts[k] for k in sorted(rule_counts)},
        },
    }
    print(render_json(aggregate))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"qmix: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "batch":
            return _cmd_batch(args)
    except _UsageError as exc:
        print(f"qmix: usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, SpectralError) as exc:
        print(f"qmix: input error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
