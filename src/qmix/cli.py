"""Command-line surface: spectrum | certify | search | batch.

Exit codes: 0 = analysis completed (rule-out verdicts are data, not errors),
1 = usage error, 2 = input error, which includes an eigensolver failure on
the input.  A reader that closes stdout early is not an error: the command
stops writing and exits 0.  Output is deterministic JSON; batch mode prints
one JSON document per graph followed by an aggregate, and its output is
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path

from .certificates import certify_graph, collect_facts
from .graphs import GraphFormatError, MatrixKind, WeightedGraph, parse_graph6, parse_weighted_edgelist
from .report import (SCHEMA_VERSION, certificate_report_dict, graph_summary, mixing_report_dict,
                     periodicity_summary, render_json, report_header, spectrum_summary)
from .search import GridError, scan_local, scan_uniform
from .spectral import SpectralError, decompose_graph, decompose_graphs
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_MATRIX = {"adjacency": MatrixKind.ADJACENCY,
           "laplacian": MatrixKind.LAPLACIAN,
           "signless": MatrixKind.SIGNLESS_LAPLACIAN}


_LINES_PER_WRITE = 128  # most graphs per batch chunk; lines per write to stdout


class _UsageError(Exception):
    pass


class _OutputError(Exception):
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
    graph_file = "graph file (.g6 graph6, .wel weighted edge list)"

    p = sub.add_parser("spectrum", parents=[analysis],
                       help="eigenvalues, classification, periodicity")
    p.add_argument("input", help=graph_file)

    p = sub.add_parser("certify", parents=[analysis],
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

    p = sub.add_parser("batch", parents=[analysis],
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


def _spectrum(args, g, kind, dec, tol) -> dict:
    return {"matrix": args.matrix, "graph": graph_summary(g),
            "spectrum": spectrum_summary(dec, tol), "periodicity": periodicity_summary(dec, tol)}


def _certify(args, g, kind, dec, tol) -> dict:
    # the facts, and the signed pool among them, go when this returns
    facts = collect_facts(g, dec, kind, tol)
    report = certify_graph(g, dec, kind, tol, facts)
    return {"graph": graph_summary(g, facts),
            "certificates": certificate_report_dict(report, only_vertex=args.vertex)}


def _search(args, g, kind, dec, tol) -> dict:
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
            raise _OutputError(f"cannot write CSV: {exc}") from None
    return {"matrix": args.matrix, "graph": graph_summary(g), "mixing": mixing_report_dict(report)}


# the sections of each single-graph command, after the header and "command"
_SECTIONS = {"spectrum": _spectrum, "certify": _certify, "search": _search}


def _cmd_graph(args) -> int:
    """One graph file to one JSON document: load, check --vertex,
    decompose, then the command's sections."""
    tol = _tolerances(args)
    g = _load_graph(args.input)
    vertex = getattr(args, "vertex", None)  # spectrum has no --vertex
    if vertex is not None and not 0 <= vertex < g.n:
        raise GraphFormatError(f"vertex {vertex} out of range for n={g.n}")
    kind = _MATRIX[args.matrix]
    dec = decompose_graph(g, kind, tol)
    doc = report_header(tol)
    doc["command"] = args.command
    doc.update(_SECTIONS[args.command](args, g, kind, dec, tol))
    print(render_json(doc))
    return 0


def _batch_chunks(directory: str):
    """(file, [(line number, graph6 line), ...]) per chunk of at most
    _LINES_PER_WRITE graphs, file by file, in file order.  A file is read
    whole before its first chunk; a .g6 entry that is not readable UTF-8
    text gives the one chunk (file, [(0, reason)])."""
    root = Path(directory)
    if not root.is_dir():
        raise GraphFormatError(f"{directory}: not a directory")
    for path in sorted(root.glob("*.g6")):
        try:
            text = _read_text(path)
        except GraphFormatError as exc:
            yield str(path), [(0, str(exc))]
            continue
        chunk = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                chunk.append((lineno, line.strip()))
                if len(chunk) == _LINES_PER_WRITE:
                    yield str(path), chunk
                    chunk = []
        if chunk:
            yield str(path), chunk


def _batch_chunk(task) -> list[dict]:
    """The entries of one chunk, in line order.  Its graphs are decomposed
    in stacks (`decompose_graphs`), and each is certified as its stack
    comes back."""
    path, lines, kind, tol = task
    entries = [{"file": path, "line": lineno} for lineno, _ in lines]
    graphs, parsed = [], []
    for entry, (lineno, line) in zip(entries, lines):
        try:
            if lineno == 0:  # the file could not be read, and line is the reason
                raise GraphFormatError(line)
            graphs.append(parse_graph6(line))
            parsed.append(entry)
        except ValueError as exc:  # GraphFormatError among them
            entry["error"] = str(exc)
    for i, dec in decompose_graphs(graphs, kind, tol):
        entry, g = parsed[i], graphs[i]
        try:
            if isinstance(dec, SpectralError):
                raise dec
            report = certify_graph(g, dec, kind, tol)
            entry["n"] = g.n
            entry["edge_count"] = g.edge_count
            entry["graph_ruled_out"] = report.graph_ruled_out
            entry["surviving_vertices"] = report.surviving_vertices
            entry["fired_rules"] = report.fired_rule_ids
            entry["twin_search_truncated"] = report.twin_search_truncated
            entry["signed_enumeration_truncated"] = report.signed_enumeration_truncated
        except (ValueError, SpectralError) as exc:
            entry["error"] = str(exc)
        # the graph and its caches go now, and the stack before the next is built
        graphs[i] = g = dec = None
    return entries


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    shared = (_MATRIX[args.matrix], _tolerances(args))
    tasks = ((path, lines, *shared) for path, lines in _batch_chunks(args.input))
    # a pool starts all of its workers at once, so never more than can be busy
    ahead = list(islice(tasks, min(args.jobs, os.cpu_count() or 1)))
    workers = len(ahead)
    tasks = chain(ahead, tasks)
    if workers <= 1:
        _write_batch(map(_batch_chunk, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up time; only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # pool.map submits all it is given at once, so it is given two
            # chunks per worker at a time
            windows = iter(lambda: list(islice(tasks, 2 * workers)), [])
            _write_batch(chunk for window in windows for chunk in pool.map(_batch_chunk, window))
    return 0


def _write_batch(chunks) -> None:
    """Print the entries of each chunk in order as the chunks come, then
    their aggregate: a write whenever _LINES_PER_WRITE lines are pending,
    so each write is of a bounded size."""
    rule_counts: dict[str, int] = {}
    graphs = errors = ruled_out = 0
    lines = []
    for chunk in chunks:
        for entry in chunk:
            graphs += 1
            if "error" in entry:
                errors += 1
            else:
                ruled_out += entry["graph_ruled_out"]
                for rule in entry["fired_rules"]:
                    rule_counts[rule] = rule_counts.get(rule, 0) + 1
            lines.append(render_json(entry, 0, " ") + "\n")
        if len(lines) >= _LINES_PER_WRITE:
            sys.stdout.write("".join(lines))
            lines = []
    aggregate = {
        "schema": SCHEMA_VERSION,
        "aggregate": {
            "graphs": graphs,
            "errors": errors,
            "ruled_out": ruled_out,
            "survivors": graphs - errors - ruled_out,
            "rule_counts": {k: rule_counts[k] for k in sorted(rule_counts)},
        },
    }
    sys.stdout.write("".join(lines) + render_json(aggregate) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = (_cmd_batch if args.command == "batch" else _cmd_graph)(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`qmix batch DIR | head -n 1`), which is
        # not an error: later writes, including the flush at exit, go nowhere
        _stdout_to_devnull()
        return 0
    except _UsageError as exc:
        print(f"qmix: usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, SpectralError) as exc:
        print(f"qmix: input error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"qmix: {exc}", file=sys.stderr)
        return 2


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file, as under a capture
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
