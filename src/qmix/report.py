"""Deterministic report assembly and JSON rendering.

Reports are plain nested dicts with a fixed field order, rendered by a small
serializer that writes floats at 15 significant digits, so identical inputs
and flags always produce byte-identical output.  Every report embeds the
schema version, the tool version and the full tolerance configuration.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

import numpy as np

from . import __version__
from .certificates import CertificateReport, CertificateVerdict, GraphFacts
from .graphs import WeightedGraph, bipartition, degree_stats, has_c5, is_connected
from .periodicity import vertex_periodicity
from .search import Detection, MixingReport
from .spectral import SpectralDecomposition, SpectrumClassification, classify_spectrum
from .tolerances import Tolerances

SCHEMA_VERSION = 1


def render_json(obj, indent: int = 2, newline: str = "\n") -> str:
    """Serialize nested dict/list data with fixed float formatting.  `batch`
    prints each entry on one line as render_json(entry, 0, " ")."""
    pieces: list[str] = []
    _render(obj, pieces, indent, 0, newline)
    return "".join(pieces)


def _render(obj, out: list[str], indent: int, level: int, newline: str) -> None:
    kind = type(obj)
    if kind is str:  # the commonest leaves first; bool is not int by type
        out.append(_escape(obj))
    elif kind is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, enum.Enum):
        _render(obj.value, out, indent, level, newline)
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in report")
        text = format(value, ".15g")
        out.append(text)
    elif isinstance(obj, Fraction):
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, complex):
        _render({"re": obj.real, "im": obj.imag}, out, indent, level, newline)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + " " * (indent * (level + 1))
        out.append("{")
        for key, value in obj.items():
            out.append(inner + _escape(str(key)) + ": ")
            _render(value, out, indent, level + 1, newline)
            out.append(",")
        out[-1] = newline + " " * (indent * level) + "}"  # the last comma
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        inner = newline + " " * (indent * (level + 1))
        out.append("[")
        for value in items:
            out.append(inner)
            _render(value, out, indent, level + 1, newline)
            out.append(",")
        out[-1] = newline + " " * (indent * level) + "]"  # the last comma
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# JSON string escapes: the five short forms, and \u00XX for every other
# code point below 0x20; everything else is written as it is.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n",
                 ord("\r"): "\\r", ord("\t"): "\\t"})


@functools.lru_cache(maxsize=4096)  # file names and rule ids repeat in every batch entry
def _escape(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def report_header(tol: Tolerances) -> dict:
    return {"schema": SCHEMA_VERSION, "tool": "qmix", "version": __version__,
            "tolerances": tol.as_dict()}


def graph_summary(g: WeightedGraph, facts: GraphFacts | None = None) -> dict:
    """The structure of g; certificate facts of g, when given, supply the
    degree statistics and bipartition they already hold."""
    if facts is None:
        stats, bip = degree_stats(g), bipartition(g)
    else:
        stats, bip = facts.stats, facts.bip
    connected = is_connected(g)
    return {
        "n": g.n,
        "edge_count": g.edge_count,
        "weight_class": g.weight_class.value,
        "connected": connected,
        "degrees": list(stats.deg),
        "average_degree": stats.avg_degree,
        "max_degree": stats.max_degree,
        "dist2_pairs": stats.dist2_pairs,
        "bipartite": bip.present,
        "parts": {"b1": list(bip.b1), "b2": list(bip.b2)} if bip.present else None,
        "cyclomatic_index": g.edge_count - g.n + 1 if connected else None,
        "has_triangle": stats.has_triangle,
        "has_c4": stats.has_c4,
        "has_c5": has_c5(g),
    }


def classification_dict(cls: SpectrumClassification) -> dict:
    return {"kind": cls.kind.value, "delta": cls.delta, "half_offset": cls.half_offset}


def spectrum_summary(dec: SpectralDecomposition, tol: Tolerances) -> dict:
    cls = classify_spectrum(dec, tol=tol)
    return {
        "distinct_eigenvalues": [float(x) for x in dec.eigenvalues],
        "multiplicities": list(dec.multiplicities),
        "classification": classification_dict(cls),
    }


def periodicity_summary(dec: SpectralDecomposition, tol: Tolerances) -> list[dict]:
    return [{"vertex": u, "status": v.status.value, "period_hint": v.period_hint,
             "overlap": v.overlap} for u, v in enumerate(vertex_periodicity(dec, tol))]


def verdict_dict(v: CertificateVerdict) -> dict:
    witness = {}
    for key, value in v.witness:
        if value is None:
            continue
        witness[key] = value
    return {
        "rule": v.rule_id,
        "tier": "strict",  # every rule is strict; kept so schema 1 and its bytes stay
        "verdict": v.verdict.value,
        "scope": {"kind": v.scope[0], "vertex": v.scope[1]},
        "witness": witness,
    }


def certificate_report_dict(report: CertificateReport, only_vertex: int | None = None) -> dict:
    vertices = []
    for u, verdicts in report.vertex_verdicts:
        if only_vertex is not None and u != only_vertex:
            continue
        vertices.append({"vertex": u, "verdicts": [verdict_dict(v) for v in verdicts]})
    return {
        "matrix": report.kind.value,
        "tier": "strict",  # as in verdict_dict
        "graph_ruled_out": report.graph_ruled_out,
        "surviving_vertices": list(report.surviving_vertices),
        "fired_rules": report.fired_rules(),
        "graph_verdicts": [verdict_dict(v) for v in report.graph_verdicts],
        "vertex_verdicts": vertices,
        "twin_search_truncated": report.twin_search_truncated,
        "signed_enumeration_truncated": report.signed_enumeration_truncated,
    }


def detection_dict(d: Detection) -> dict:
    out = {
        "time": d.time,
        "deviation": d.delta,
        "kind": d.kind,
        "target_state_phases": list(d.target_state.phases),
    }
    if d.hadamard is not None:
        out["hadamard"] = {
            "kind": d.hadamard.kind.value,
            "butson_order": d.hadamard.butson_order,
            "dephased": d.hadamard.dephased,
            "max_defect": d.hadamard.max_defect,
        }
    return out


def mixing_report_dict(report: MixingReport) -> dict:
    return {
        "target": {"kind": report.target[0], "vertex": report.target[1]},
        "t_max": report.t_max,
        "step": report.step,
        "empirical_inf": report.empirical_inf,
        "minima": [{"time": t, "deviation": d} for t, d in report.minima],
        "detections": [detection_dict(d) for d in report.detections],
    }
