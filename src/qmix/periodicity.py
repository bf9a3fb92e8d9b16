"""Periodicity of vertices and vectors: the ratio condition on eigenvalue
supports, period estimation from recognized integer or quadratic-surd
spectra, support-type classification for integer matrices, and the
real-target shortcut that certifies periodicity at twice a mixing time.

Whether a vertex is periodic depends only on its eigenvalue support, so
`vertex_periodicity` decides each distinct support once.  Period hints come
only from exactly recognized spectra (gcds of integers); a ratio condition
met only by rational reconstruction (`RatioMode.RATIONAL_RECONSTRUCTION`) is
heuristic and never produces a numeric period claim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import MatrixKind, WeightClass
from .spectral import (EigenvalueSupport, SpectralDecomposition, SpectrumClassification,
                       SpectrumKind, classify_spectrum, vertex_support)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .walk import TargetStateCandidate, _propagator


class RatioMode(enum.Enum):
    INTEGER_SPECTRUM = "integer-spectrum"
    QUADRATIC_SURD = "quadratic-surd"
    RATIONAL_RECONSTRUCTION = "rational-reconstruction"  # heuristic
    FAILED = "failed"


@dataclass(frozen=True)
class RatioConditionResult:
    satisfied: bool
    mode: RatioMode
    witness: tuple[float, float, float, float] | None = None


def rational_reconstruct(x: float,
                         max_den: int = Tolerances.rational_den_max) -> Fraction | None:
    """Continued-fraction reconstruction of a float that is plausibly a
    rational with denominator <= max_den; None when no convergent snaps."""
    if not math.isfinite(x):
        return None
    frac = Fraction(x).limit_denominator(max_den)
    # a genuine rational computed in floats sits within rounding error of
    # its convergent; irrationals with bounded partial quotients do not
    if abs(float(frac) - x) <= 1e-9 / max(1, frac.denominator):
        return frac
    return None


def ratio_condition(eigenvalues, classification: SpectrumClassification,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> RatioConditionResult:
    """Are all difference ratios of the given eigenvalues rational?

    Exact for recognized integer or single-surd spectra.  Otherwise every
    pairwise difference is compared against one base difference by rational
    reconstruction; success there is heuristic (mode RATIONAL_RECONSTRUCTION),
    and a failing quadruple is returned as the witness.
    """
    values = [float(x) for x in eigenvalues]
    if classification.kind is SpectrumKind.ALL_INTEGER:
        return RatioConditionResult(True, RatioMode.INTEGER_SPECTRUM)
    if classification.kind is SpectrumKind.QUADRATIC_SURD:
        # differences are (b_i - b_j) * sqrt(delta) / 2, so ratios are rational
        return RatioConditionResult(True, RatioMode.QUADRATIC_SURD)
    if len(values) <= 2:  # with at most one distinct difference the condition is vacuous
        return RatioConditionResult(True, RatioMode.RATIONAL_RECONSTRUCTION)
    lo, hi = min(values), max(values)
    base = hi - lo
    for i, a in enumerate(values):
        for b in values[:i]:
            if rational_reconstruct((a - b) / base, tol.rational_den_max) is None:
                return RatioConditionResult(False, RatioMode.FAILED, witness=(a, b, hi, lo))
    return RatioConditionResult(True, RatioMode.RATIONAL_RECONSTRUCTION)


class PeriodicityStatus(enum.Enum):
    PERIODIC = "periodic"
    NOT_PERIODIC = "not-periodic"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PeriodicityVerdict:
    status: PeriodicityStatus
    period_hint: float | None = None
    overlap: float | None = None  # |<e_u, U(hint) e_u>| at the hint


def _period_hint(classification: SpectrumClassification, values: list[float]) -> float | None:
    # one eigenvalue: periodic at every time; two: at their difference; an
    # empty support is irregular, so it gives no hint.  The caller keeps
    # only a finite, positive hint
    if 1 <= len(values) <= 2:
        return 1.0 if len(values) == 1 else 2.0 * math.pi / (max(values) - min(values))
    if classification.kind is SpectrumKind.ALL_INTEGER:
        ints, unit = [round(x) for x in values], 1.0
    elif classification.kind is SpectrumKind.QUADRATIC_SURD:  # gaps (b_i - b_j) sqrt(delta) / 2
        ints, unit = [b for _, b in classification.pairs], math.sqrt(classification.delta) / 2.0
    else:
        return None  # irregular: a ratio condition met only by rational reconstruction
    g = math.gcd(*(x - ints[0] for x in ints))
    return 2.0 * math.pi / (g * unit) if g else None


def vertex_periodicity(dec: SpectralDecomposition,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> list[PeriodicityVerdict]:
    """The verdict of every vertex, as `is_periodic_vertex` gives it, from
    one decision per distinct eigenvalue support."""
    decisions: dict[tuple[int, ...], PeriodicityVerdict] = {}
    out = []
    for u in range(dec.n):
        supp = vertex_support(dec, u, tol)
        if supp.indices not in decisions:
            decisions[supp.indices] = _support_decision(dec, supp, tol)
        out.append(_verdict_at(dec, u, decisions[supp.indices]))
    return out


def is_periodic_vertex(dec: SpectralDecomposition, u: int,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> PeriodicityVerdict:
    """Decide periodicity of vertex u from the ratio condition on its
    eigenvalue support, and a period hint where one exists, verified at u."""
    return _verdict_at(dec, u, _support_decision(dec, vertex_support(dec, u, tol), tol))


def _support_decision(dec: SpectralDecomposition, supp: EigenvalueSupport,
                      tol: Tolerances) -> PeriodicityVerdict:
    """What a support decides for all its vertices: not periodic, or
    unknown with the period hint that each vertex checks at its overlap."""
    classification = classify_spectrum(dec, restrict_to=supp, tol=tol)
    values = list(supp.eigenvalues)
    if not ratio_condition(values, classification, tol).satisfied:
        return PeriodicityVerdict(PeriodicityStatus.NOT_PERIODIC)
    hint = _period_hint(classification, values)
    if hint is not None and not 0.0 < hint < math.inf:
        hint = None  # a gap that overflows to inf gives 0, where U(0) = I passes any check
    return PeriodicityVerdict(PeriodicityStatus.UNKNOWN, hint)


def _verdict_at(dec: SpectralDecomposition, u: int,
                decision: PeriodicityVerdict) -> PeriodicityVerdict:
    """A support's decision at u: a hint holds where |<e_u, U(hint) e_u>| = 1."""
    hint = decision.period_hint
    if hint is None:
        return decision
    overlap = abs(complex(_propagator(dec, [hint], u)[0, u]))
    status = PeriodicityStatus.PERIODIC if overlap > 1.0 - 1e-9 else PeriodicityStatus.UNKNOWN
    return PeriodicityVerdict(status, hint, overlap)


class SupportBranch(enum.Enum):
    INTEGER = "integer"
    SURD_PAIR = "surd-pair"
    UNRECOGNIZED = "unrecognized"


@dataclass(frozen=True)
class PeriodicSupportReport:
    branch: SupportBranch
    closed_under_negation: bool | None
    delta: int | None
    applicable: bool
    consistency_error: str | None = None


def classify_periodic_support(dec: SpectralDecomposition, u: int, kind: MatrixKind,
                              weight_class: WeightClass,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> PeriodicSupportReport:
    """Classify the support of e_u for integer matrices: either all integers,
    or surd pairs +-b sqrt(delta) closed under negation.  For the Laplacians
    the surd branch is impossible (positive semidefinite spectrum), so seeing
    it is reported as an internal consistency error."""
    if weight_class is WeightClass.REAL:
        return PeriodicSupportReport(branch=SupportBranch.UNRECOGNIZED,
                                     closed_under_negation=None, delta=None,
                                     applicable=False,
                                     consistency_error="integer weights required")
    supp = vertex_support(dec, u, tol)
    values = list(supp.eigenvalues)
    cls = classify_spectrum(dec, restrict_to=supp, tol=tol)
    applicable = len(values) >= 3
    if cls.kind is SpectrumKind.ALL_INTEGER:
        return PeriodicSupportReport(branch=SupportBranch.INTEGER,
                                     closed_under_negation=None, delta=None,
                                     applicable=applicable)
    if cls.kind is SpectrumKind.QUADRATIC_SURD and cls.half_offset == 0:
        closed = _closed_under_negation(values, tol.group(max(abs(v) for v in values)))
        err = None
        if kind is not MatrixKind.ADJACENCY:
            err = ("surd support for a positive-semidefinite matrix; "
                   "eigendecomposition or recognition is inconsistent")
        return PeriodicSupportReport(branch=SupportBranch.SURD_PAIR,
                                     closed_under_negation=closed, delta=cls.delta,
                                     applicable=applicable, consistency_error=err)
    return PeriodicSupportReport(branch=SupportBranch.UNRECOGNIZED,
                                 closed_under_negation=None, delta=None,
                                 applicable=applicable)


def _closed_under_negation(values: list[float], gap: float) -> bool:
    return all(any(abs(v + w) <= max(gap, 1e-9) for w in values) for v in values)


@dataclass(frozen=True)
class RealTargetPeriodReport:
    applicable: bool
    periodic: bool | None
    period: float | None
    overlap: float | None
    note: str


def check_real_target_period(dec: SpectralDecomposition, u: int, t_star: float,
                             mu: TargetStateCandidate,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> RealTargetPeriodReport:
    """When a recovered target state is a unimodular multiple of a real
    vector, the mixing vertex must be periodic at twice the mixing time;
    verify that numerically.  States that are not phase-rotations of a real
    vector (the path-on-three-vertices pattern) are reported not applicable.
    """
    entries = mu.entries
    square_sum = complex((entries * entries).sum())
    if abs(square_sum) < len(entries) / 2.0:
        rotated = entries * np.exp(-1j * mu.phases[0])
    else:
        # the rotation bringing the state closest to a real vector
        rotated = entries * np.exp(-0.5j * np.angle(square_sum))
    if float(np.abs(rotated.imag).max()) > 1e-8:
        return RealTargetPeriodReport(
            applicable=False, periodic=None, period=None, overlap=None,
            note="target state is not a unimodular multiple of a real vector, "
                 "so no period at twice the mixing time is implied")
    period = 2.0 * t_star
    overlap = abs(complex(_propagator(dec, [period], u)[0, u]))
    return RealTargetPeriodReport(
        applicable=True, periodic=bool(overlap > 1.0 - 1e-8), period=period,
        overlap=overlap, note="real target state: vertex must return at twice the mixing time")
