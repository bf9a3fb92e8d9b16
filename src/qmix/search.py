"""Numerical search over time for local and graph-wide uniform mixing.

A deviation profile is sampled on a uniform grid, every bracketed local
minimum is refined by golden-section search, and minima below the detection
threshold are reported together with the recovered target state (and, for
graph-wide scans, the Hadamard classification of sqrt(n) U(t)).  The grid
step is tied to the spectral radius so the trigonometric deviation cannot
oscillate between grid points.

The empirical infimum never claims anything about the true infimum of the
deviation: mixing in the limit is only ever "not ruled out" by these scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralDecomposition
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .walk import (HadamardClass, TargetStateCandidate, _propagator, deviation_profile,
                   hadamard_classify, matrix_uniform_deviation, mixing_deviation,
                   transition_matrix)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

MAX_GRID_POINTS = 10_000_000  # largest scan grid; its profile alone is 80 MB


class GridError(ValueError):
    """A scan window or grid step that gives no usable grid."""


@dataclass(frozen=True)
class Detection:
    time: float
    delta: float
    kind: str  # "local-uniform" | "uniform"
    hadamard: HadamardClass | None
    target_state: TargetStateCandidate


@dataclass(frozen=True)
class MixingReport:
    target: tuple[str, int | None]  # ("vertex", u) or ("graph", None)
    t_max: float
    step: float
    minima: tuple[tuple[float, float], ...]  # (time, deviation), sorted by deviation
    detections: tuple[Detection, ...]
    empirical_inf: float
    grid: np.ndarray = field(repr=False, compare=False)     # scanned times, not rendered
    profile: np.ndarray = field(repr=False, compare=False)  # deviation at each grid time


def default_step(dec: SpectralDecomposition) -> float:
    """Grid step min(0.01, pi / (8 * spectral_radius))."""
    rho = dec.spectral_radius
    if rho <= 0.0:
        return 0.01
    return min(0.01, math.pi / 8.0 / rho)  # 8 * rho overflows for rho > 2.2e307


def golden_section(f, a: float, b: float,
                   tol: float = Tolerances.time_refine) -> tuple[float, float]:
    """Derivative-free minimization on [a, b]; returns (x, f(x)) at the
    interval midpoint once the bracket shrinks below tol."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _polish(f, t: float, h: float) -> tuple[float, float]:
    """One parabolic-interpolation step using points outside the rounding
    plateau; golden section alone cannot localize the bottom of a flat
    quadratic basin better than the noise radius."""
    f0, fp, fm = f(t), f(t + h), f(t - h)
    denom = fp - 2.0 * f0 + fm
    if denom > 0.0 and fp >= f0 <= fm:
        shift = -h * (fp - fm) / (2.0 * denom)
        if abs(shift) <= h:
            cand = t + shift
            fc = f(cand)
            if fc <= max(fp, fm):
                return cand, fc
    return t, f0


def _check_grid(t_max: float, step: float) -> None:
    """Raise GridError unless the window [0, t_max] at this step is a usable
    grid: both positive and finite, and at most MAX_GRID_POINTS points.
    Called before anything of the grid's size is allocated."""
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise GridError("scan window must be positive and finite")
    if not (math.isfinite(step) and step > 0.0):
        raise GridError("grid step must be positive and finite")
    points = (t_max + step / 2.0) / step
    if points > MAX_GRID_POINTS:
        raise GridError(f"window {t_max:g} at step {step:g} gives a grid of {points:.3g} "
                        f"points, above the cap of {MAX_GRID_POINTS}")


def _scan(dec: SpectralDecomposition, u: int | None, t_max: float, step: float | None,
          tol: Tolerances) -> MixingReport:
    if step is None:
        step = default_step(dec)
    _check_grid(t_max, step)
    ts = np.arange(0.0, t_max + step / 2.0, step)
    profile = deviation_profile(dec, ts, u)

    if u is None:
        objective = lambda t: matrix_uniform_deviation(dec, t)
    else:
        objective = lambda t: mixing_deviation(dec, u, t)

    minima: list[tuple[float, float]] = []
    for i in range(1, ts.shape[0] - 1):
        if profile[i] <= profile[i - 1] and profile[i] <= profile[i + 1]:
            if profile[i] == profile[i - 1] and i >= 2 and profile[i - 1] <= profile[i - 2]:
                continue  # plateau already refined from its left edge
            t_star, d_star = golden_section(objective, ts[i - 1], ts[i + 1], tol.time_refine)
            t_star, d_star = _polish(objective, t_star, step * 1e-3)
            minima.append((float(t_star), float(d_star)))
    minima.sort(key=lambda md: (md[1], md[0]))

    detections: list[Detection] = []
    seen_times: list[float] = []
    sqrt_n = math.sqrt(dec.n)
    # a column with some p_v = 0 deviates by at least 1/sqrt(n(n-1)) > 1/n,
    # so below the cap every entry is nonzero and the target phases exist
    detect = min(tol.detect, 1.0 / dec.n)
    for t_star, d_star in minima:
        if d_star >= detect:
            continue
        if any(abs(t_star - t) < tol.time_dedupe for t in seen_times):
            continue
        seen_times.append(t_star)
        if u is None:
            mat = transition_matrix(dec, t_star)
            had = hadamard_classify(sqrt_n * mat, tol=1e-6, r_max=tol.butson_rmax)
            state = TargetStateCandidate.from_vector(sqrt_n * mat[:, 0])
            kind = "uniform"
        else:
            had = None
            col = _propagator(dec, [t_star], u)[0]
            state = TargetStateCandidate.from_vector(sqrt_n * col)
            kind = "local-uniform"
        detections.append(Detection(time=t_star, delta=d_star, kind=kind,
                                    hadamard=had, target_state=state))
    detections.sort(key=lambda d: d.time)

    inf_val = float(profile.min())
    if minima:
        inf_val = min(inf_val, min(d for _, d in minima))
    return MixingReport(
        target=("graph", None) if u is None else ("vertex", u),
        t_max=float(t_max), step=float(step),
        minima=tuple(minima), detections=tuple(detections),
        empirical_inf=inf_val, grid=ts, profile=profile)


def scan_local(dec: SpectralDecomposition, u: int, t_max: float, step: float | None = None,
               tol: Tolerances = DEFAULT_TOLERANCES) -> MixingReport:
    """Scan the deviation of column u over [0, t_max] and refine all minima."""
    if not 0 <= u < dec.n:
        raise ValueError("vertex id out of range")
    return _scan(dec, u, t_max, step, tol)


def scan_uniform(dec: SpectralDecomposition, t_max: float, step: float | None = None,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> MixingReport:
    """Scan the worst-column deviation (graph-wide uniform mixing)."""
    return _scan(dec, None, t_max, step, tol)


def empirical_inf(dec: SpectralDecomposition, target: int | None, windows,
                  step: float | None = None,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> list[tuple[float, float]]:
    """Grid infimum of the deviation over increasing windows at one grid
    density; the sequence is nonincreasing because the grids are nested."""
    ws = [float(w) for w in windows]
    if step is None:
        step = default_step(dec)
    for w in ws:
        _check_grid(w, step)
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise ValueError("windows must be strictly increasing")
    out = []
    best = math.inf
    count_done = 0
    for w in ws:
        total = int(math.floor(w / step)) + 1
        ts = np.arange(count_done, total) * step
        if ts.size:
            best = min(best, float(deviation_profile(dec, ts, target).min()))
        count_done = total
        out.append((w, best))
    return out
