"""Continuous-walk evaluation: transition matrices U(t) = exp(itM) from the
eigenvectors, mixing-deviation metrics, complex Hadamard classification,
bipartite block structure, and target-state feasibility verification.

Deviation values are Euclidean 2-norms of (probability vector minus the flat
vector 1/n); every threshold in this package is stated for the 2-norm.  A
squared-norm convention is monotone-equivalent and differs only in scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graphs import (WORK_BYTES, Bipartition, MatrixKind, WeightClass, WeightedGraph,
                     adjacency_matrix, bipartition, weighted_degrees)
from .spectral import SpectralDecomposition, decompose_graph, support, vertex_support
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def _propagator_parts(dec: SpectralDecomposition, ts, u: int | None = None):
    """Real and imaginary parts of U(t) = V e^(itw) V^T at every time in ts,
    with w the computed eigenvalues, not their group means: a group's members
    differ by up to its gap, and the mean's phase error grows with t.  Shape
    (len(ts), n, n), or (len(ts), n) holding column u (equal to row u, since
    U(t) is symmetric) when a vertex u is given.  Either way at most three
    arrays of that shape are live at once."""
    phase = np.multiply.outer(np.asarray(ts, dtype=float), dec.column_eigenvalues)
    v = dec.vectors
    n = dec.n
    if u is None:  # one (len(ts) * n, n) x (n, n) product per part
        return tuple(((v * f(phase)[:, None, :]).reshape(-1, n) @ v.T).reshape(-1, n, n)
                     for f in (np.cos, np.sin))
    re = np.cos(phase)  # scaled in place, so only phase, re and im are live
    re *= v[u]
    re = re @ v.T
    phase = np.sin(phase, out=phase)
    phase *= v[u]
    return re, phase @ v.T


def _propagator(dec: SpectralDecomposition, ts, u: int | None = None) -> np.ndarray:
    """U(t) at every time in ts, shaped as by _propagator_parts."""
    re, im = _propagator_parts(dec, ts, u)
    return re + 1j * im


def _deviations(dec: SpectralDecomposition, ts, u: int | None) -> np.ndarray:
    """Deviation of column u at every time in ts; u=None takes the worst column."""
    re, im = _propagator_parts(dec, ts, u)
    prob = np.square(re, out=re)
    prob += np.square(im, out=im)
    prob -= 1.0 / dec.n
    sq = np.square(prob, out=prob).sum(axis=1)  # over rows: one sum per column
    return np.sqrt(sq if u is not None else sq.max(axis=1))


def transition_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = V e^(itw) V^T over the computed eigenpairs; unitary and symmetric."""
    return _propagator(dec, [t])[0]


def mixing_deviation(dec: SpectralDecomposition, u: int, t: float) -> float:
    """2-norm distance of column u's probability vector from the flat vector."""
    return float(_deviations(dec, [t], u)[0])


def matrix_uniform_deviation(dec: SpectralDecomposition, t: float) -> float:
    """Worst column deviation at time t (zero exactly at uniform mixing)."""
    return float(_deviations(dec, [t], None)[0])


def deviation_profile(dec: SpectralDecomposition, ts: np.ndarray,
                      u: int | None = None) -> np.ndarray:
    """Vectorized deviation over a time grid; u=None takes the worst column.
    The grid is evaluated in chunks of c times, each holding three (c, n, n)
    arrays, or three (c, n) for one column, within WORK_BYTES together."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape[0])
    chunk = max(1, WORK_BYTES // (3 * 8 * dec.n * (dec.n if u is None else 1)))
    for start in range(0, ts.shape[0], chunk):
        out[start:start + chunk] = _deviations(dec, ts[start:start + chunk], u)
    return out


# ---------------------------------------------------------------------------
# Target states

@dataclass(frozen=True)
class TargetStateCandidate:
    """A 1-uniform vector stored through its phase list, so every entry has
    modulus one by construction."""

    phases: tuple[float, ...]

    @classmethod
    def from_vector(cls, vec) -> "TargetStateCandidate":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if np.any(np.abs(v) == 0):
            raise ValueError("cannot normalize a zero entry to the unit circle")
        return cls(phases=tuple(float(x) for x in np.angle(v)))

    @property
    def entries(self) -> np.ndarray:
        return np.exp(1j * np.array(self.phases))

    def __len__(self) -> int:
        return len(self.phases)


def states_proportional(a, b, tol: float = 1e-6, up_to_conjugation: bool = False) -> bool:
    """True when a = c * b for one unimodular scalar c (optionally allowing
    the entrywise conjugate of a, i.e. the time-reversed state)."""
    va = np.asarray(a, dtype=complex).reshape(-1)
    vb = np.asarray(b, dtype=complex).reshape(-1)
    if va.shape != vb.shape:
        return False
    for cand in (va, np.conj(va)) if up_to_conjugation else (va,):
        ratio = cand / vb
        if np.abs(ratio - ratio[0]).max() <= tol and abs(abs(ratio[0]) - 1.0) <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# Hadamard classification

class HadamardKind(enum.Enum):
    NOT_HADAMARD = "not-hadamard"
    COMPLEX = "complex"
    BUTSON = "butson"
    TURYN = "turyn"
    REAL = "real"


@dataclass(frozen=True)
class HadamardClass:
    kind: HadamardKind
    butson_order: int | None
    dephased: bool
    max_defect: float


def hadamard_classify(h: np.ndarray, tol: float = 1e-8,
                      r_max: int = Tolerances.butson_rmax) -> HadamardClass:
    """Tightest Hadamard class of a square complex matrix.

    A complex Hadamard has unimodular entries and H conj(H)^T = nI; the
    Butson order is the least r <= r_max putting all entries within tol of
    r-th roots of unity; entries in {+-1, +-i} give the Turyn class and
    entries in {+-1} the real class.  "Dephased" means the first row and
    column are all ones.
    """
    mat = np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("hadamard_classify expects a square matrix")
    n = mat.shape[0]
    defect = float(np.abs(mat @ mat.conj().T - n * np.eye(n)).max())
    unimodular = float(np.abs(np.abs(mat) - 1.0).max()) <= tol
    dephased = bool(np.abs(mat[0, :] - 1.0).max() <= tol and np.abs(mat[:, 0] - 1.0).max() <= tol)
    if not unimodular or defect > tol * n:
        return HadamardClass(kind=HadamardKind.NOT_HADAMARD, butson_order=None,
                             dephased=dephased, max_defect=defect)
    angles = np.angle(mat)
    order = None
    for r in range(1, r_max + 1):
        frac = angles * r / (2.0 * math.pi)
        if np.abs(frac - np.round(frac)).max() <= tol * r:
            order = r
            break
    if order is not None and order <= 2:
        kind, order = HadamardKind.REAL, 2
    elif np.abs(mat - np.round(mat.real) - 1j * np.round(mat.imag)).max() <= tol:
        kind, order = HadamardKind.TURYN, 4
    elif order is not None:
        kind = HadamardKind.BUTSON
    else:
        kind = HadamardKind.COMPLEX
    return HadamardClass(kind=kind, butson_order=order, dephased=dephased, max_defect=defect)


# ---------------------------------------------------------------------------
# Bipartite structure

def bipartite_block_check(dec: SpectralDecomposition, bip: Bipartition, t: float,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when U(t) is real on within-part blocks and purely imaginary on
    cross-part blocks, the block form every bipartite walk obeys."""
    if not bip.present:
        raise ValueError("bipartite block check requires a bipartition")
    mat = transition_matrix(dec, t)
    bound = tol.alg(dec.n)
    b1 = np.array(bip.b1, dtype=int)
    b2 = np.array(bip.b2, dtype=int)
    for part in (b1, b2):
        if part.size and float(np.abs(mat[np.ix_(part, part)].imag).max()) > bound:
            return False
    if b1.size and b2.size:
        if float(np.abs(mat[np.ix_(b1, b2)].real).max()) > bound:
            return False
    return True


# ---------------------------------------------------------------------------
# Target-state feasibility

@dataclass(frozen=True)
class FeasibilityReport:
    """Residuals of every applicable necessary equation for a target state,
    with the first rule violated beyond the feasibility tolerance (if any)."""

    residuals: tuple[tuple[str, float], ...]
    infeasible_rule: str | None

    @property
    def feasible(self) -> bool:
        return self.infeasible_rule is None

    def residual(self, rule: str) -> float:
        for name, value in self.residuals:
            if name == rule:
                return value
        raise KeyError(rule)


def verify_target_state(g: WeightedGraph, dec: SpectralDecomposition, kind: MatrixKind,
                        u: int, mu: TargetStateCandidate,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> FeasibilityReport:
    """Evaluate the necessary conditions for mu to be the target state of
    local uniform-in-the-limit mixing at u.

    Unit-weight graphs get the exact cosine-sum equations (adjacency and both
    Laplacians); all weighted graphs get the per-eigenvalue norm equalities
    and the support equality; bipartite graphs additionally get the
    real/imaginary entry pattern and the per-eigenvalue cos^2 + sin^2 = 1
    consistency check.  The verdict reports the first violated rule.
    """
    if len(mu) != g.n:
        raise ValueError("target state length does not match the graph")
    n = g.n
    entries = mu.entries
    theta = np.array(mu.phases)
    eps = tol.feas
    residuals: list[tuple[str, float]] = []
    infeasible: str | None = None

    def record(rule: str, value: float, violated: bool) -> None:
        nonlocal infeasible
        residuals.append((rule, float(value)))
        if violated and infeasible is None:
            infeasible = rule

    unit = g.weight_class is WeightClass.UNIT
    deg_u = len(g.neighbourhoods[u])

    if unit:
        edge_cos = sum(math.cos(theta[a] - theta[b]) for a, b, _ in g.edges)
        if kind is MatrixKind.ADJACENCY:
            record("edge-cosine-sum", abs(edge_cos), abs(edge_cos) > eps)
            b01 = (adjacency_matrix(g) > 0).astype(np.int64)
            cn = b01 @ b01
            target = n * deg_u / 2.0 - g.edge_count
            acc = 0.0
            for j in range(n):
                for l in range(j):
                    if cn[j, l]:
                        acc += math.cos(theta[j] - theta[l]) * cn[j, l]
            record("common-neighbor-cosine-sum", abs(acc - target), abs(acc - target) > eps)
        elif kind is MatrixKind.SIGNLESS_LAPLACIAN:
            target = n * deg_u / 2.0 - g.edge_count
            record("edge-cosine-sum-signless", abs(edge_cos - target), abs(edge_cos - target) > eps)
        else:
            target = g.edge_count - n * deg_u / 2.0
            record("edge-cosine-sum-laplacian", abs(edge_cos - target), abs(edge_cos - target) > eps)

    gaps = math.sqrt(n) * dec.vertex_norms(u) - dec.projection_norms(entries)
    norm_gap = float(np.abs(gaps).max())
    record("projection-norms", norm_gap, norm_gap > eps)

    supp_u = vertex_support(dec, u, tol)
    supp_mu = support(dec, entries, tol)
    mismatch = len(set(supp_u.indices) ^ set(supp_mu.indices))
    record("support-equality", float(mismatch), mismatch > 0)

    if unit and kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN):
        spread = float(np.abs(entries - entries[0]).max())
        record("nonconstant-state", spread, spread <= eps)

    if unit and kind is MatrixKind.ADJACENCY:
        record(*_partition_balance(g, entries, eps))
        record(*_phase_arc(g, theta, eps))

    bip = bipartition(g)
    if bip.present and kind is MatrixKind.ADJACENCY:
        part_u = bip.b1 if u in bip.b1 else bip.b2
        part_o = bip.b2 if u in bip.b1 else bip.b1
        rotated = entries * np.exp(-1j * theta[u])
        pattern = 0.0
        for v in part_u:
            pattern = max(pattern, abs(rotated[v].imag))
        for v in part_o:
            pattern = max(pattern, abs(rotated[v].real))
        record("bipartite-pattern", pattern, pattern > eps)

        worst = 0.0
        mu1 = rotated.real
        mu2 = rotated.imag
        pu = np.array(part_u, dtype=int)
        po = np.array(part_o, dtype=int)
        rows = dec.projector_rows(u)
        for i in supp_u.indices:
            vec = rows[i]
            vu = vec[u]
            if abs(vu) < tol.supp:
                continue
            c = float(vec[pu] @ mu1[pu]) / (math.sqrt(n) * vu)
            s = float(vec[po] @ mu2[po]) / (math.sqrt(n) * vu)
            worst = max(worst, abs(c * c + s * s - 1.0))
        record("bipartite-phase-consistency", worst, worst > eps)

    return FeasibilityReport(residuals=tuple(residuals), infeasible_rule=infeasible)


def _partition_balance(g: WeightedGraph, entries: np.ndarray, eps: float):
    """Level sets of the state: within-class edges versus cross edges."""
    classes: list[tuple[complex, list[int]]] = []
    for v in range(g.n):
        for val, members in classes:
            if abs(entries[v] - val) <= 1e-7:
                members.append(v)
                break
        else:
            classes.append((entries[v], [v]))
    label = {}
    for idx, (_, members) in enumerate(classes):
        for v in members:
            label[v] = idx
    within = sum(1 for a, b, _ in g.edges if label[a] == label[b])
    cross = g.edge_count - within
    margin = within - cross
    return "level-set-balance", float(margin), margin > 0


def _phase_arc(g: WeightedGraph, theta: np.ndarray, eps: float):
    """Phases inside a quarter-circle arc make every edge cosine nonnegative,
    so one strictly positive edge cosine contradicts the zero sum.  (With the
    arc exactly pi/2 all edges may sit at right angles - the two-vertex
    target does - so a positive edge term is required, not just the arc.)"""
    angles = np.sort(np.mod(theta, 2.0 * math.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
    arc = 2.0 * math.pi - float(gaps.max())
    best_edge_cos = max((math.cos(theta[a] - theta[b]) for a, b, _ in g.edges),
                        default=-1.0)
    violated = arc <= math.pi / 2.0 + eps and best_edge_cos > eps
    return "quarter-arc", arc, violated


# ---------------------------------------------------------------------------
# Regular-graph equivalence

def regular_equivalence_check(g: WeightedGraph, t_grid,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """For weighted-regular graphs, per-vertex deviations must agree across
    the adjacency, Laplacian and signless Laplacian walks at every time."""
    wdeg = [float(x) for x in weighted_degrees(g)]
    if max(wdeg) - min(wdeg) > 1e-12 * max(1.0, max(wdeg)):
        raise ValueError("regular equivalence check requires a weighted-regular graph")
    decs = [decompose_graph(g, kind, tol) for kind in
            (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN)]
    bound = tol.alg(g.n)
    ts = np.asarray(t_grid, dtype=float)
    profiles = []
    for dec in decs:
        profiles.append(np.stack([deviation_profile(dec, ts, u) for u in range(g.n)]))
    base = profiles[0]
    return all(float(np.abs(p - base).max()) <= bound for p in profiles[1:])
