"""Symmetric eigendecomposition with eigenvalue grouping, eigenvalue
supports, exact rational kernels of integer-weighted adjacency matrices,
signed {-1, 0, 1} kernel vectors, and recognition of integer or
quadratic-surd spectra.

Floating decompositions use LAPACK's symmetric eigensolver at every size and
keep its n x n eigenvector matrix; an eigenprojector is never formed, so a
decomposition holds O(n^2) numbers.
Exact kernels carry no floating error at all.  The adjacency matrix is
eliminated over the Python integers, fraction-free; from _GATE_MIN_N
vertices a rank test mod a prime runs first and settles every nonsingular
case without elimination.  No rule reads an exact kernel of the Laplacian
or signless Laplacian (see `certificates.collect_facts`), so none is built.
The signed kernel vectors form one read-only int8 array.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import MatrixKind, WeightedGraph, degrees, is_tree, matrix_of
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class SpectralError(RuntimeError):
    """Eigensolver failure (non-convergence); never silently ignored."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues with multiplicities and orthonormal eigenvectors
    of one symmetric matrix.  The columns of `vectors` are grouped by
    distinct eigenvalue in ascending order; the eigenprojector of group k is
    E_k = B_k B_k^T with B_k the k-th group of columns."""

    matrix: np.ndarray
    eigenvalues: np.ndarray              # distinct values, ascending
    multiplicities: tuple[int, ...]
    vectors: np.ndarray                  # V, shape (n, n), from eigh

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())

    @cached_property
    def levels(self) -> np.ndarray:
        """Each eigenvector's group eigenvalue, so that
        V diag(levels) V^T = sum_k lambda_k E_k."""
        return _read_only(np.repeat(self.eigenvalues, self.multiplicities))

    @cached_property
    def _starts(self) -> np.ndarray:
        """First column of each group in V."""
        return _read_only(np.cumsum((0,) + self.multiplicities[:-1]))

    def projection_norms(self, x) -> np.ndarray:
        """||E_k x|| for every group k, read as ||B_k^T x||."""
        vec = np.asarray(x, dtype=complex).reshape(-1)
        return self._group_norms((vec.real @ self.vectors) ** 2 + (vec.imag @ self.vectors) ** 2)

    def vertex_norms(self, u: int) -> np.ndarray:
        """||E_k e_u|| for every group k, read as ||B_k[u]||."""
        return self._group_norms(self.vectors[u] ** 2)

    def _group_norms(self, squares: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduceat(squares, self._starts))

    def projector_rows(self, u: int) -> np.ndarray:
        """Row u of every eigenprojector, shape (d, n): row k is B_k B_k[u]."""
        return np.add.reduceat(self.vectors * self.vectors[u], self._starts, axis=1).T

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.levels) @ self.vectors.T


def decompose(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """Group the spectrum of a symmetric matrix into distinct eigenvalues.

    Eigenvalues closer than the grouping tolerance (scaled by the spectral
    radius) are merged into one eigenspace spanned by the grouped orthonormal
    eigenvectors; the group's eigenvalue is their mean.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("decompose expects a square matrix")
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max(initial=0.0)))):
        raise ValueError("decompose expects a symmetric matrix")
    return _decompose_symmetric((m + m.T) / 2.0, tol)


def decompose_graph(g: WeightedGraph, kind: MatrixKind,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """The decomposition of a walk matrix of g.  matrix_of builds it exactly
    symmetric, so this skips the symmetry check and the symmetrisation of
    :func:`decompose`; (x + x) / 2 == x for every entry below 2^1023."""
    return _decompose_symmetric(matrix_of(g, kind), tol)


def _decompose_symmetric(m: np.ndarray, tol: Tolerances) -> SpectralDecomposition:
    n = m.shape[0]
    if not np.isfinite(m).all():  # a weighted degree can overflow to inf
        raise SpectralError("eigensolver failed: the matrix has a non-finite entry")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    gap = tol.group(float(np.abs(w).max(initial=0.0)))
    starts = [0] + [i for i in range(1, n) if w[i] - w[i - 1] > gap]
    stops = starts[1:] + [n]
    return SpectralDecomposition(
        matrix=_read_only(m),
        eigenvalues=_read_only(np.array([float(np.mean(w[a:b])) for a, b in zip(starts, stops)])),
        multiplicities=tuple(b - a for a, b in zip(starts, stops)),
        vectors=_read_only(v))


@dataclass(frozen=True)
class EigenvalueSupport:
    """Indices (into the distinct eigenvalues) where a vector has a nonzero
    projection, with the projection 2-norms of the members."""

    indices: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    weights: tuple[float, ...]


def support(dec: SpectralDecomposition, x, tol: Tolerances = DEFAULT_TOLERANCES) -> EigenvalueSupport:
    """Eigenvalue support of a vector: eigenvalues with ||E x|| above the
    membership threshold (scaled by ||x|| so unit and sqrt(n)-normalized
    vectors are treated consistently)."""
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.shape[0] != dec.n:
        raise ValueError("vector length does not match the decomposition")
    cutoff = tol.supp * max(1.0, float(np.linalg.norm(vec)))
    return _support_of(dec, dec.projection_norms(vec), cutoff)


def vertex_support(dec: SpectralDecomposition, u: int,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> EigenvalueSupport:
    """Eigenvalue support of e_u."""
    return _support_of(dec, dec.vertex_norms(u), tol.supp)


def _support_of(dec: SpectralDecomposition, weights: np.ndarray,
                cutoff: float) -> EigenvalueSupport:
    idx = np.nonzero(weights > cutoff)[0]
    return EigenvalueSupport(indices=tuple(int(i) for i in idx),
                             eigenvalues=tuple(float(dec.eigenvalues[i]) for i in idx),
                             weights=tuple(float(weights[i]) for i in idx))


# ---------------------------------------------------------------------------
# Exact kernels

def leaf_peel_order(g: WeightedGraph) -> list[int]:
    """Vertex order produced by repeatedly removing current leaves of a tree."""
    deg = degrees(g)
    nbrs = g.neighbourhoods
    removed = [False] * g.n
    order: list[int] = []
    queue = deque(sorted(v for v in range(g.n) if deg[v] <= 1))
    while queue:
        u = queue.popleft()
        if removed[u]:
            continue
        removed[u] = True
        order.append(u)
        for v in nbrs[u]:
            if not removed[v]:
                deg[v] -= 1
                if deg[v] == 1:
                    queue.append(v)
    order.extend(v for v in range(g.n) if not removed[v])
    return order


def exact_kernel(g: WeightedGraph) -> list[tuple[int, ...]]:
    """Basis of the rational kernel of the adjacency matrix as primitive
    integer vectors with a positive lead (exact arithmetic; empty exactly
    when the matrix is nonsingular).  The basis is the one Gauss-Jordan
    elimination in the column order below gives: a reduced row echelon form
    is unique, so this basis does not depend on how the rows are scaled or
    combined.

    The matrix is eliminated over the Python integers, on trees in a
    leaf-peeling column order, which in practice yields a raw basis with
    entries in {-1, 0, 1} for unit weights; the property is verified by
    consumers per instance, never assumed.  From _GATE_MIN_N vertices a rank
    test mod a prime runs first, and full rank there means full rank over Q.
    """
    if not g.has_integer_weights():
        raise ValueError("exact arithmetic requires integer edge weights")
    if g.n >= _GATE_MIN_N and _full_rank_mod_p(g):
        return []
    m = [[0] * g.n for _ in range(g.n)]
    for u, v, w in g.edges:
        m[u][v] = m[v][u] = w
    return _integer_kernel(m, leaf_peel_order(g) if is_tree(g) else list(range(g.n)))


def _integer_kernel(m: list[list[int]], column_order: list[int]) -> list[tuple[int, ...]]:
    """Kernel basis of an integer matrix by fraction-free Gauss-Jordan
    elimination in the given column order: a pivot row p clears column c
    from every other row as p[c] * row - row[c] * p, and each new row is
    divided by the gcd of its entries.  Each free column f gives the vector
    with x_f = 1 and x_c = -p[f] / p[c] for the pivot row p of each pivot
    column c, scaled to a primitive integer vector with a positive lead."""
    rows = [row for row in m if any(row)]  # a zero row never pivots
    pivot_cols: list[int] = []
    for col in column_order:
        r = len(pivot_cols)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(row, prow)]
                c = math.gcd(*new)
                rows[i] = [x // c for x in new] if c > 1 else new
        pivot_cols.append(col)
    pivots = list(zip(pivot_cols, rows))
    pivot_set = set(pivot_cols)
    basis = []
    for fc in column_order:
        if fc in pivot_set:
            continue
        terms = [(col, prow[fc], prow[col]) for col, prow in pivots if prow[fc]]
        scale = math.lcm(*(p for _, _, p in terms))
        vec = [0] * len(m)
        vec[fc] = scale
        for col, a, p in terms:
            vec[col] = -a * scale // p
        content = math.gcd(*vec)
        lead = next(x for x in vec if x)
        if lead < 0:
            content = -content
        basis.append(tuple(x // content for x in vec))
    return basis


_PRIME = 2 ** 31 - 1  # a product of two residues stays below 2^62, inside int64
# Below this many vertices integer elimination of a nonsingular matrix is
# faster than the numpy rank test (about 0.4 against 0.5 ms at n = 14, and
# 1.2 against 0.7 ms at n = 20, on G(n, p), 2-core x86, Python 3.11), so the
# test would only add time there.
_GATE_MIN_N = 16


def _full_rank_mod_p(g: WeightedGraph) -> bool:
    """Whether the integer adjacency matrix has full rank mod _PRIME; then it
    is nonsingular over Q, because rank over GF(p) <= rank over Q."""
    n = g.n
    m = np.zeros((n, n), dtype=np.int64)
    for u, v, w in g.edges:
        m[u, v] = m[v, u] = w % _PRIME
    for col in range(n):
        nz = np.flatnonzero(m[col:, col])
        if nz.size == 0:
            return False
        piv = col + int(nz[0])
        m[[col, piv]] = m[[piv, col]]
        m[col] = m[col] * pow(int(m[col, col]), _PRIME - 2, _PRIME) % _PRIME
        m[col + 1:] = (m[col + 1:] - np.outer(m[col + 1:, col], m[col]) % _PRIME) % _PRIME
    return True


@dataclass(frozen=True)
class SignedVectorResult:
    vectors: np.ndarray  # (k, n) int8, read-only, rows in lexicographic order
    truncated: bool


NO_SIGNED_VECTORS = SignedVectorResult(_read_only(np.zeros((0, 0), np.int8)), truncated=False)

_ENUM_ROWS = 32768       # most coefficient vectors per enumeration chunk
_ENUM_BYTES = 4 << 20    # and at most this many bytes per int64 chunk array


def signed_kernel_vectors(kernel_basis: list[tuple[int, ...]],
                          max_dim: int = 12) -> SignedVectorResult:
    """Enumerate {-1, 0, 1}-coefficient combinations of the kernel basis and
    keep those whose entries all lie in {-1, 0, 1}, each with a positive
    lead, as the distinct rows of an int8 array in lexicographic order.
    Kernels of dimension above max_dim are only sampled through the basis
    vectors themselves and flagged as truncated."""
    dim = len(kernel_basis)
    if dim == 0:
        return NO_SIGNED_VECTORS
    # a combination's entries are at most dim * max |b_ij| in size; int64 holds
    # them exactly below 2^63, larger weights fall back to Python ints
    big = dim * max(abs(x) for row in kernel_basis for x in row) >= 2 ** 63
    basis = np.array(kernel_basis, dtype=object if big else np.int64)
    truncated = dim > max_dim
    if truncated:
        kept = [_signed_rows(basis)]
    else:
        # c and -c give v and -v, so only coefficient vectors whose first
        # nonzero entry is +1 are tried.  Read as balanced ternary digits they
        # are the numbers 1 .. h with h = (3^dim - 1) / 2, and the digits of
        # c + h in base 3, less one, are those of c.
        total = 3 ** dim
        powers = 3 ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        rows = max(1, min(_ENUM_ROWS, _ENUM_BYTES // (8 * basis.shape[1])))
        kept = []
        for start in range(total // 2 + 1, total, rows):
            idx = np.arange(start, min(start + rows, total), dtype=np.int64)
            kept.append(_signed_rows((idx[:, None] // powers % 3 - 1) @ basis))
    pool = np.concatenate(kept)
    pool = pool[np.lexsort(pool.T[::-1])]
    if len(pool) > 1:  # a dependent "basis" can give one vector twice
        pool = pool[np.concatenate(([True], (pool[1:] != pool[:-1]).any(axis=1)))]
    return SignedVectorResult(vectors=_read_only(pool), truncated=truncated)


def _signed_rows(vecs: np.ndarray) -> np.ndarray:
    """The rows of vecs with entries in {-1, 0, 1}, not all zero, as int8
    with a positive first nonzero entry."""
    rows = vecs[np.abs(vecs).max(axis=1) == 1].astype(np.int8)
    rows *= rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)][:, None]
    return rows


# ---------------------------------------------------------------------------
# Spectrum recognition

class SpectrumKind(enum.Enum):
    ALL_INTEGER = "all-integer"
    QUADRATIC_SURD = "quadratic-surd"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class SpectrumClassification:
    kind: SpectrumKind
    delta: int | None = None        # square-free discriminant (> 1)
    half_offset: int | None = None  # shared integer a in (a + b*sqrt(delta)) / 2
    pairs: tuple[tuple[int, int], ...] = ()  # (a, b) per classified eigenvalue


def _squarefree_split(c: int) -> tuple[int, int]:
    """c = b^2 * d with d square-free; returns (b, d)."""
    b, d = 1, 1
    p = 2
    while p * p <= c:
        if c % p == 0:
            k = 0
            while c % p == 0:
                c //= p
                k += 1
            b *= p ** (k // 2)
            if k % 2:
                d *= p
        p += 1 if p == 2 else 2
    return b, d * c


def classify_spectrum(dec: SpectralDecomposition,
                      restrict_to: EigenvalueSupport | None = None,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SpectrumClassification:
    """Recognise an all-integer spectrum or one of the form
    (a + b_j * sqrt(delta)) / 2 with a single integer a and square-free
    delta > 1; anything else is reported as irregular."""
    if restrict_to is not None:
        values = [float(dec.eigenvalues[i]) for i in restrict_to.indices]
    else:
        values = [float(x) for x in dec.eigenvalues]
    return classify_values(values, tol)


def classify_values(values: list[float], tol: Tolerances = DEFAULT_TOLERANCES) -> SpectrumClassification:
    if not values:
        return SpectrumClassification(kind=SpectrumKind.IRREGULAR)
    if all(abs(x - round(x)) <= tol.recog for x in values):
        return SpectrumClassification(
            kind=SpectrumKind.ALL_INTEGER,
            pairs=tuple((2 * round(x), 0) for x in values))
    candidates: set[int] = set()
    for i, x in enumerate(values):
        for y in values[i:]:
            s = x + y
            if abs(s - round(s)) <= 8 * tol.recog and abs(round(s)) <= tol.surd_offset_max:
                candidates.add(round(s))
    for a in sorted(candidates, key=lambda c: (abs(c), c)):
        fit = _fit_surd_family(values, a, tol)
        if fit is not None:
            delta, pairs = fit
            return SpectrumClassification(
                kind=SpectrumKind.QUADRATIC_SURD, delta=delta, half_offset=a, pairs=pairs)
    return SpectrumClassification(kind=SpectrumKind.IRREGULAR)


def _fit_surd_family(values, a, tol):
    targets = []
    for x in values:
        y = 2.0 * x - a
        c = round(y * y)
        if abs(y * y - c) > 8 * tol.recog * (1.0 + abs(y)):
            return None
        targets.append((y, int(c)))
    delta = None
    pairs = []
    for y, c in targets:
        if c == 0:
            pairs.append((a, 0))
            continue
        b, d = _squarefree_split(c)
        if d <= 1 or d > tol.surd_delta_max:
            return None
        if delta is None:
            delta = d
        elif delta != d:
            return None
        pairs.append((a, b if y > 0 else -b))
    if delta is None:
        return None
    # verify the reconstruction at full precision
    root = math.sqrt(delta)
    for x, (aa, b) in zip(values, pairs):
        if abs(x - (aa + b * root) / 2.0) > 8 * tol.recog:
            return None
    return delta, tuple(pairs)
