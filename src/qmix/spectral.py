"""Symmetric eigendecomposition with eigenvalue grouping, eigenvalue
supports, exact rational kernels of integer-weighted adjacency matrices,
signed {-1, 0, 1} kernel vectors, and recognition of integer or
quadratic-surd spectra.

Floating decompositions use LAPACK's symmetric eigensolver at every size and
keep its n x n eigenvector matrix, not the matrix decomposed; an
eigenprojector is never formed, so a decomposition holds O(n^2) numbers.
One kernel makes every decomposition, with one solver call on a stack of
matrices of one order: `decompose_graphs` hands it many graphs at once,
`decompose` and `decompose_graph` a stack of one, and the results agree bit
for bit.  The projector row tables of the eigenvector inequality are built per
decomposition, by `projector_row_norms` only, when a rule reads them.
Exact kernels carry no floating error at all.  The adjacency matrix is
eliminated over the Python integers, fraction-free.  The certificates skip
elimination where `nonsingular_by_spectrum` proves the matrix nonsingular
from a floating decomposition of it whose eigenvalues all lie far enough
from zero.  No rule reads an exact kernel of the Laplacian or signless
Laplacian (see `certificates.collect_facts`), so none is built.  The signed
kernel vectors form one read-only int8 array.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .graphs import WORK_BYTES, MatrixKind, WeightedGraph, degrees, is_tree, matrix_of
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

    eigenvalues: np.ndarray              # distinct values, ascending
    multiplicities: tuple[int, ...]
    vectors: np.ndarray                  # V, shape (n, n), from eigh
    column_eigenvalues: np.ndarray       # eigh's n eigenvalues, one per column of V
    group_gap: float                     # the grouping tolerance the groups were made with

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())

    @cached_property
    def _starts(self) -> np.ndarray:
        """First column of each group in V."""
        return _read_only(np.array((0, *accumulate(self.multiplicities[:-1]))))

    def projection_norms(self, x) -> np.ndarray:
        """||E_k x|| for every group k, read as ||B_k^T x||."""
        vec = np.asarray(x, dtype=complex).reshape(-1)
        return self._group_norms((vec.real @ self.vectors) ** 2 + (vec.imag @ self.vectors) ** 2)

    def vertex_norms(self, u) -> np.ndarray:
        """||E_k e_u|| for every group k, read as ||B_k[u]||; one row per
        vertex when u is an array of vertices."""
        return self._group_norms(self.vectors[u] ** 2)

    def _group_norms(self, squares: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduceat(squares, self._starts, axis=-1))

    def projector_rows(self, u: int) -> np.ndarray:
        """Row u of every eigenprojector, shape (d, n): row k is B_k B_k[u]."""
        return np.add.reduceat(self.vectors * self.vectors[u], self._starts, axis=1).T

    def projector_row_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) tables of ||E_k e_u|| and of sum_j |(E_k)_uj| over vertices
        u and groups k, built from V on each call.  A simple eigenvalue in
        column c has (E_k)_uj = V_uc V_jc, so its sums are |V_uc| times
        sum_j |V_jc|: O(n) per group.  A group of multiplicity m >= 2 then
        overwrites its column with the row sums of |B_k B_k^T|, a block of
        rows at a time; a block holds its rows of B_k B_k^T and their
        absolute values, within WORK_BYTES or one row."""
        v, starts, n = self.vectors, self._starts, self.n
        a = np.abs(v)
        sums = np.add.reduceat(a * np.add.reduce(a, axis=0), starts, axis=1)
        step = max(1, WORK_BYTES // (16 * n))
        for k, (c, m) in enumerate(zip(starts.tolist(), self.multiplicities)):
            if m > 1:
                b = v[:, c:c + m]
                for r in range(0, n, step):  # one expression, so no block outlives its step
                    np.add.reduce(np.abs(b[r:r + step] @ b.T), axis=1, out=sums[r:r + step, k])
        return np.sqrt(np.add.reduceat(v * v, starts, axis=1)), sums


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
    return _decompose_stack(((m + m.T) / 2.0)[None], tol)[0]


def decompose_graph(g: WeightedGraph, kind: MatrixKind,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralDecomposition:
    """The decomposition of a walk matrix of g.  matrix_of builds it exactly
    symmetric, so this skips the symmetry check and the symmetrisation of
    :func:`decompose`; (x + x) / 2 == x for every entry below 2^1023."""
    return _decompose_stack(matrix_of(g, kind)[None], tol)[0]


def decompose_graphs(graphs: list[WeightedGraph], kind: MatrixKind,
                     tol: Tolerances = DEFAULT_TOLERANCES):
    """Yield (i, the decomposition of a walk matrix of graphs[i]) for every
    i, equal in every field to `decompose_graph`'s, or (i, SpectralError)
    where that raises one.

    Graphs of one order n are decomposed in stacks of k while k * 8n^2 <=
    WORK_BYTES, each by `_decompose_stack`; above that a stack holds one
    graph.  A stack costs one eigh call, and its decompositions are yielded
    together; its matrices are released once eigh has run, and its
    eigenvectors once the caller drops the decompositions, before the next
    stack is built.  A stack of one, or one that `_decompose_stack` fails
    on, is decomposed graph by graph by `decompose_graph`, so only the graph
    at fault gets the error.  graphs[i] is not read once i is yielded, so the
    caller may drop it then."""
    orders: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        orders.setdefault(g.n, []).append(i)
    for n, members in orders.items():
        size = max(1, WORK_BYTES // (8 * n * n))
        for a in range(0, len(members), size):
            stack = members[a:a + size]
            if len(stack) > 1:
                try:
                    decs = _decompose_stack(np.stack([matrix_of(graphs[i], kind) for i in stack]),
                                            tol)
                except SpectralError:
                    pass
                else:
                    yield from zip(stack, decs)
                    del decs  # before the next stack is built
                    continue
            for i in stack:
                try:
                    yield i, decompose_graph(graphs[i], kind, tol)
                except SpectralError as exc:
                    yield i, exc


def _decompose_stack(m: np.ndarray, tol: Tolerances) -> list[SpectralDecomposition]:
    """The decompositions of a (k, n, n) stack of symmetric matrices from one
    eigh call, each grouped on its own.  A non-finite entry, a solver failure
    or a group mean that overflows raises SpectralError."""
    if not np.isfinite(m).all():  # a weighted degree can overflow to inf
        raise SpectralError("eigensolver failed: the matrix has a non-finite entry")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    with np.errstate(over="ignore"):  # a group mean can overflow; it is checked below
        decs = [_decomposition(ws, vs, _groups(ws, tol)) for ws, vs in zip(w, v)]
    if not all(np.isfinite(d.eigenvalues).all() for d in decs):
        raise SpectralError("eigensolver failed: an eigenvalue overflows")
    return decs


def _groups(w: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, tuple[int, ...], float]:
    """The group means, multiplicities and grouping tolerance of eigh's
    ascending eigenvalues w."""
    n = len(w)
    ws = w.tolist()
    gap = tol.group(max(map(abs, ws[:1] + ws[-1:]), default=0.0))  # w is ascending
    starts = [0] + [i for i in range(1, n) if ws[i] - ws[i - 1] > gap]
    stops = starts[1:] + [n]
    # each group's mean as np.mean takes it, without its Python wrapper
    # (np.add.reduceat sums groups of three or more in another order); a
    # singleton's mean is its eigenvalue
    means = [ws[a] if b - a == 1 else np.add.reduce(w[a:b]) / (b - a)
             for a, b in zip(starts, stops)]
    return np.array(means), tuple(b - a for a, b in zip(starts, stops)), gap


def _decomposition(w, v, groups) -> SpectralDecomposition:
    means, mults, gap = groups
    return SpectralDecomposition(
        eigenvalues=_read_only(means), multiplicities=mults,
        vectors=_read_only(v), column_eigenvalues=_read_only(w), group_gap=gap)


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
    idx = np.flatnonzero(weights > cutoff)
    return EigenvalueSupport(indices=tuple(idx.tolist()),
                             eigenvalues=tuple(dec.eigenvalues[idx].tolist()),
                             weights=tuple(weights[idx].tolist()))


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
    consumers per instance, never assumed.
    """
    if not g.has_integer_weights():
        raise ValueError("exact arithmetic requires integer edge weights")
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


def nonsingular_by_spectrum(dec: SpectralDecomposition) -> bool:
    """Whether a floating decomposition proves its matrix nonsingular: every
    group k has |lambda_k| > (m_k - 1) * gap + floor, with m_k its
    multiplicity, gap the grouping tolerance `dec` was made with and floor =
    _GATE_FLOOR * max(1, rho).  One-sided: False proves nothing, and a tiny
    nonzero eigenvalue leaves the exact elimination to decide.

    Sound for an integer adjacency matrix A of n <= MAX_VERTICES vertices,
    whatever the grouping tolerance: the members of group k lie within
    (m_k - 1) gaps of its mean, so every computed eigenvalue is more than
    the floor away from zero.  By Weyl's inequality each exact eigenvalue
    of A lies within the eigensolver's backward error, at most about
    n * eps * rho <= 1e-12 rho, of a computed one.  Rounding weights above
    2^53 to floats moves A by at most eps * rho more, because A is
    entrywise nonnegative.  The floor is fixed, not read from the
    tolerances, since a grouping tolerance below that backward error would
    let a computed zero eigenvalue pass."""
    floor = _GATE_FLOOR * max(1.0, dec.spectral_radius)
    gap = dec.group_gap
    return all(abs(x) > (m - 1) * gap + floor
               for x, m in zip(dec.eigenvalues.tolist(), dec.multiplicities))


_GATE_FLOOR = 1e-8  # times max(1, rho); the default grouping tolerance


@dataclass(frozen=True)
class SignedVectorResult:
    vectors: np.ndarray  # (k, n) int8, read-only, rows in lexicographic order
    truncated: bool


NO_SIGNED_VECTORS = SignedVectorResult(_read_only(np.zeros((0, 0), np.int8)), truncated=False)


def signed_kernel_vectors(kernel_basis: list[tuple[int, ...]],
                          max_dim: int = Tolerances.signed_budget) -> SignedVectorResult:
    """Enumerate {-1, 0, 1}-coefficient combinations of the kernel basis and
    keep those whose entries all lie in {-1, 0, 1}, each with a positive
    lead, as the distinct rows of an int8 array in lexicographic order.
    Kernels of dimension above max_dim are only sampled through the basis
    vectors themselves and flagged as truncated."""
    dim = len(kernel_basis)
    if dim == 0:
        return NO_SIGNED_VECTORS
    if dim == 1:  # the only candidate is the basis vector itself
        row = kernel_basis[0]
        sign = next((x for x in row if x), 0)
        kept = [[x * sign for x in row]] if max(map(abs, row)) == 1 else []
        return SignedVectorResult(
            vectors=_read_only(np.array(kept, dtype=np.int8).reshape(len(kept), len(row))),
            truncated=dim > max_dim)
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
        # a chunk of r coefficient vectors holds r indices, their (r, dim)
        # digits and the (r, n) combinations, within WORK_BYTES together
        rows = max(1, WORK_BYTES // (8 * (basis.shape[1] + dim + 1)))
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
    pairs: tuple[tuple[int, int], ...] = ()  # (a, b) per surd-classified eigenvalue


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
    return classify_values(dec.eigenvalues.tolist() if restrict_to is None
                           else list(restrict_to.eigenvalues), tol)


def classify_values(values: list[float], tol: Tolerances = DEFAULT_TOLERANCES) -> SpectrumClassification:
    if not values:
        return SpectrumClassification(kind=SpectrumKind.IRREGULAR)
    if all(abs(x - round(x)) <= tol.recog for x in values):
        return SpectrumClassification(kind=SpectrumKind.ALL_INTEGER)
    for a in sorted(_surd_offsets(values, tol), key=lambda c: (abs(c), c)):
        fit = _fit_surd_family(values, a, tol)
        if fit is not None:
            delta, pairs = fit
            return SpectrumClassification(
                kind=SpectrumKind.QUADRATIC_SURD, delta=delta, half_offset=a, pairs=pairs)
    return SpectrumClassification(kind=SpectrumKind.IRREGULAR)


def _surd_offsets(values: list[float], tol: Tolerances) -> set[int]:
    """The candidate offsets a: every integer within 8 recog of a sum
    x_i + x_j, i <= j, with |a| <= surd_offset_max.  The sums are taken a
    block of rows i at a time; np.round rounds half to even, as round()
    does."""
    x = np.array(values, dtype=float)
    step = max(1, WORK_BYTES // (24 * len(x)))
    offsets: set[int] = set()
    for r in range(0, len(x), step):
        sums = x[r:r + step, None] + x[r:]
        near = np.round(sums)
        keep = (np.abs(sums - near) <= 8 * tol.recog) & (np.abs(near) <= tol.surd_offset_max)
        offsets.update(map(int, near[keep].tolist()))
    return offsets


def _fit_surd_family(values, a, tol):
    targets = []
    for x in values:
        y = 2.0 * x - a
        square = y * y
        if not math.isfinite(square):  # |y| above 1.3e154: no surd fits
            return None
        c = round(square)
        if abs(square - c) > 8 * tol.recog * (1.0 + abs(y)):
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
