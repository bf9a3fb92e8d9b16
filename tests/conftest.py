"""Shared graph builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from qmix import MatrixKind, WeightClass, WeightedGraph
from qmix.graphs import is_tree
from qmix.spectral import leaf_peel_order


def complete(n):
    return WeightedGraph.build(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return WeightedGraph.build(n, [(i, i + 1, 1) for i in range(n - 1)])


def cycle(n):
    return WeightedGraph.build(n, [(i, (i + 1) % n, 1) for i in range(n)])


def star(n):
    """K_{1, n-1} with the center at vertex 0."""
    return WeightedGraph.build(n, [(0, i, 1) for i in range(1, n)])


def cube_q3():
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b, 1))
    return WeightedGraph.build(8, edges)


def complete_bipartite(p, q):
    return WeightedGraph.build(p + q, [(i, p + j, 1) for i in range(p) for j in range(q)])


def cartesian_product(*factors):
    """The Cartesian product of graphs: tuples of vertices, adjacent when they
    differ in one coordinate, by an edge of that factor (mixed radix labels)."""
    sizes = [f.n for f in factors]
    n = math.prod(sizes)

    def digits(v):
        out = []
        for size in reversed(sizes):
            v, d = divmod(v, size)
            out.append(d)
        return out[::-1]

    edges = []
    for v in range(n):
        dv = digits(v)
        stride = n
        for i, f in enumerate(factors):
            stride //= sizes[i]
            for a, b, w in f.edges:
                if dv[i] == a:
                    edges.append((v, v + (b - a) * stride, w))
    return WeightedGraph.build(n, edges)


def hypercube(d):
    return cartesian_product(*[complete(2)] * d)


def planted_true_pair(rng, n, weights=(1,)):
    """A random graph on n >= 5 vertices holding a planted true twin pair of
    part size 2: two edges {x1, x2} and {y1, y2} of one weight, joined by
    nothing or by the matching x1y1, x2y2 of one weight, where x_i and y_i
    share one random neighbourhood N_i off the pair.  Vertex 0 of the rest
    lies in N_1 and not in N_2, so no vertex of the pair has a twin.
    Returns the randomly relabelled graph and its planted vertices."""
    m = n - 4

    def weight():
        return int(rng.choice(weights))

    edges = [(u, v, weight()) for u in range(m) for v in range(u + 1, m) if rng.random() < 0.3]
    x1, x2, y1, y2 = range(m, n)
    for x, y, first in ((x1, y1, True), (x2, y2, False)):
        for z in range(m):
            if (first if z == 0 else rng.random() < 0.3):
                w = weight()
                edges += [(x, z, w), (y, z, w)]
    inner = weight()
    edges += [(x1, x2, inner), (y1, y2, inner)]
    if rng.random() < 0.5:
        cross = weight()
        edges += [(x1, y1, cross), (x2, y2, cross)]
    label = rng.permutation(n).tolist()
    g = WeightedGraph.build(n, [(label[u], label[v], w) for u, v, w in edges])
    return g, tuple(label[v] for v in (x1, x2, y1, y2))


def big_fi(extra_path=13):
    """The true twin pair {0, 1}, {4, 3} of two edges joined through vertex 2,
    with a path of extra_path vertices hanging off vertex 2: n = 5 + extra_path,
    and no vertex of the pair has a twin."""
    edges = [(2, 1, 1), (1, 0, 1), (3, 4, 1), (2, 3, 1), (2, 5, 1)]
    edges += [(5 + i, 6 + i, 1) for i in range(extra_path - 1)]
    return WeightedGraph.build(5 + extra_path, edges)


def random_tree(rng, n):
    edges = [(int(rng.integers(0, v)), v, 1) for v in range(1, n)]
    return WeightedGraph.build(n, edges)


def random_connected_graph(rng, n, weight_class=WeightClass.UNIT, extra_edges=None):
    """Random spanning tree plus extra edges; weights drawn per class."""
    base = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    present = set(base)
    if extra_edges is None:
        extra_edges = int(rng.integers(0, max(1, n)))
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    rng.shuffle(candidates)
    pairs = base + candidates[:extra_edges]

    def weight():
        if weight_class is WeightClass.UNIT:
            return 1
        if weight_class is WeightClass.INTEGER:
            return int(rng.integers(1, 6))
        return float(rng.uniform(0.5, 2.5))

    return WeightedGraph.build(n, [(u, v, weight()) for u, v in pairs], weight_class)


# ---------------------------------------------------------------------------
# Independent oracles (no qmix internals)

def bfs_distances(g: WeightedGraph, source: int) -> list[int]:
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def count_distance_two_pairs(g: WeightedGraph) -> int:
    return sum(1 for u in range(g.n)
               for v, d in enumerate(bfs_distances(g, u)) if v > u and d == 2)


def star_projectors(n):
    """Closed-form adjacency eigenprojectors of K_{1, n-1} (center first):
    eigenvalues -sqrt(n-1), 0, sqrt(n-1)."""
    m = n - 1
    root = np.sqrt(m)
    v_plus = np.concatenate(([root], np.ones(m))) / np.sqrt(2 * m)
    v_minus = np.concatenate(([-root], np.ones(m))) / np.sqrt(2 * m)
    e_zero = np.zeros((n, n))
    e_zero[1:, 1:] = np.eye(m) - np.ones((m, m)) / m
    return {-root: np.outer(v_minus, v_minus), 0.0: e_zero, root: np.outer(v_plus, v_plus)}


def complete_projectors(n):
    """Closed-form adjacency eigenprojectors of K_n: eigenvalues n-1 and -1."""
    j = np.ones((n, n)) / n
    return {float(n - 1): j, -1.0: np.eye(n) - j}


def group_bases(dec):
    """The orthonormal basis B_k of each eigenspace: the columns of the
    decomposition's eigenvector matrix, grouped by multiplicity."""
    return np.split(dec.vectors, np.cumsum(dec.multiplicities)[:-1], axis=1)


def projectors_of(dec):
    """Eigenprojectors B B^T of a decomposition, one per distinct eigenvalue."""
    return [b @ b.T for b in group_bases(dec)]


def naive_twin_subgraph_check(g: WeightedGraph, gs, hs, f, kind: str) -> bool:
    """Definition-level twin subgraph check, written independently of qmix."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    outside = [w for w in range(g.n) if w not in set(gs) | set(hs)]
    if any(a[x, w] != a[f[x], w] for x in gs for w in outside):
        return False
    if kind == "false":
        if any(a[x, y] != 0 for x in gs for y in hs):
            return False
        return all(a[x1, x2] == a[f[x1], f[x2]] for x1 in gs for x2 in gs if x1 != x2)
    gset, hset = set(gs), set(hs)
    in_g = [sum(a[x, y] for y in gset) for x in gs]
    in_h = [sum(a[x, y] for y in hset) for x in hs]
    cross = [sum(a[x, y] for y in hset) for x in gs] + [sum(a[y, x] for x in gset) for y in hs]
    return len(set(in_g + in_h)) == 1 and len(set(cross)) == 1


def reference_twin_search(g: WeightedGraph, a_max: int = 4,
                          subset_budget: int = 1_000_000):
    """The exhaustive twin-subgraph search, kept as the reference for the
    compat-driven one: it examines every pair of disjoint a-subsets (gs, hs)
    with min(gs) < min(hs), in the order a, gs, hs, up to the budget.  A pair
    is a witness when a bijection pairs each x in gs with a y in hs whose
    adjacency rows differ only inside gs | hs: a false witness if the parts
    are isomorphic under it with no cross edges, a true witness if both parts
    and the cross graph are regular.  Self-contained: no qmix internals."""
    from itertools import combinations, permutations

    from qmix.graphs import TwinKind, TwinSearchResult, TwinSubgraphWitness

    def as_weight(x):
        return int(x) if isinstance(x, float) and x.is_integer() else x

    n = g.n
    a_cap = min(a_max, n // 2)
    if a_cap < 1:
        return TwinSearchResult(witnesses=(), truncated=False)
    mat = [[0] * n for _ in range(n)]  # exact weights: floats would round above 2^53
    for u, v, w in g.edges:
        mat[u][v] = mat[v][u] = w
    diff = {(x, y): frozenset(i for i in range(n) if mat[x][i] != mat[y][i])
            for x in range(n) for y in range(n) if x != y}

    def classify(gs, hs):
        inside = frozenset(gs) | frozenset(hs)
        partners = [{y for y in hs if diff[x, y] <= inside} for x in gs]
        if not all(partners):
            return []
        a = len(gs)
        if a == 1:
            x, y = gs[0], hs[0]
            true = mat[x][y] != 0
            return [TwinSubgraphWitness(
                kind=TwinKind.TRUE if true else TwinKind.FALSE, g_vertices=gs, h_vertices=hs,
                bijection=((x, y),), valency_in=0 if true else None,
                valency_cross=as_weight(mat[x][y]) if true else None)]
        pairings = [p for p in permutations(range(a))
                    if all(hs[p[i]] in partners[i] for i in range(a))]
        out = []
        if not any(mat[x][y] for x in gs for y in hs):
            for p in pairings:
                if all(mat[gs[i]][gs[j]] == mat[hs[p[i]]][hs[p[j]]]
                       for i in range(a) for j in range(i + 1, a)):
                    out.append(TwinSubgraphWitness(
                        kind=TwinKind.FALSE, g_vertices=gs, h_vertices=hs,
                        bijection=tuple(sorted((gs[i], hs[p[i]]) for i in range(a)))))
                    break
        in_deg = {sum(mat[x][z] for z in part) for part in (gs, hs) for x in part}
        cross = ({sum(mat[x][y] for y in hs) for x in gs}
                 | {sum(mat[x][y] for x in gs) for y in hs})
        if len(in_deg) == 1 and len(cross) == 1 and pairings:
            p = pairings[0]
            out.append(TwinSubgraphWitness(
                kind=TwinKind.TRUE, g_vertices=gs, h_vertices=hs,
                bijection=tuple(sorted((gs[i], hs[p[i]]) for i in range(a))),
                valency_in=as_weight(in_deg.pop()), valency_cross=as_weight(cross.pop())))
        return out

    witnesses = []
    examined = 0
    for a in range(1, a_cap + 1):
        for gs in combinations(range(n), a):
            rest = [v for v in range(n) if v not in gs]
            for hs in combinations(rest, a):
                if min(hs) < min(gs):
                    continue
                examined += 1
                if examined > subset_budget:
                    return TwinSearchResult(witnesses=tuple(witnesses), truncated=True)
                witnesses.extend(classify(gs, hs))
    return TwinSearchResult(witnesses=tuple(witnesses), truncated=False)


def reference_signed_vectors(kernel_basis, max_dim=12):
    """The exhaustive enumeration of signed kernel vectors, kept as the
    reference for the array-valued one: every {-1, 0, 1}-combination of the
    basis (above max_dim only the basis rows themselves) whose entries all
    lie in {-1, 0, 1}, negated to a positive first nonzero entry.  Returns
    the distinct vectors as tuples in the order found.  Self-contained: no
    qmix internals."""
    from itertools import product

    dim = len(kernel_basis)
    if dim == 0:
        return []
    if dim > max_dim:
        coeff_iter = (tuple(int(i == j) for i in range(dim)) for j in range(dim))
    else:
        coeff_iter = product((-1, 0, 1), repeat=dim)
    found = {}
    for coeffs in coeff_iter:
        vec = [sum(c * b[i] for c, b in zip(coeffs, kernel_basis))
               for i in range(len(kernel_basis[0]))]
        if max(abs(x) for x in vec) != 1:
            continue
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        found.setdefault(tuple(vec))
    return list(found)


def rational_matrix(g: WeightedGraph, kind: MatrixKind) -> list[list[Fraction]]:
    """The chosen matrix of an integer-weighted graph as `Fraction` rows."""
    if not g.has_integer_weights():
        raise ValueError("exact arithmetic requires integer edge weights")
    n = g.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for u, v, w in g.edges:
        m[u][v] = m[v][u] = Fraction(w)
    if kind is not MatrixKind.ADJACENCY:
        sign = -1 if kind is MatrixKind.LAPLACIAN else 1
        wdeg = [sum(m[u]) for u in range(n)]
        m = [[Fraction(sign) * m[u][v] for v in range(n)] for u in range(n)]
        for u in range(n):
            m[u][u] += wdeg[u]
    return m


def _rational_kernel(m: list[list[Fraction]], column_order: list[int]) -> list[list[Fraction]]:
    """Kernel basis of a rational matrix, eliminating columns in the given order."""
    rows = [list(r) for r in m]
    nrows, ncols = len(rows), len(column_order)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in column_order:
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[col] = r
        r += 1
        if r == nrows:
            break
    free = [c for c in column_order if c not in pivot_of_col]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, prow in pivot_of_col.items():
            vec[col] = -rows[prow][fc]
        basis.append(vec)
    return basis


def _primitive_integer(vec: list[Fraction]) -> tuple[int, ...]:
    scale = math.lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * scale) for x in vec]
    content = math.gcd(*(abs(x) for x in ints)) if any(ints) else 1
    if content > 1:
        ints = [x // content for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def reference_exact_kernel(g: WeightedGraph, kind: MatrixKind) -> list[tuple[int, ...]]:
    """The kernel basis straight from elimination over the rationals
    (`Fraction`), with no closed form and no rank gate, kept as the
    reference for `exact_kernel`: columns in leaf-peeling order on trees and
    in vertex order otherwise, each vector primitive with a positive lead."""
    order = leaf_peel_order(g) if is_tree(g) else list(range(g.n))
    return [_primitive_integer(v) for v in _rational_kernel(rational_matrix(g, kind), order)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
