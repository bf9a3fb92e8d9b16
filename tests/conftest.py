"""Shared graph builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

from qmix import CertificateVerdict, MatrixKind, Verdict, WeightClass, WeightedGraph
from qmix.graphs import is_connected, is_tree
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
# Constructions and counts that only tests use

def subdivide(g: WeightedGraph) -> WeightedGraph:
    """Replace each edge {u, v} by a two-edge path through a new vertex."""
    if g.weight_class is not WeightClass.UNIT:
        raise ValueError("subdivision is defined for unit-weight graphs")
    edges = []
    for idx, (u, v, _) in enumerate(g.edges):
        mid = g.n + idx
        edges.append((u, mid, 1))
        edges.append((mid, v, 1))
    return WeightedGraph.build(g.n + g.edge_count, edges, WeightClass.UNIT)


def attach_pendants(g: WeightedGraph) -> WeightedGraph:
    """Attach one new weight-1 pendant vertex to every vertex of g."""
    edges = list(g.edges)
    for v in range(g.n):
        edges.append((v, g.n + v, 1))
    return WeightedGraph.build(2 * g.n, edges)


def cyclomatic_index(g: WeightedGraph) -> int:
    """k with |E| = (n - 1) + k; requires a connected graph."""
    if not is_connected(g):
        raise ValueError("cyclomatic index is defined for connected graphs only")
    return g.edge_count - g.n + 1


def common_neighbors(g: WeightedGraph, j: int, ell: int) -> int:
    """Number of common neighbors of two distinct vertices."""
    if j == ell:
        raise ValueError("common_neighbors requires two distinct vertices")
    nbrs = g.neighbourhoods
    return len(nbrs[j].keys() & nbrs[ell].keys())


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


def grouped_reconstruction(dec):
    """sum_k lambda_k E_k over the groups: V diag(group eigenvalue) V^T."""
    v = dec.vectors
    return (v * np.repeat(dec.eigenvalues, dec.multiplicities)) @ v.T


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


def reference_has_cycle5(g: WeightedGraph) -> bool:
    """Depth-first search for a 5-cycle, kept as the reference for the
    counting one: a path s-a-b-c-d through vertices above s, closed by an
    edge d-s.  O(n d^4) on a graph of degree d."""
    adj = g.neighbourhoods
    for s in range(g.n):
        for a in adj[s]:
            if a <= s:
                continue
            for b in adj[a]:
                if b <= s or b == a:
                    continue
                for c in adj[b]:
                    if c <= s or c in (a, b):
                        continue
                    for d in adj[c]:
                        if d <= s or d in (a, b, c):
                            continue
                        if d in adj[s]:
                            return True
    return False


def reference_cycle_flags(g: WeightedGraph) -> tuple[bool, bool]:
    """(has_triangle, has_c4) from the square of the 0/1 adjacency matrix:
    a triangle is an edge uv with a path of length two from u to v, and a
    4-cycle is a pair of distinct vertices with two paths of length two."""
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, _ in g.edges:
        adj[u, v] = adj[v, u] = 1
    paths2 = adj @ adj
    np.fill_diagonal(paths2, 0)
    return bool((paths2 * adj).any()), bool((paths2 >= 2).any())


def reference_family_bounds(g: WeightedGraph, kind: MatrixKind) -> dict[str, Fraction]:
    """The degree bounds of the deleted planar-family rules on a unit-weight
    graph asserted planar, kept as the oracle for the proof that they
    restate the exact-|E| rules: {family: bound}, and a vertex whose degree
    exceeds a bound is ruled out.  Under L and Q each bound is 4m/n for an
    upper bound m on |E|: n - 1 + k on a connected k-cyclic graph, 3n - 6
    planar (no guard on n, as the rule had none), 2n - 4 triangle-free
    (n >= 3), 15(n - 2)/7 C4-free (n >= 4) and (12n - 33)/5 C5-free
    (n >= 11).  Under A it is 2(15(n - 2)/7 + q)/n on a C4-free graph with
    n >= 4, q the pairs at distance two."""
    n, m = g.n, g.edge_count
    has_triangle, has_c4 = reference_cycle_flags(g)
    if kind is MatrixKind.ADJACENCY:
        if has_c4 or n < 4:
            return {}
        return {"c4-free-planar": Fraction(30 * (n - 2) + 14 * count_distance_two_pairs(g), 7 * n)}
    bounds = {}
    if min(bfs_distances(g, 0)) >= 0:  # connected
        k = m - n + 1
        bounds["k-cyclic"] = Fraction(4 * n + 4 * (k - 1), n)
    bounds["planar"] = Fraction(12 * n - 24, n)
    if not has_triangle and n >= 3:
        bounds["triangle-free-planar"] = Fraction(8 * n - 16, n)
    if not has_c4 and n >= 4:
        bounds["c4-free-planar"] = Fraction(60 * (n - 2), 7 * n)
    if not reference_has_cycle5(g) and n >= 11:
        bounds["c5-free-planar"] = Fraction(4 * (12 * n - 33), 5 * n)
    return bounds


def reference_asserted_statements(g: WeightedGraph) -> dict[str, set[int]]:
    """The paper's literal bipartite-kernel statements under the adjacency
    walk, whose deleted asserted-tier rules read them; kept as the oracle
    for the proof that none is sound: {statement: vertices it rules out},
    a graph-level statement ruling out every vertex.  On a connected
    bipartite graph with parts B1, B2 and x ranging over the signed kernel
    vectors (entries in {-1, 0, 1}, found by brute force):

    - part-size: a vertex u with some x_u != 0 needs sqrt(n) <= |B(u)| and
      sqrt(n) = |B(u)| mod 2, for its part B(u) and square n;
    - part-mod4: if some x exists, |B1| = |B2| mod 4, and both are 0 or 2;
    - balance: min(|B1|, |B2|) >= sqrt(n/2)."""
    n = g.n
    assert n <= 10, "the signed vectors are enumerated over {-1, 0, 1}^n"
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v, w in g.edges:
        adj[u, v] = adj[v, u] = w
    dist = bfs_distances(g, 0)
    assert min(dist) >= 0, "connected graphs only"
    part = [d % 2 for d in dist]
    assert all(part[u] != part[v] for u, v, _ in g.edges), "bipartite graphs only"
    size = [part.count(0), part.count(1)]
    signed = [x for x in itertools.product((-1, 0, 1), repeat=n)
              if any(x) and not (adj @ np.array(x)).any()]
    root = math.isqrt(n)
    everyone = set(range(n))
    statements = {"part-size": set(), "part-mod4": set(), "balance": set()}
    if root * root == n:
        for u in range(n):
            m = size[part[u]]
            if any(x[u] for x in signed) and (root > m or (root - m) % 2):
                statements["part-size"].add(u)
    p1, p2 = size[0] % 4, size[1] % 4
    if signed and not (p1 == p2 and p1 in (0, 2)):
        statements["part-mod4"] = everyone
    if 2 * min(size) ** 2 < n:
        statements["balance"] = everyone
    return statements


def _unit_degrees(g: WeightedGraph) -> list[int]:
    deg = [0] * g.n
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_caterpillar(g: WeightedGraph) -> bool:
    """True when deleting all pendant vertices of a tree leaves a path; an
    empty or single-vertex remainder counts as a path, so stars are
    caterpillars."""
    if g.edge_count != g.n - 1 or min(bfs_distances(g, 0)) < 0:
        raise ValueError("caterpillar test requires a tree")
    deg = _unit_degrees(g)
    inner = {v for v in range(g.n) if deg[v] > 1}
    inner_deg = Counter(x for u, v, _ in g.edges if u in inner and v in inner for x in (u, v))
    return max(inner_deg.values(), default=0) <= 2


def pendant_tree_pattern(g: WeightedGraph) -> list[int] | None:
    """If the tree g is a corona, a smaller tree with one pendant attached to
    each of its vertices, the inner tree's degree list (in g, minus one)."""
    n, deg = g.n, _unit_degrees(g)
    if n < 4 or n % 2 or deg.count(1) != n // 2:
        return None
    hosts = [v if deg[u] == 1 else u for u, v, _ in g.edges if 1 in (deg[u], deg[v])]
    if any(deg[h] == 1 for h in hosts) or len(set(hosts)) != n // 2:
        return None
    return [d - 1 for d in deg if d > 1]


def reference_tree_suite(g: WeightedGraph) -> set[str]:
    """The statements of the deleted tree suite that rule out a connected
    unit-weight graph under the adjacency walk, kept as the oracle for the
    proof that each one restates `bipartite-degree-parity` or `twin-vertex`
    (README, Certificate tiers).  With c the number of vertices whose degree
    is 2 or 3 mod 4:

    - path-graph: the path P_n with n >= 3;
    - tree-degree-parity: a tree with even n >= 5 and c even;
    - caterpillar-pendant-parity: a caterpillar with even n >= 5 and an
      even number of pendants;
    - pendant-tree-pattern: a corona whose inner tree has every degree 1
      or 2 mod 4;
    - unicyclic-degree-parity: a bipartite unicyclic graph, not a cycle,
      with even n and c even iff n = 2 mod 4."""
    n, m = g.n, g.edge_count
    if min(bfs_distances(g, 0)) < 0:
        return set()
    deg = _unit_degrees(g)
    c = sum(1 for d in deg if d % 4 in (2, 3))
    tree = m == n - 1
    fired = set()
    if tree and n >= 3 and sorted(deg) == [1, 1] + [2] * (n - 2):
        fired.add("path-graph")
    if tree and n >= 5 and n % 2 == 0:
        if c % 2 == 0:
            fired.add("tree-degree-parity")
        if is_caterpillar(g) and deg.count(1) % 2 == 0:
            fired.add("caterpillar-pendant-parity")
    inner = pendant_tree_pattern(g) if tree else None
    if inner is not None and all(d % 4 in (1, 2) for d in inner):
        fired.add("pendant-tree-pattern")
    if (m == n and reference_bipartite(g) and n % 2 == 0 and any(d != 2 for d in deg)
            and (c % 2 == 0) != (n % 4 == 0)):
        fired.add("unicyclic-degree-parity")
    return fired


def pendant_pairs(g: WeightedGraph) -> list[tuple[int, int, int, object, object]]:
    """(v, u, w, alpha, beta) for every two pendants u < w on one support
    vertex v, with alpha and beta the weights of uv and wv, in increasing
    order."""
    deg = _unit_degrees(g)
    support = {}  # pendant: (support vertex, edge weight)
    for a, b, wt in g.edges:
        for leaf, hub in ((a, b), (b, a)):
            if deg[leaf] == 1:
                support[leaf] = (hub, wt)
    return sorted((v, u, w, su, sw) for (u, (v, su)), (w, (v2, sw))
                  in itertools.combinations(sorted(support.items()), 2) if v == v2)


def reference_pendant_pair(g: WeightedGraph, kind: MatrixKind) -> list[CertificateVerdict]:
    """The ruled-out verdicts of the former `pendant-pair` rule, kept as the
    oracle for the proof that `twin-vertex` restates it except under the
    adjacency walk with unequal weights (README, Certificate tiers).  Two
    pendants u, w on one support vertex v, weights alpha and beta, give the
    eigenvector beta e_u - alpha e_w of A, and of L and Q when alpha = beta;
    on n >= 5 vertices it rules out u when n beta^2 > (alpha + beta)^2 and w
    when n alpha^2 > (alpha + beta)^2."""
    out = []
    n = g.n
    for v, u, w, alpha, beta in pendant_pairs(g):
        if n <= 4 or (kind is not MatrixKind.ADJACENCY and alpha != beta):
            continue
        a, b = Fraction(alpha), Fraction(beta)
        witness = (("support", v), ("alpha", alpha), ("beta", beta))
        if n * b * b > (a + b) ** 2:
            out.append(CertificateVerdict("pendant-pair", Verdict.RULED_OUT, ("vertex", u),
                                          (("partner", w),) + witness))
        if n * a * a > (a + b) ** 2:
            out.append(CertificateVerdict("pendant-pair", Verdict.RULED_OUT, ("vertex", w),
                                          (("partner", u),) + witness))
    return out


def reference_bipartite(g: WeightedGraph) -> bool:
    """Whether every component of g has a proper 2-colouring."""
    colour = [-1] * g.n
    for source in range(g.n):
        if colour[source] < 0:
            for v, d in enumerate(bfs_distances(g, source)):
                if d >= 0:
                    colour[v] = d % 2
    return all(colour[u] != colour[v] for u, v, _ in g.edges)


def reference_singular_square(g: WeightedGraph, kernel_basis) -> bool:
    """Whether the deleted `bipartite-singular-square` rule rules out g under
    the adjacency walk, given a basis of its integer kernel: a singular
    bipartite graph needs n = 1 or an even perfect square n.  Kept as the
    oracle for the proof that `bipartite-order-mod4`, `connectivity` or
    `bipartite-kernel-square` fires wherever it does."""
    n, root = g.n, math.isqrt(g.n)
    return (bool(kernel_basis) and reference_bipartite(g)
            and not (n == 1 or (root * root == n and n % 2 == 0)))


def reference_surd_offsets(values, tol):
    """The pair loop that the candidate offsets of surd recognition came
    from, kept as their reference: round(x + y) over every pair i <= j
    whose sum lies within 8 recog of it, with |round(x + y)| at most
    surd_offset_max."""
    offsets = set()
    for i, x in enumerate(values):
        for y in values[i:]:
            s = x + y
            if abs(s - round(s)) <= 8 * tol.recog and abs(round(s)) <= tol.surd_offset_max:
                offsets.add(round(s))
    return offsets


def reference_is_periodic_vertex(dec, u, tol):
    """The per-vertex decision that `vertex_periodicity` now makes once per
    support, kept as its reference: the support of e_u read element by
    element, its classification from the eigenvalues at its indices, the
    ratio condition, the heuristic cut-off and the gcd loops of the period
    hint, all redone at u, then a finite, positive hint checked by the
    overlap."""
    from qmix import (PeriodicityStatus, PeriodicityVerdict, RatioMode, SpectrumKind,
                      ratio_condition)
    from qmix.spectral import classify_values
    from qmix.walk import _propagator

    norms = dec.vertex_norms(u)
    indices = [i for i in range(len(norms)) if norms[i] > tol.supp]
    values = [float(dec.eigenvalues[i]) for i in indices]
    classification = classify_values(values, tol)
    cond = ratio_condition(values, classification, tol)
    if not cond.satisfied:
        return PeriodicityVerdict(status=PeriodicityStatus.NOT_PERIODIC)
    if cond.mode is RatioMode.RATIONAL_RECONSTRUCTION and len(values) > 2:
        return PeriodicityVerdict(status=PeriodicityStatus.UNKNOWN)
    hint = None
    if len(values) == 1:
        hint = 1.0
    elif len(values) == 2:
        hint = 2.0 * math.pi / (max(values) - min(values))
    elif classification.kind is SpectrumKind.ALL_INTEGER:
        ints = sorted(round(x) for x in values)
        g = 0
        for x in ints[1:]:
            g = math.gcd(g, x - ints[0])
        hint = 2.0 * math.pi / g if g else None
    elif classification.kind is SpectrumKind.QUADRATIC_SURD:
        bs = sorted(b for _, b in classification.pairs)
        g = 0
        for b in bs[1:]:
            g = math.gcd(g, b - bs[0])
        if g != 0 and classification.delta is not None:
            hint = 4.0 * math.pi / (g * math.sqrt(classification.delta))
    if hint is None or not 0.0 < hint < math.inf:
        return PeriodicityVerdict(status=PeriodicityStatus.UNKNOWN)
    overlap = abs(complex(_propagator(dec, [hint], u)[0, u]))
    status = PeriodicityStatus.PERIODIC if overlap > 1.0 - 1e-9 else PeriodicityStatus.UNKNOWN
    return PeriodicityVerdict(status=status, period_hint=hint, overlap=overlap)


def at(verdicts, u):
    """The verdicts of one rule that are scoped to vertex u, in order."""
    return [v for v in verdicts if v.scope == ("vertex", u)]


def reference_inequality_tables(dec, tol):
    """The (n, d) tables of the eigenvector-inequality rule built one
    eigenvalue group at a time, as the rule once built them, kept as the
    reference for `SpectralDecomposition.projector_row_norms`: lhs[u, k] =
    sqrt(n) ||E_k e_u|| and rhs[u, k] = sum_j |(E_k)_uj| / ||E_k e_u||, inf
    where ||E_k e_u|| <= tol.supp."""
    n = dec.n
    norms = np.sqrt(np.stack([(b ** 2).sum(axis=1) for b in group_bases(dec)], axis=1))
    sums = np.stack([np.abs(b @ b.T).sum(axis=1) for b in group_bases(dec)], axis=1)
    rhs = np.full_like(norms, math.inf)
    np.divide(sums, norms, out=rhs, where=norms > tol.supp)
    return math.sqrt(n) * norms, rhs


def reference_eigenvector_inequality(facts, u):
    """The per-vertex loop of the eigenvector-inequality rule, kept as the
    reference for its table: row u of each eigenprojector in turn, scaled
    to a unit vector, the first to break sqrt(n) |v_u| <= sum |v_j| by the
    margin being the witness; where none does, the first signed kernel
    vector nonzero at u with n > nnz^2; near-ties for the best gap keep the
    lowest eigenvalue.  Builds the verdict by hand, with no qmix rule code."""
    from qmix import CertificateVerdict, Verdict

    def verdict(kind, **witness):
        return CertificateVerdict(rule_id="eigenvector-inequality",
                                  verdict=kind, scope=("vertex", u),
                                  witness=tuple(witness.items()))

    dec, tol, n = facts.dec, facts.tol, facts.n
    best, best_idx = -math.inf, None
    if dec is not None:
        margin = tol.safety(n)
        for i, proj in enumerate(projectors_of(dec)):
            vec = proj[u]
            norm = float(np.linalg.norm(vec))
            if norm <= tol.supp:
                continue
            vec = vec / norm
            lhs = math.sqrt(n) * abs(float(vec[u]))
            rhs = float(np.abs(vec).sum())
            if lhs - rhs > best + 1e-12:
                best, best_idx = lhs - rhs, i
            if lhs > rhs + margin:
                return verdict(Verdict.RULED_OUT, route="canonical-float",
                               eigenvalue=float(dec.eigenvalues[i]), lhs=lhs, rhs=rhs,
                               margin=margin)
    for row in facts.signed_vectors.tolist():
        if row[u] != 0 and n > sum(x != 0 for x in row) ** 2:
            return verdict(Verdict.RULED_OUT, route="exact-kernel", vector=tuple(row),
                           lhs_squared=n * row[u] * row[u], rhs=sum(abs(x) for x in row))
    if dec is None:
        return verdict(Verdict.INCONCLUSIVE, note="no decomposition supplied")
    return verdict(Verdict.INCONCLUSIVE, best_gap=None if best_idx is None else best,
                   best_eigenvalue=None if best_idx is None else float(dec.eigenvalues[best_idx]))


def reference_report_summary(report):
    """The three separate walks over a certificate report that its one-pass
    summary replaces, kept as the reference: whether a rule fired at graph
    scope or at some vertex, the sorted ids of every rule that fired
    anywhere, and the vertices at which no rule fired."""

    def any_fired(verdicts):
        return any(v.fired for v in verdicts)

    ruled_out = any_fired(report.graph_verdicts) or any(
        any_fired(vs) for _, vs in report.vertex_verdicts)
    fired = {v.rule_id for v in report.graph_verdicts if v.fired}
    fired.update(v.rule_id for _, vs in report.vertex_verdicts for v in vs if v.fired)
    survivors = tuple(u for u, vs in report.vertex_verdicts if not any_fired(vs))
    return ruled_out, sorted(fired), survivors


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
