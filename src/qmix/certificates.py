"""Sound rule-out certificates for local uniform-in-the-limit mixing,
composed into per-vertex and graph-level pipelines.

Every rule is a necessary condition for mixing, so firing it *rules out*
mixing; nothing here ever certifies that mixing occurs.  Rules come in two
tiers.  Strict rules use exact integer/rational arithmetic, or floating
inequalities padded by an explicit safety margin, and are regression-tested
against the known mixing instances.  Asserted-tier rules are literal bound
statements whose full generality conflicts with a verified mixing instance
(the 4-vertex star); they are reported only on request, with the tension
noted in the witness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (Bipartition, CycleFlags, DegreeStats, MatrixKind, PendantPair,
                     TwinKind, TwinSubgraphWitness, WeightClass, WeightedGraph,
                     adjacency_lists, bipartition, connected_components, cycle_flags,
                     degree_stats, find_twin_pairs, is_caterpillar,
                     pendant_pairs_with_common_neighbor, search_twin_subgraphs,
                     verify_twin_subgraphs)
from .spectral import (SignedKernelVector, SpectralDecomposition, exact_kernel,
                       signed_kernel_vectors)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class Tier(enum.Enum):
    STRICT = "strict"
    PAPER_ASSERTED = "asserted"


class Verdict(enum.Enum):
    RULED_OUT = "ruled-out"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


VERTEX_SCOPE = "vertex"
GRAPH_SCOPE = "graph"


@dataclass(frozen=True)
class CertificateVerdict:
    rule_id: str
    tier: Tier
    verdict: Verdict
    scope: tuple[str, int | None]  # (VERTEX_SCOPE, u) or (GRAPH_SCOPE, None)
    witness: tuple[tuple[str, object], ...] = ()

    @property
    def fired(self) -> bool:
        return self.verdict is Verdict.RULED_OUT


def _vertex(rule: str, u: int, verdict: Verdict, tier: Tier = Tier.STRICT,
            **witness) -> CertificateVerdict:
    return CertificateVerdict(rule_id=rule, tier=tier, verdict=verdict,
                              scope=(VERTEX_SCOPE, u), witness=tuple(witness.items()))


def _graph(rule: str, verdict: Verdict, tier: Tier = Tier.STRICT,
           **witness) -> CertificateVerdict:
    return CertificateVerdict(rule_id=rule, tier=tier, verdict=verdict,
                              scope=(GRAPH_SCOPE, None), witness=tuple(witness.items()))


@dataclass(frozen=True)
class CertifyOptions:
    tier: Tier = Tier.STRICT          # STRICT drops asserted-tier findings from reports
    assert_planar: bool = False       # planarity is a user assertion, never computed
    twin_subgraph_size: int = 2       # part-size bound for the twin-subgraph search
    use_float_rules: bool = True      # canonical-eigenvector inequality (floating route)
    subdivision_preimage: tuple[int, int] | None = None  # (n, |E|) of a known pre-image


# ---------------------------------------------------------------------------
# Shared per-graph facts

@dataclass
class GraphFacts:
    g: WeightedGraph
    kind: MatrixKind
    stats: DegreeStats
    components: list[list[int]]
    bip: Bipartition
    flags: CycleFlags
    twins: list[tuple[int, int, TwinKind]]
    pendant_pairs: list[PendantPair]
    twin_witnesses: tuple[TwinSubgraphWitness, ...]
    twin_search_truncated: bool
    kernel_basis: list[tuple[int, ...]]          # exact; empty for real weights
    signed_vectors: tuple[SignedKernelVector, ...]
    signed_truncated: bool
    connected: bool
    tree: bool
    cyclomatic: int | None

    @property
    def n(self) -> int:
        return self.g.n


def collect_facts(g: WeightedGraph, kind: MatrixKind,
                  opts: CertifyOptions = CertifyOptions(),
                  tol: Tolerances = DEFAULT_TOLERANCES) -> GraphFacts:
    comps = connected_components(g)
    connected = len(comps) == 1
    bip = bipartition(g)
    if g.has_integer_weights():
        basis = exact_kernel(g, kind)
        signed = signed_kernel_vectors(basis, max_dim=tol.signed_budget)
        pool = _with_part_restrictions(signed.vectors, bip)
        signed_vecs, signed_trunc = pool, signed.truncated
    else:
        basis, signed_vecs, signed_trunc = [], (), False
    tw = search_twin_subgraphs(g, a_max=opts.twin_subgraph_size,
                               subset_budget=tol.subset_budget)
    return GraphFacts(
        g=g, kind=kind, stats=degree_stats(g), components=comps, bip=bip,
        flags=cycle_flags(g), twins=find_twin_pairs(g),
        pendant_pairs=pendant_pairs_with_common_neighbor(g),
        twin_witnesses=tw.witnesses, twin_search_truncated=tw.truncated,
        kernel_basis=basis, signed_vectors=signed_vecs, signed_truncated=signed_trunc,
        connected=connected, tree=connected and g.edge_count == g.n - 1,
        cyclomatic=(g.edge_count - g.n + 1) if connected else None)


def _with_part_restrictions(vectors, bip: Bipartition):
    """Signed kernel vectors plus their one-part restrictions (bipartite
    kernels split across the parts, so each restriction is again an exact
    signed kernel vector).  Both certificate families consume this one pool,
    which keeps their verdicts consistent on shared vectors."""
    pool: dict[tuple[int, ...], SignedKernelVector] = {}

    def _add(vec: tuple[int, ...]) -> None:
        if not any(vec):
            return
        lead = next(x for x in vec if x)
        if lead < 0:
            vec = tuple(-x for x in vec)
        if vec not in pool:
            nnz = sum(1 for x in vec if x)
            if bip.present:
                pool[vec] = SignedKernelVector(
                    vector=vec, nnz=nnz,
                    nnz_b1=sum(1 for v in bip.b1 if vec[v]),
                    nnz_b2=sum(1 for v in bip.b2 if vec[v]))
            else:
                pool[vec] = SignedKernelVector(vector=vec, nnz=nnz)

    for sv in vectors:
        _add(sv.vector)
        if bip.present:
            for part in (bip.b1, bip.b2):
                pset = set(part)
                _add(tuple(x if i in pset else 0 for i, x in enumerate(sv.vector)))
    return tuple(pool[k] for k in sorted(pool))


# ---------------------------------------------------------------------------
# Individual certificates

def cert_connectivity(g: WeightedGraph, components=None) -> list[CertificateVerdict]:
    """Disconnected graphs cannot mix at any vertex (block-diagonal walk)."""
    comps = components if components is not None else connected_components(g)
    if len(comps) == 1:
        return [_graph("connectivity", Verdict.INCONCLUSIVE, components=1)]
    sizes = [len(c) for c in comps]
    return [_vertex("connectivity", u, Verdict.RULED_OUT,
                    components=len(comps), component_sizes=tuple(sizes))
            for u in range(g.n)]


def cert_eigenvector_inequality(g: WeightedGraph, dec: SpectralDecomposition | None, u: int,
                                kind: MatrixKind = MatrixKind.ADJACENCY,
                                signed_pool=None, extra_vectors=(),
                                use_float_rules: bool = True,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> CertificateVerdict:
    """sqrt(n) |v_u| <= sum_j |v_j| must hold for every eigenvector v.

    Exact signed kernel vectors (and any supplied integer eigenvectors,
    verified against the matrix in rational arithmetic) are tested exactly;
    the canonical per-eigenspace vectors E_lambda e_u are tested in floating
    point with the safety margin.
    """
    rule = "eigenvector-inequality"
    n = g.n
    if signed_pool is None:
        if g.has_integer_weights():
            signed_pool = signed_kernel_vectors(exact_kernel(g, kind),
                                                max_dim=tol.signed_budget).vectors
        else:
            signed_pool = ()
    for sv in signed_pool:
        if sv.vector[u] == 0:
            continue
        lhs_sq = n * sv.vector[u] * sv.vector[u]
        rhs = sum(abs(x) for x in sv.vector)
        if lhs_sq > rhs * rhs:
            return _vertex(rule, u, Verdict.RULED_OUT, route="exact-kernel",
                           vector=sv.vector, lhs_squared=lhs_sq, rhs=rhs)
    for vec in extra_vectors:
        _exact_eigenvalue_of(g, kind, vec)  # raises unless a genuine eigenvector
        if vec[u] == 0:
            continue
        lhs_sq = Fraction(n) * Fraction(vec[u]) ** 2
        rhs = sum(abs(Fraction(x)) for x in vec)
        if lhs_sq > rhs * rhs:
            return _vertex(rule, u, Verdict.RULED_OUT, route="exact-supplied",
                           vector=tuple(vec), lhs_squared=lhs_sq, rhs=rhs)
    if dec is not None and use_float_rules:
        margin = tol.safety(n)
        best = -math.inf
        best_idx = None
        for i, vec in enumerate(dec.projectors[:, u]):  # E e_u, read as row u (E is symmetric)
            norm = float(np.linalg.norm(vec))
            if norm <= tol.supp:
                continue
            vec = vec / norm
            lhs = math.sqrt(n) * abs(float(vec[u]))
            rhs = float(np.abs(vec).sum())
            if lhs - rhs > best + 1e-12:  # near-ties keep the lowest eigenvalue
                best = lhs - rhs
                best_idx = i
            if lhs > rhs + margin:
                return _vertex(rule, u, Verdict.RULED_OUT, route="canonical-float",
                               eigenvalue=float(dec.eigenvalues[i]), lhs=lhs, rhs=rhs,
                               margin=margin)
        return _vertex(rule, u, Verdict.INCONCLUSIVE, best_gap=best,
                       best_eigenvalue=None if best_idx is None
                       else float(dec.eigenvalues[best_idx]))
    note = "floating canonical-vector route disabled" if not use_float_rules else \
        "no decomposition supplied"
    return _vertex(rule, u, Verdict.INCONCLUSIVE, note=note)


def _exact_eigenvalue_of(g: WeightedGraph, kind: MatrixKind, vec) -> Fraction:
    """Rational eigenvalue of an exact eigenvector, verified entrywise."""
    from .spectral import rational_matrix

    m = rational_matrix(g, kind)
    x = [Fraction(v) for v in vec]
    if len(x) != g.n or not any(x):
        raise ValueError("supplied vector has the wrong length or is zero")
    image = [sum(m[i][j] * x[j] for j in range(g.n)) for i in range(g.n)]
    pivot = next(i for i in range(g.n) if x[i] != 0)
    lam = image[pivot] / x[pivot]
    if any(image[i] != lam * x[i] for i in range(g.n)):
        raise ValueError("supplied vector is not an exact eigenvector")
    return lam


def cert_degree_LQ(g: WeightedGraph, u: int, kind: MatrixKind,
                   stats: DegreeStats | None = None) -> CertificateVerdict:
    """Laplacian walks: deg u <= twice the average degree (unit weights)."""
    rule = "degree-vs-average-LQ"
    if kind is MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a Laplacian walk on a unit-weight graph")
    st = stats or degree_stats(g)
    deg = st.deg[u]
    bound = Fraction(4 * st.edge_count, g.n)
    if deg > bound:
        return _vertex(rule, u, Verdict.RULED_OUT, degree=deg, bound=bound)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, degree=deg, bound=bound)


def cert_degree_A_c4free(g: WeightedGraph, u: int, kind: MatrixKind,
                         stats: DegreeStats | None = None,
                         flags: CycleFlags | None = None,
                         connected: bool | None = None,
                         assert_planar: bool = False) -> list[CertificateVerdict]:
    """Adjacency walks on C4-free graphs: deg u <= 2(|E| + q)/n, with the
    unicyclic-with-C4 and asserted-planar variants."""
    out = []
    applicable = kind is MatrixKind.ADJACENCY and g.weight_class is WeightClass.UNIT
    st = stats or degree_stats(g)
    fl = flags or cycle_flags(g)
    conn = is_connected_flag(g, connected)
    n, q = g.n, st.dist2_pairs
    deg = st.deg[u] if applicable else None

    rule = "degree-common-neighbors-A"
    if not applicable or fl.has_c4:
        out.append(_vertex(rule, u, Verdict.NOT_APPLICABLE,
                           note="requires a unit-weight C4-free graph under the adjacency walk"))
    else:
        bound = Fraction(2 * (st.edge_count + q), n)
        verdict = Verdict.RULED_OUT if deg > bound else Verdict.INCONCLUSIVE
        out.append(_vertex(rule, u, verdict, degree=deg, bound=bound, dist2_pairs=q))

    rule = "degree-unicyclic-c4-A"
    unicyclic = conn and g.edge_count == n
    if applicable and unicyclic and fl.has_c4:
        bound = Fraction(2 * (n + q + 2), n)
        verdict = Verdict.RULED_OUT if deg > bound else Verdict.INCONCLUSIVE
        out.append(_vertex(rule, u, verdict, degree=deg, bound=bound, dist2_pairs=q))
    else:
        out.append(_vertex(rule, u, Verdict.NOT_APPLICABLE,
                           note="requires a unicyclic graph whose cycle is a C4"))

    rule = "degree-c4free-planar-A"
    if applicable and assert_planar and not fl.has_c4 and n >= 4:
        bound = Fraction(30 * (n - 2) + 14 * q, 7 * n)
        verdict = Verdict.RULED_OUT if deg > bound else Verdict.INCONCLUSIVE
        out.append(_vertex(rule, u, verdict, degree=deg, bound=bound, dist2_pairs=q))
    else:
        out.append(_vertex(rule, u, Verdict.NOT_APPLICABLE,
                           note="requires --assert-planar and a C4-free graph on >= 4 vertices"))
    return out


def is_connected_flag(g: WeightedGraph, cached: bool | None) -> bool:
    return cached if cached is not None else len(connected_components(g)) == 1


def cert_twins(g: WeightedGraph, u: int, twins=None) -> CertificateVerdict:
    """A vertex with a twin cannot mix once the graph has five vertices."""
    rule = "twin-vertex"
    pairs = twins if twins is not None else find_twin_pairs(g)
    partner = None
    kind = None
    for a, b, k in pairs:
        if a == u or b == u:
            partner = b if a == u else a
            kind = k
            break
    if partner is None:
        return _vertex(rule, u, Verdict.INCONCLUSIVE, note="no twin")
    if g.n >= 5:
        return _vertex(rule, u, Verdict.RULED_OUT, twin=partner, twin_kind=kind.value, n=g.n)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, twin=partner, twin_kind=kind.value,
                   note="order at most four")


def cert_twin_subgraphs(g: WeightedGraph, u: int, witnesses, kind: MatrixKind,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> CertificateVerdict:
    """Twin-subgraph bounds: true pairs force n <= 4a^2 (any walk matrix);
    false pairs feed exact eigenvectors of the inner part through the
    doubled eigenvector inequality (adjacency walk only)."""
    rule = "twin-subgraph"
    n = g.n
    relevant = [w for w in witnesses if w.contains(u)]
    if not relevant:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE, note="no witness contains the vertex")
    for w in relevant:
        if not verify_twin_subgraphs(g, w):
            raise ValueError(f"twin-subgraph witness failed verification: {w}")
        a = w.size
        if w.kind is TwinKind.TRUE:
            if n > 4 * a * a:
                return _vertex(rule, u, Verdict.RULED_OUT, route="true-pair-size",
                               part_size=a, bound=4 * a * a, n=n,
                               g_vertices=w.g_vertices, h_vertices=w.h_vertices)
        elif kind is MatrixKind.ADJACENCY and g.has_integer_weights():
            hit = _false_twin_violation(g, u, w)
            if hit is not None:
                vec, lhs_sq, rhs = hit
                return _vertex(rule, u, Verdict.RULED_OUT, route="false-pair-eigenvector",
                               inner_vector=vec, lhs_squared=lhs_sq, rhs_doubled=rhs,
                               g_vertices=w.g_vertices, h_vertices=w.h_vertices)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, witnesses=len(relevant))


def _false_twin_violation(g: WeightedGraph, u: int, w: TwinSubgraphWitness):
    """Exact kernel vectors x of the inner part, lifted to (x, -x, 0), must
    satisfy n x_u^2 <= (2 sum |x_j|)^2."""
    inner = _induced_subgraph(g, w.g_vertices)
    if inner is None:
        return None
    basis = exact_kernel(inner, MatrixKind.ADJACENCY)
    vectors = [sv.vector for sv in signed_kernel_vectors(basis, max_dim=10).vectors]
    vectors.extend(b for b in basis if b not in vectors)
    f = w.mapping() or {}
    if u in w.g_vertices:
        pos = w.g_vertices.index(u)
    else:
        inv = {h: w.g_vertices.index(gv) for gv, h in f.items()}
        pos = inv.get(u)
        if pos is None:
            return None
    n = g.n
    for vec in vectors:
        xu = vec[pos]
        if xu == 0:
            continue
        lhs_sq = n * xu * xu
        rhs = 2 * sum(abs(x) for x in vec)
        if lhs_sq > rhs * rhs:
            return vec, lhs_sq, rhs
    return None


def _induced_subgraph(g: WeightedGraph, vertices) -> WeightedGraph | None:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[a], index[b], w) for a, b, w in g.edges if a in index and b in index]
    try:
        return WeightedGraph.build(len(vertices), edges)
    except ValueError:
        return None


def cert_bipartite_parity(g: WeightedGraph, u: int, kind: MatrixKind,
                          stats: DegreeStats | None = None,
                          bip: Bipartition | None = None) -> CertificateVerdict:
    """Bipartite adjacency walks force n * deg u even, and tie the parity of
    the count of vertices with degree 2 or 3 (mod 4) to the parity of
    |E| - n deg(u) / 2."""
    rule = "bipartite-degree-parity"
    bp = bip or bipartition(g)
    if kind is not MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT \
            or not bp.present:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a unit-weight bipartite graph under the adjacency walk")
    st = stats or degree_stats(g)
    deg = st.deg[u]
    if (g.n * deg) % 2 == 1:
        return _vertex(rule, u, Verdict.RULED_OUT, route="odd-order-degree",
                       n=g.n, degree=deg)
    count23 = sum(1 for d in st.deg if d % 4 in (2, 3))
    even_count = count23 % 2 == 0
    same_parity = (st.edge_count % 2) == ((g.n * deg // 2) % 2)
    if even_count != same_parity:
        return _vertex(rule, u, Verdict.RULED_OUT, route="count-parity",
                       count_deg_2_3_mod4=count23, edge_count=st.edge_count,
                       half_n_deg=g.n * deg // 2)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, count_deg_2_3_mod4=count23)


def cert_kernel_vector(g: WeightedGraph, u: int, kind: MatrixKind,
                       bip: Bipartition | None = None,
                       kernel_basis=None, signed_pool=None,
                       include_asserted: bool = False) -> list[CertificateVerdict]:
    """Singular bipartite adjacency walks with a kernel component at u: the
    order must be a perfect square, and each signed kernel vector restricted
    to u's part must have sqrt(n) <= nnz with matching parity.

    The literal phrasing of the part-size bound (against |B1| itself) breaks
    on the 4-vertex star, which provably mixes; that form is reported only at
    the asserted tier, when it disagrees with the strict form.
    """
    rule = "bipartite-kernel-square"
    bp = bip or bipartition(g)
    out: list[CertificateVerdict] = []
    if kind is not MatrixKind.ADJACENCY or not g.has_integer_weights() or not bp.present:
        return [_vertex(rule, u, Verdict.NOT_APPLICABLE,
                        note="requires an integer-weight bipartite graph under the adjacency walk")]
    basis = kernel_basis if kernel_basis is not None else exact_kernel(g, kind)
    if not any(vec[u] != 0 for vec in basis):
        return [_vertex(rule, u, Verdict.NOT_APPLICABLE,
                        note="no kernel component at the vertex")]
    n = g.n
    root = math.isqrt(n)
    if root * root != n:
        return [_vertex(rule, u, Verdict.RULED_OUT, route="not-a-square", n=n)]
    if signed_pool is None:
        signed_pool = _with_part_restrictions(
            signed_kernel_vectors(basis).vectors, bp)
    part_u = set(bp.b1 if u in bp.b1 else bp.b2)
    part_size = len(part_u)
    strict_fired = False
    asserted_hit = None
    for sv in signed_pool:
        if sv.vector[u] == 0:
            continue
        restricted = tuple(x if i in part_u else 0 for i, x in enumerate(sv.vector))
        m = sum(1 for x in restricted if x)
        if root > m or (root - m) % 2 != 0:
            out.append(_vertex(rule, u, Verdict.RULED_OUT, route="signed-vector-nnz",
                               vector=sv.vector, restricted_nnz=m, sqrt_n=root))
            strict_fired = True
            break
        if asserted_hit is None and (root > part_size or (root - part_size) % 2 != 0):
            asserted_hit = sv
    if not strict_fired:
        out.append(_vertex(rule, u, Verdict.INCONCLUSIVE, sqrt_n=root,
                           part_size=part_size))
        if include_asserted and asserted_hit is not None:
            out.append(_vertex(
                "bipartite-kernel-part-size", u, Verdict.RULED_OUT, tier=Tier.PAPER_ASSERTED,
                vector=asserted_hit.vector, part_size=part_size, sqrt_n=root,
                note="literal part-size form; known to fail on the 4-vertex star, "
                     "which admits uniform mixing - kept at the asserted tier"))
    return out


def cert_bipartite_global(g: WeightedGraph, kind: MatrixKind,
                          bip: Bipartition | None = None,
                          kernel_basis=None, signed_pool=None,
                          include_asserted: bool = False,
                          subdivision_preimage: tuple[int, int] | None = None
                          ) -> list[CertificateVerdict]:
    """Graph-level bipartite obstructions for the adjacency walk.

    Strict: on more than two vertices the order must be divisible by four,
    and a singular integer-weighted bipartite graph needs an even perfect
    square order.  (Orders one and two are genuine exceptions: the single
    vertex and the weighted single edge both mix.)  The balance bound
    min(|B1|, |B2|) >= sqrt(n/2) and the part-size mod-4 clause are reported
    at the asserted tier only; the balance bound fails on the 4-vertex star.
    """
    bp = bip or bipartition(g)
    if kind is not MatrixKind.ADJACENCY or not bp.present:
        return [_graph("bipartite-order-mod4", Verdict.NOT_APPLICABLE,
                       note="requires a bipartite graph under the adjacency walk")]
    out: list[CertificateVerdict] = []
    n = g.n
    if subdivision_preimage is not None:
        ny, my = subdivision_preimage
        if ny + my != n:
            raise ValueError("subdivision pre-image does not match the graph order")
        verdict = Verdict.RULED_OUT if (ny + my) % 4 != 0 else Verdict.INCONCLUSIVE
        out.append(_graph("subdivision-order", verdict,
                          preimage_vertices=ny, preimage_edges=my, n=n))
    if n > 2 and n % 4 != 0:
        out.append(_graph("bipartite-order-mod4", Verdict.RULED_OUT, n=n, remainder=n % 4))
    else:
        out.append(_graph("bipartite-order-mod4", Verdict.INCONCLUSIVE, n=n,
                          note="orders one and two mix" if n <= 2 else None))
    if g.has_integer_weights():
        basis = kernel_basis if kernel_basis is not None else exact_kernel(g, kind)
        if basis:
            root = math.isqrt(n)
            singular_ok = root * root == n and n % 2 == 0
            out.append(_graph("bipartite-singular-square",
                              Verdict.INCONCLUSIVE if singular_ok else Verdict.RULED_OUT,
                              n=n, kernel_dimension=len(basis)))
            if include_asserted:
                if signed_pool is None:
                    signed_pool = signed_kernel_vectors(basis).vectors
                if signed_pool:
                    p1, p2 = len(bp.b1) % 4, len(bp.b2) % 4
                    bad = not (p1 == p2 and p1 in (0, 2))
                    out.append(_graph(
                        "bipartite-kernel-part-mod4",
                        Verdict.RULED_OUT if bad else Verdict.INCONCLUSIVE,
                        tier=Tier.PAPER_ASSERTED,
                        part_sizes_mod4=(p1, p2),
                        note="literal part-size congruence; asserted tier only"))
    if include_asserted:
        m = min(len(bp.b1), len(bp.b2))
        bad = 2 * m * m < n
        out.append(_graph("bipartite-balance", Verdict.RULED_OUT if bad else Verdict.INCONCLUSIVE,
                          tier=Tier.PAPER_ASSERTED, min_part=m, n=n,
                          note="literal balance bound; fails on the 4-vertex star, "
                               "which admits uniform mixing - kept at the asserted tier"))
    return out


def cert_planar_family(g: WeightedGraph, u: int, kind: MatrixKind,
                       stats: DegreeStats | None = None,
                       flags: CycleFlags | None = None,
                       cyclomatic: int | None = None,
                       connected: bool | None = None,
                       assert_planar: bool = False) -> CertificateVerdict:
    """Degree bounds for Laplacian walks on sparse graph families: k-cyclic
    always, and planar / triangle-free / C4-free / C5-free under the
    --assert-planar flag.  All comparisons are exact rationals."""
    rule = "degree-planar-family-LQ"
    if kind is MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a Laplacian walk on a unit-weight graph")
    conn = is_connected_flag(g, connected)
    st = stats or degree_stats(g)
    fl = flags or cycle_flags(g)
    n = g.n
    deg = st.deg[u]
    bounds: list[tuple[str, Fraction]] = []
    if conn:
        k = cyclomatic if cyclomatic is not None else g.edge_count - n + 1
        bounds.append(("k-cyclic", Fraction(4 * n + 4 * (k - 1), n)))
    if assert_planar:
        bounds.append(("planar", Fraction(12 * n - 24, n)))
        if not fl.has_triangle and n >= 3:
            bounds.append(("triangle-free-planar", Fraction(8 * n - 16, n)))
        if not fl.has_c4 and n >= 4:
            bounds.append(("c4-free-planar", Fraction(60 * (n - 2), 7 * n)))
        if not fl.has_c5 and n >= 11:
            bounds.append(("c5-free-planar", Fraction(4 * (12 * n - 33), 5 * n)))
    if not bounds:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="no family bound applies (disconnected and not asserted planar)")
    evaluated = tuple((name, b) for name, b in bounds)
    for name, bound in bounds:
        if deg > bound:
            return _vertex(rule, u, Verdict.RULED_OUT, violated=name, degree=deg,
                           bound=bound, bounds=evaluated)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, degree=deg, bounds=evaluated)


def cert_tree_suite(g: WeightedGraph, kind: MatrixKind,
                    facts: GraphFacts | None = None) -> list[CertificateVerdict]:
    """Graph-level parity and pattern rules for unit-weight trees and
    bipartite unicyclic graphs under the adjacency walk."""
    out: list[CertificateVerdict] = []
    if kind is not MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT:
        return [_graph("tree-suite", Verdict.NOT_APPLICABLE,
                       note="requires a unit-weight graph under the adjacency walk")]
    st = facts.stats if facts else degree_stats(g)
    conn = facts.connected if facts else len(connected_components(g)) == 1
    if not conn:
        return [_graph("tree-suite", Verdict.NOT_APPLICABLE, note="disconnected")]
    tree = g.edge_count == g.n - 1
    unicyclic = g.edge_count == g.n
    bp = facts.bip if facts else bipartition(g)
    twins = facts.twins if facts else find_twin_pairs(g)
    n = g.n
    deg = st.deg
    count23 = sum(1 for d in deg if d % 4 in (2, 3))

    if tree and n >= 3 and sorted(deg) == [1, 1] + [2] * (n - 2):
        out.append(_graph("path-graph", Verdict.RULED_OUT, n=n))

    if tree and n >= 5 and n % 2 == 0:
        verdict = Verdict.RULED_OUT if count23 % 2 == 0 else Verdict.INCONCLUSIVE
        out.append(_graph("tree-degree-parity", verdict, count_deg_2_3_mod4=count23, n=n))

    if unicyclic and bp.present and n % 2 == 0 and any(d != 2 for d in deg):
        bad = (count23 % 2 == 0) != (n % 4 == 0)
        out.append(_graph("unicyclic-degree-parity",
                          Verdict.RULED_OUT if bad else Verdict.INCONCLUSIVE,
                          count_deg_2_3_mod4=count23, n_mod4=n % 4))

    if tree and n >= 5 and n % 2 == 0 and is_caterpillar(g):
        pendants = sum(1 for d in deg if d == 1)
        if twins:
            out.append(_graph("caterpillar-pendant-parity", Verdict.RULED_OUT,
                              route="twins", twin_pair=(twins[0][0], twins[0][1])))
        elif pendants % 2 == 0:
            out.append(_graph("caterpillar-pendant-parity", Verdict.RULED_OUT,
                              route="even-pendants", pendants=pendants))
        else:
            out.append(_graph("caterpillar-pendant-parity", Verdict.INCONCLUSIVE,
                              pendants=pendants))

    if tree and n >= 5 and all(d != 2 for d in deg):
        out.append(_graph("tree-no-degree-two", Verdict.RULED_OUT, n=n,
                          note="such a tree has twins, which forbid mixing at this order"))

    if tree:
        inner = _pendant_tree_pattern(g, deg)
        if inner is not None:
            inner_degrees = inner
            if all(d % 4 in (1, 2) for d in inner_degrees):
                out.append(_graph("pendant-tree-pattern", Verdict.RULED_OUT,
                                  inner_degrees=tuple(sorted(inner_degrees))))
            else:
                out.append(_graph("pendant-tree-pattern", Verdict.INCONCLUSIVE,
                                  inner_degrees=tuple(sorted(inner_degrees))))
    if not out:
        out.append(_graph("tree-suite", Verdict.INCONCLUSIVE,
                          note="no tree or unicyclic rule applies"))
    return out


def _pendant_tree_pattern(g: WeightedGraph, deg) -> list[int] | None:
    """If g is a tree obtained from a smaller tree by attaching one pendant
    to every vertex, return the inner tree's degree list (in g minus one)."""
    n = g.n
    if n < 4 or n % 2 != 0:
        return None
    pendants = [v for v in range(n) if deg[v] == 1]
    if len(pendants) != n // 2:
        return None
    adj = adjacency_lists(g)
    inner = [v for v in range(n) if deg[v] > 1]
    attached = set()
    for p in pendants:
        host = adj[p][0]
        if deg[host] == 1 or host in attached:
            return None
        attached.add(host)
    if len(attached) != len(inner):
        return None
    return [deg[v] - 1 for v in inner]


def cert_pendant_pair(g: WeightedGraph, kind: MatrixKind,
                      pairs: list[PendantPair] | None = None,
                      include_asserted: bool = False) -> list[CertificateVerdict]:
    """Two pendants sharing a support vertex give the exact eigenvector
    e_u - (alpha/beta) e_w for the adjacency walk (and for the Laplacians
    when alpha = beta); on five or more vertices its inequality always fails
    at one of the pendants."""
    rule = "pendant-pair"
    pp = pairs if pairs is not None else pendant_pairs_with_common_neighbor(g)
    if not pp:
        return [_graph(rule, Verdict.NOT_APPLICABLE, note="no pendant pair")]
    out: list[CertificateVerdict] = []
    n = g.n
    for pair in pp:
        if kind is not MatrixKind.ADJACENCY and pair.alpha != pair.beta:
            out.append(_graph(rule, Verdict.NOT_APPLICABLE,
                              note="Laplacian walks need equal pendant weights",
                              pair=(pair.u, pair.w)))
            continue
        if n <= 4:
            out.append(_graph(rule, Verdict.INCONCLUSIVE, pair=(pair.u, pair.w),
                              note="order at most four"))
            continue
        alpha = Fraction(pair.alpha)
        beta = Fraction(pair.beta)
        fired = False
        if n * beta * beta > (alpha + beta) ** 2:
            out.append(_vertex(rule, pair.u, Verdict.RULED_OUT, partner=pair.w,
                               support=pair.v, alpha=pair.alpha, beta=pair.beta))
            fired = True
        if n * alpha * alpha > (alpha + beta) ** 2:
            out.append(_vertex(rule, pair.w, Verdict.RULED_OUT, partner=pair.u,
                               support=pair.v, alpha=pair.alpha, beta=pair.beta))
            fired = True
        if not fired and include_asserted:
            # unreachable for n >= 5 (one side always fails), kept for completeness
            out.append(_graph("pendant-pair-coexistence", Verdict.RULED_OUT,
                              tier=Tier.PAPER_ASSERTED, pair=(pair.u, pair.w),
                              note="at most one pendant of the pair can mix"))
    return out


# ---------------------------------------------------------------------------
# Pipelines

RULE_ORDER = (
    "connectivity", "twin-vertex", "degree-vs-average-LQ", "degree-common-neighbors-A",
    "degree-unicyclic-c4-A", "degree-c4free-planar-A", "degree-planar-family-LQ",
    "bipartite-degree-parity", "pendant-pair", "path-graph", "tree-degree-parity",
    "unicyclic-degree-parity", "caterpillar-pendant-parity", "tree-no-degree-two",
    "pendant-tree-pattern", "subdivision-order", "bipartite-order-mod4",
    "bipartite-singular-square", "bipartite-kernel-square", "twin-subgraph",
    "eigenvector-inequality", "bipartite-kernel-part-size", "bipartite-kernel-part-mod4",
    "bipartite-balance", "pendant-pair-coexistence", "tree-suite",
)
_RULE_RANK = {name: i for i, name in enumerate(RULE_ORDER)}


@dataclass(frozen=True)
class CertificateReport:
    n: int
    kind: MatrixKind
    tier: Tier
    vertex_verdicts: tuple[tuple[int, tuple[CertificateVerdict, ...]], ...]
    graph_verdicts: tuple[CertificateVerdict, ...]
    surviving_vertices: tuple[int, ...]
    twin_search_truncated: bool = False
    signed_enumeration_truncated: bool = False

    def verdicts_for(self, u: int) -> tuple[CertificateVerdict, ...]:
        for v, verdicts in self.vertex_verdicts:
            if v == u:
                return verdicts
        raise KeyError(u)

    @property
    def graph_ruled_out(self) -> bool:
        """Strict graph-level rule-out: a graph-scope strict rule fired, or a
        strict rule fired at some vertex (mixing everywhere is required)."""
        if any(v.fired and v.tier is Tier.STRICT for v in self.graph_verdicts):
            return True
        return any(v.fired and v.tier is Tier.STRICT
                   for _, vs in self.vertex_verdicts for v in vs)

    def fired_rules(self) -> list[str]:
        fired = {v.rule_id for v in self.graph_verdicts if v.fired}
        fired.update(v.rule_id for _, vs in self.vertex_verdicts for v in vs if v.fired)
        return sorted(fired)


def _sort_verdicts(verdicts):
    return tuple(sorted(verdicts, key=lambda v: (_RULE_RANK.get(v.rule_id, 99),
                                                 v.scope[1] if v.scope[1] is not None else -1)))


def certify_vertex(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                   u: int, opts: CertifyOptions = CertifyOptions(),
                   tol: Tolerances = DEFAULT_TOLERANCES,
                   facts: GraphFacts | None = None) -> tuple[CertificateVerdict, ...]:
    """All vertex-scope certificates for one vertex, cheap exact rules first."""
    if facts is None:
        facts = collect_facts(g, kind, opts, tol)
    include_asserted = opts.tier is Tier.PAPER_ASSERTED
    verdicts: list[CertificateVerdict] = []
    if not facts.connected:
        comp = next(c for c in facts.components if u in c)
        verdicts.append(_vertex("connectivity", u, Verdict.RULED_OUT,
                                components=len(facts.components), component_size=len(comp)))
    verdicts.append(cert_twins(g, u, twins=facts.twins))
    verdicts.append(cert_degree_LQ(g, u, kind, stats=facts.stats))
    verdicts.extend(cert_degree_A_c4free(g, u, kind, stats=facts.stats, flags=facts.flags,
                                         connected=facts.connected,
                                         assert_planar=opts.assert_planar))
    verdicts.append(cert_planar_family(g, u, kind, stats=facts.stats, flags=facts.flags,
                                       cyclomatic=facts.cyclomatic, connected=facts.connected,
                                       assert_planar=opts.assert_planar))
    verdicts.append(cert_bipartite_parity(g, u, kind, stats=facts.stats, bip=facts.bip))
    verdicts.extend(v for v in cert_pendant_pair(g, kind, pairs=facts.pendant_pairs,
                                                 include_asserted=include_asserted)
                    if v.scope == (VERTEX_SCOPE, u))
    verdicts.extend(cert_kernel_vector(g, u, kind, bip=facts.bip,
                                       kernel_basis=facts.kernel_basis,
                                       signed_pool=facts.signed_vectors,
                                       include_asserted=include_asserted))
    verdicts.append(cert_twin_subgraphs(g, u, facts.twin_witnesses, kind, tol=tol))
    verdicts.append(cert_eigenvector_inequality(g, dec, u, kind,
                                                signed_pool=facts.signed_vectors,
                                                use_float_rules=opts.use_float_rules, tol=tol))
    if opts.tier is Tier.STRICT:
        verdicts = [v for v in verdicts if v.tier is Tier.STRICT]
    return _sort_verdicts(verdicts)


def certify_graph(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                  opts: CertifyOptions = CertifyOptions(),
                  tol: Tolerances = DEFAULT_TOLERANCES) -> CertificateReport:
    """Run every applicable certificate at every vertex plus the graph-level
    rules, and aggregate: graph-wide mixing needs mixing at every vertex, so
    any strict vertex firing rules the whole graph out."""
    facts = collect_facts(g, kind, opts, tol)
    include_asserted = opts.tier is Tier.PAPER_ASSERTED
    vertex_verdicts = []
    surviving = []
    for u in range(g.n):
        vs = certify_vertex(g, dec, kind, u, opts, tol, facts)
        vertex_verdicts.append((u, vs))
        if not any(v.fired and v.tier is Tier.STRICT for v in vs):
            surviving.append(u)
    graph_verdicts: list[CertificateVerdict] = []
    if facts.connected:
        graph_verdicts.extend(cert_connectivity(g, components=facts.components))
    graph_verdicts.extend(cert_tree_suite(g, kind, facts=facts))
    graph_verdicts.extend(cert_bipartite_global(
        g, kind, bip=facts.bip, kernel_basis=facts.kernel_basis,
        signed_pool=facts.signed_vectors, include_asserted=include_asserted,
        subdivision_preimage=opts.subdivision_preimage))
    graph_verdicts.extend(v for v in cert_pendant_pair(g, kind, pairs=facts.pendant_pairs,
                                                       include_asserted=include_asserted)
                          if v.scope[0] == GRAPH_SCOPE)
    if opts.tier is Tier.STRICT:
        graph_verdicts = [v for v in graph_verdicts if v.tier is Tier.STRICT]
    return CertificateReport(
        n=g.n, kind=kind, tier=opts.tier,
        vertex_verdicts=tuple(vertex_verdicts),
        graph_verdicts=_sort_verdicts(graph_verdicts),
        surviving_vertices=tuple(surviving),
        twin_search_truncated=facts.twin_search_truncated,
        signed_enumeration_truncated=facts.signed_truncated)
