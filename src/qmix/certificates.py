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

Each rule reads the `GraphFacts` of one (graph, matrix) pair, and the
`RULES` table is the one place where a rule, its scope, its tier and its
output position are declared.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .graphs import (Bipartition, CycleFlags, DegreeStats, MatrixKind, PendantPair,
                     TwinKind, TwinSubgraphWitness, WeightClass, WeightedGraph,
                     bipartition, connected_components, cycle_flags,
                     degree_stats, is_caterpillar,
                     pendant_pairs_with_common_neighbor, search_twin_subgraphs,
                     verify_twin_subgraphs)
from .spectral import NO_SIGNED_VECTORS, SpectralDecomposition, exact_kernel, signed_kernel_vectors
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

TWIN_SUBGRAPH_SIZE = 2  # part-size bound for the twin-subgraph search


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
    subdivision_preimage: tuple[int, int] | None = None  # (n, |E|) of a known pre-image


# ---------------------------------------------------------------------------
# Shared per-graph facts

@dataclass(frozen=True, eq=False)
class GraphFacts:
    """Everything a rule reads about one (graph, matrix) pair."""

    g: WeightedGraph
    kind: MatrixKind
    dec: SpectralDecomposition | None  # None disables the floating route
    opts: CertifyOptions
    tol: Tolerances
    stats: DegreeStats
    components: list[list[int]]
    bip: Bipartition
    flags: CycleFlags
    twins: list[tuple[int, int, TwinKind]]
    pendant_pairs: list[PendantPair]
    twin_witnesses: tuple[TwinSubgraphWitness, ...]
    twin_search_truncated: bool
    kernel_basis: list[tuple[int, ...]]  # exact; empty for real weights and under L and Q
    signed_vectors: np.ndarray  # (k, n) int8 signed kernel vectors, sorted rows
    signed_truncated: bool
    _twin_checked: dict[TwinSubgraphWitness, list | None] = field(
        default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    def twin_check(self, w: TwinSubgraphWitness) -> list[tuple[int, ...]] | None:
        """Verify a twin witness and return the exact kernel vectors of its
        inner part when it is a false pair under the integer adjacency walk
        (None otherwise); both are computed once per witness and graph."""
        if w not in self._twin_checked:
            if not verify_twin_subgraphs(self.g, w):
                raise ValueError(f"twin-subgraph witness failed verification: {w}")
            false_pair = w.kind is TwinKind.FALSE and self.kind is MatrixKind.ADJACENCY
            self._twin_checked[w] = _inner_kernel_vectors(self.g, w) \
                if false_pair and self.g.has_integer_weights() else None
        return self._twin_checked[w]

    @cached_property
    def signed_nnz(self) -> np.ndarray:
        """Nonzero count of each signed kernel vector."""
        return np.count_nonzero(self.signed_vectors, axis=1)

    @cached_property
    def signed_part_nnz(self) -> dict[tuple[int, ...], np.ndarray]:
        """Nonzero count of each signed kernel vector inside each bipartition part."""
        return {part: np.count_nonzero(self.signed_vectors[:, list(part)], axis=1)
                for part in (self.bip.b1, self.bip.b2)}

    @cached_property
    def graph_row_verdicts(self) -> tuple[dict[tuple, list[CertificateVerdict]], ...]:
        """The verdicts of each graph-scope row of RULES, grouped by scope and
        evaluated once per graph (empty for the other rows)."""
        out = []
        for row in RULES:
            grouped: dict[tuple, list[CertificateVerdict]] = {}
            if row.scope == GRAPH_SCOPE and row.runs_at(self.opts.tier):
                for v in row.run(self):
                    grouped.setdefault(v.scope, []).append(v)
            out.append(grouped)
        return tuple(out)


def collect_facts(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                  opts: CertifyOptions = CertifyOptions(),
                  tol: Tolerances = DEFAULT_TOLERANCES) -> GraphFacts:
    """The facts every rule reads, for one graph under one walk matrix.
    Only the adjacency walk builds the exact kernel and its signed vectors:
    under L and Q, E_0 e_u rules out every vertex a signed kernel vector
    could (README, Certificate tiers), and the truncation flag still means
    kernel dimension > signed_budget, read off the traversal."""
    basis, signed = [], NO_SIGNED_VECTORS
    if kind is MatrixKind.ADJACENCY:
        basis = exact_kernel(g) if g.has_integer_weights() else []
        signed = signed_kernel_vectors(basis, max_dim=tol.signed_budget)
    elif g.has_integer_weights():
        t = g.traversal
        dim = len(t.components) if kind is MatrixKind.LAPLACIAN else sum(t.bipartite)
        signed = replace(signed, truncated=dim > tol.signed_budget)
    tw = search_twin_subgraphs(g, a_max=TWIN_SUBGRAPH_SIZE, subset_budget=tol.subset_budget)
    return GraphFacts(
        g=g, kind=kind, dec=dec, opts=opts, tol=tol, stats=degree_stats(g),
        components=connected_components(g), bip=bipartition(g),
        flags=cycle_flags(g), twins=tw.twin_pairs,
        pendant_pairs=pendant_pairs_with_common_neighbor(g),
        twin_witnesses=tw.witnesses, twin_search_truncated=tw.truncated,
        kernel_basis=basis, signed_vectors=signed.vectors, signed_truncated=signed.truncated)


# ---------------------------------------------------------------------------
# Individual certificates

def cert_connectivity(facts: GraphFacts) -> list[CertificateVerdict]:
    """Disconnected graphs cannot mix at any vertex (block-diagonal walk)."""
    comps = facts.components
    if facts.connected:
        return [_graph("connectivity", Verdict.INCONCLUSIVE, components=1)]
    size = {v: len(c) for c in comps for v in c}
    return [_vertex("connectivity", u, Verdict.RULED_OUT,
                    components=len(comps), component_size=size[u])
            for u in range(facts.n)]


def cert_eigenvector_inequality(facts: GraphFacts, u: int) -> CertificateVerdict:
    """sqrt(n) |v_u| <= sum_j |v_j| must hold for every eigenvector v.

    Exact signed kernel vectors (adjacency walk only) are tested exactly;
    the canonical per-eigenspace vectors E_lambda e_u are tested in floating
    point with the safety margin.
    """
    rule = "eigenvector-inequality"
    dec, tol = facts.dec, facts.tol
    n = facts.n
    pool = facts.signed_vectors
    if len(pool):
        # a signed vector has |x_u| = 1 where it is nonzero, and sum |x_j| = nnz
        vec = _first_row(pool, (pool[:, u] != 0) & (n > facts.signed_nnz ** 2))
        if vec is not None:
            return _vertex(rule, u, Verdict.RULED_OUT, route="exact-kernel",
                           vector=vec, lhs_squared=n * vec[u] * vec[u],
                           rhs=sum(abs(x) for x in vec))
    if dec is None:
        return _vertex(rule, u, Verdict.INCONCLUSIVE, note="no decomposition supplied")
    margin = tol.safety(n)
    best = -math.inf
    best_idx = None
    for i, vec in enumerate(dec.projector_rows(u)):  # E e_u, read as row u (E is symmetric)
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


def cert_degree_LQ(facts: GraphFacts, u: int) -> CertificateVerdict:
    """Laplacian walks: deg u <= twice the average degree (unit weights)."""
    rule = "degree-vs-average-LQ"
    g, st = facts.g, facts.stats
    if facts.kind is MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a Laplacian walk on a unit-weight graph")
    deg = st.deg[u]
    bound = Fraction(4 * st.edge_count, g.n)
    if deg > bound:
        return _vertex(rule, u, Verdict.RULED_OUT, degree=deg, bound=bound)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, degree=deg, bound=bound)


def cert_degree_A_c4free(facts: GraphFacts, u: int) -> list[CertificateVerdict]:
    """Adjacency walks on C4-free graphs: deg u <= 2(|E| + q)/n, with the
    unicyclic-with-C4 and asserted-planar variants."""
    out = []
    g, st, fl = facts.g, facts.stats, facts.flags
    applicable = facts.kind is MatrixKind.ADJACENCY and g.weight_class is WeightClass.UNIT
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
    unicyclic = facts.connected and g.edge_count == n
    if applicable and unicyclic and fl.has_c4:
        bound = Fraction(2 * (n + q + 2), n)
        verdict = Verdict.RULED_OUT if deg > bound else Verdict.INCONCLUSIVE
        out.append(_vertex(rule, u, verdict, degree=deg, bound=bound, dist2_pairs=q))
    else:
        out.append(_vertex(rule, u, Verdict.NOT_APPLICABLE,
                           note="requires a unicyclic graph whose cycle is a C4"))

    rule = "degree-c4free-planar-A"
    if applicable and facts.opts.assert_planar and not fl.has_c4 and n >= 4:
        bound = Fraction(30 * (n - 2) + 14 * q, 7 * n)
        verdict = Verdict.RULED_OUT if deg > bound else Verdict.INCONCLUSIVE
        out.append(_vertex(rule, u, verdict, degree=deg, bound=bound, dist2_pairs=q))
    else:
        out.append(_vertex(rule, u, Verdict.NOT_APPLICABLE,
                           note="requires --assert-planar and a C4-free graph on >= 4 vertices"))
    return out


def cert_twins(facts: GraphFacts, u: int) -> CertificateVerdict:
    """A vertex with a twin cannot mix once the graph has five vertices."""
    rule = "twin-vertex"
    partner = None
    kind = None
    for a, b, k in facts.twins:
        if a == u or b == u:
            partner = b if a == u else a
            kind = k
            break
    if partner is None:
        return _vertex(rule, u, Verdict.INCONCLUSIVE, note="no twin")
    if facts.n >= 5:
        return _vertex(rule, u, Verdict.RULED_OUT, twin=partner, twin_kind=kind.value,
                       n=facts.n)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, twin=partner, twin_kind=kind.value,
                   note="order at most four")


def cert_twin_subgraphs(facts: GraphFacts, u: int) -> CertificateVerdict:
    """Twin-subgraph bounds: true pairs force n <= 4a^2 (any walk matrix);
    false pairs feed exact eigenvectors of the inner part through the
    doubled eigenvector inequality (adjacency walk only)."""
    rule = "twin-subgraph"
    n = facts.n
    relevant = [w for w in facts.twin_witnesses if w.contains(u)]
    if not relevant:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE, note="no witness contains the vertex")
    for w in relevant:
        inner = facts.twin_check(w)
        a = w.size
        if w.kind is TwinKind.TRUE:
            if n > 4 * a * a:
                return _vertex(rule, u, Verdict.RULED_OUT, route="true-pair-size",
                               part_size=a, bound=4 * a * a, n=n,
                               g_vertices=w.g_vertices, h_vertices=w.h_vertices)
        elif inner is not None:
            hit = _false_twin_violation(n, u, w, inner)
            if hit is not None:
                vec, lhs_sq, rhs = hit
                return _vertex(rule, u, Verdict.RULED_OUT, route="false-pair-eigenvector",
                               inner_vector=vec, lhs_squared=lhs_sq, rhs_doubled=rhs,
                               g_vertices=w.g_vertices, h_vertices=w.h_vertices)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, witnesses=len(relevant))


def _inner_kernel_vectors(g: WeightedGraph, w: TwinSubgraphWitness) -> list[tuple[int, ...]]:
    """Signed kernel vectors of the inner part's adjacency matrix, then the
    basis vectors not among them."""
    index = {v: i for i, v in enumerate(w.g_vertices)}
    inner = WeightedGraph.build(len(index), [(index[a], index[b], wt) for a, b, wt in g.edges
                                             if a in index and b in index])
    basis = exact_kernel(inner)
    vectors = [tuple(r) for r in signed_kernel_vectors(basis, max_dim=10).vectors.tolist()]
    vectors.extend(b for b in basis if b not in vectors)
    return vectors


def _false_twin_violation(n: int, u: int, w: TwinSubgraphWitness, vectors):
    """Exact kernel vectors x of the inner part, lifted to (x, -x, 0), must
    satisfy n x_u^2 <= (2 sum |x_j|)^2."""
    pos = {v: i for i, v in enumerate(w.g_vertices)}
    pos.update((h, pos[gv]) for gv, h in (w.mapping() or {}).items())
    if u not in pos:
        return None
    for vec in vectors:
        xu = vec[pos[u]]
        if xu == 0:
            continue
        lhs_sq = n * xu * xu
        rhs = 2 * sum(abs(x) for x in vec)
        if lhs_sq > rhs * rhs:
            return vec, lhs_sq, rhs
    return None


def cert_bipartite_parity(facts: GraphFacts, u: int) -> CertificateVerdict:
    """Bipartite adjacency walks force n * deg u even, and tie the parity of
    the count of vertices with degree 2 or 3 (mod 4) to the parity of
    |E| - n deg(u) / 2."""
    rule = "bipartite-degree-parity"
    g, st = facts.g, facts.stats
    if facts.kind is not MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT \
            or not facts.bip.present:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a unit-weight bipartite graph under the adjacency walk")
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


def cert_kernel_vector(facts: GraphFacts, u: int) -> CertificateVerdict:
    """Singular bipartite adjacency walks with a kernel component at u: the
    order must be a perfect square, and each signed kernel vector restricted
    to u's part must have sqrt(n) <= nnz with matching parity."""
    rule = "bipartite-kernel-square"
    g, bp = facts.g, facts.bip
    if facts.kind is not MatrixKind.ADJACENCY or not g.has_integer_weights() or not bp.present:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires an integer-weight bipartite graph under the adjacency walk")
    if not any(vec[u] != 0 for vec in facts.kernel_basis):
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="no kernel component at the vertex")
    n = g.n
    root = math.isqrt(n)
    if root * root != n:
        return _vertex(rule, u, Verdict.RULED_OUT, route="not-a-square", n=n)
    part_u = bp.part_of(u)
    pool = facts.signed_vectors
    if len(pool):
        m = facts.signed_part_nnz[part_u]
        bad = (pool[:, u] != 0) & ((root > m) | ((root - m) % 2 != 0))
        vec = _first_row(pool, bad)
        if vec is not None:
            return _vertex(rule, u, Verdict.RULED_OUT, route="signed-vector-nnz",
                           vector=vec, restricted_nnz=sum(1 for i in part_u if vec[i]),
                           sqrt_n=root)
    return _vertex(rule, u, Verdict.INCONCLUSIVE, sqrt_n=root, part_size=len(part_u))


def _first_row(pool: np.ndarray, mask: np.ndarray) -> tuple[int, ...] | None:
    """The first row of the pool where mask holds, as a tuple of ints."""
    hit = np.flatnonzero(mask)
    return tuple(pool[hit[0]].tolist()) if hit.size else None


def cert_kernel_part_size(facts: GraphFacts, u: int) -> list[CertificateVerdict]:
    """Asserted tier: the literal phrasing of the kernel rule's bound, against
    |B1| itself, where the strict form is inconclusive.  It breaks on the
    4-vertex star, which provably mixes."""
    if cert_kernel_vector(facts, u).verdict is not Verdict.INCONCLUSIVE:
        return []
    root = math.isqrt(facts.n)
    part_size = len(facts.bip.part_of(u))
    if not (root > part_size or (root - part_size) % 2 != 0):
        return []
    pool = facts.signed_vectors
    hit = _first_row(pool, pool[:, u] != 0) if len(pool) else None
    if hit is None:
        return []
    return [_vertex("bipartite-kernel-part-size", u, Verdict.RULED_OUT,
                    tier=Tier.PAPER_ASSERTED, vector=hit, part_size=part_size,
                    sqrt_n=root,
                    note="literal part-size form; known to fail on the 4-vertex star, "
                         "which admits uniform mixing - kept at the asserted tier")]


def _bipartite_adjacency(facts: GraphFacts) -> bool:
    return facts.kind is MatrixKind.ADJACENCY and facts.bip.present


def cert_bipartite_global(facts: GraphFacts) -> list[CertificateVerdict]:
    """Graph-level bipartite obstructions for the adjacency walk.

    On more than two vertices the order must be divisible by four, and a
    singular integer-weighted bipartite graph needs an even perfect square
    order.  (Orders one and two are genuine exceptions: the single vertex
    and the weighted single edge both mix.)
    """
    if not _bipartite_adjacency(facts):
        return [_graph("bipartite-order-mod4", Verdict.NOT_APPLICABLE,
                       note="requires a bipartite graph under the adjacency walk")]
    out: list[CertificateVerdict] = []
    n = facts.n
    if facts.opts.subdivision_preimage is not None:
        ny, my = facts.opts.subdivision_preimage
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
    if facts.kernel_basis:
        root = math.isqrt(n)
        singular_ok = root * root == n and n % 2 == 0
        out.append(_graph("bipartite-singular-square",
                          Verdict.INCONCLUSIVE if singular_ok else Verdict.RULED_OUT,
                          n=n, kernel_dimension=len(facts.kernel_basis)))
    return out


def cert_kernel_part_mod4(facts: GraphFacts) -> list[CertificateVerdict]:
    """Asserted tier: a singular bipartite graph with a signed kernel vector
    needs both part sizes congruent to 0 or to 2 mod 4."""
    if not _bipartite_adjacency(facts) or len(facts.signed_vectors) == 0:
        return []
    p1, p2 = len(facts.bip.b1) % 4, len(facts.bip.b2) % 4
    bad = not (p1 == p2 and p1 in (0, 2))
    return [_graph("bipartite-kernel-part-mod4",
                   Verdict.RULED_OUT if bad else Verdict.INCONCLUSIVE,
                   tier=Tier.PAPER_ASSERTED, part_sizes_mod4=(p1, p2),
                   note="literal part-size congruence; asserted tier only")]


def cert_bipartite_balance(facts: GraphFacts) -> list[CertificateVerdict]:
    """Asserted tier: the balance bound min(|B1|, |B2|) >= sqrt(n/2)."""
    if not _bipartite_adjacency(facts):
        return []
    m = min(len(facts.bip.b1), len(facts.bip.b2))
    n = facts.n
    bad = 2 * m * m < n
    return [_graph("bipartite-balance", Verdict.RULED_OUT if bad else Verdict.INCONCLUSIVE,
                   tier=Tier.PAPER_ASSERTED, min_part=m, n=n,
                   note="literal balance bound; fails on the 4-vertex star, "
                        "which admits uniform mixing - kept at the asserted tier")]


def cert_planar_family(facts: GraphFacts, u: int) -> CertificateVerdict:
    """Degree bounds for Laplacian walks on sparse graph families: k-cyclic
    always, and planar / triangle-free / C4-free / C5-free under the
    --assert-planar flag.  All comparisons are exact rationals."""
    rule = "degree-planar-family-LQ"
    g, fl = facts.g, facts.flags
    if facts.kind is MatrixKind.ADJACENCY or g.weight_class is not WeightClass.UNIT:
        return _vertex(rule, u, Verdict.NOT_APPLICABLE,
                       note="requires a Laplacian walk on a unit-weight graph")
    n = g.n
    deg = facts.stats.deg[u]
    bounds: list[tuple[str, Fraction]] = []
    if facts.connected:
        k = g.edge_count - n + 1
        bounds.append(("k-cyclic", Fraction(4 * n + 4 * (k - 1), n)))
    if facts.opts.assert_planar:
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


def _unit_adjacency(facts: GraphFacts) -> bool:
    return facts.kind is MatrixKind.ADJACENCY and facts.g.weight_class is WeightClass.UNIT


def cert_tree_suite(facts: GraphFacts) -> list[CertificateVerdict]:
    """Graph-level parity and pattern rules for connected unit-weight trees
    and bipartite unicyclic graphs under the adjacency walk; empty when none
    of them applies."""
    out: list[CertificateVerdict] = []
    if not _unit_adjacency(facts) or not facts.connected:
        return out
    g = facts.g
    tree = g.edge_count == g.n - 1
    unicyclic = g.edge_count == g.n
    twins = facts.twins
    n = g.n
    deg = facts.stats.deg
    count23 = sum(1 for d in deg if d % 4 in (2, 3))

    if tree and n >= 3 and sorted(deg) == [1, 1] + [2] * (n - 2):
        out.append(_graph("path-graph", Verdict.RULED_OUT, n=n))

    if tree and n >= 5 and n % 2 == 0:
        verdict = Verdict.RULED_OUT if count23 % 2 == 0 else Verdict.INCONCLUSIVE
        out.append(_graph("tree-degree-parity", verdict, count_deg_2_3_mod4=count23, n=n))

    if unicyclic and facts.bip.present and n % 2 == 0 and any(d != 2 for d in deg):
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
            verdict = Verdict.RULED_OUT if all(d % 4 in (1, 2) for d in inner) \
                else Verdict.INCONCLUSIVE
            out.append(_graph("pendant-tree-pattern", verdict, inner_degrees=tuple(sorted(inner))))
    return out


def cert_tree_suite_fallback(facts: GraphFacts) -> list[CertificateVerdict]:
    """The tree-suite entry of a graph on which none of its rules applies,
    with the reason."""
    if not _unit_adjacency(facts):
        return [_graph("tree-suite", Verdict.NOT_APPLICABLE,
                       note="requires a unit-weight graph under the adjacency walk")]
    if not facts.connected:
        return [_graph("tree-suite", Verdict.NOT_APPLICABLE, note="disconnected")]
    if cert_tree_suite(facts):
        return []
    return [_graph("tree-suite", Verdict.INCONCLUSIVE, note="no tree or unicyclic rule applies")]


def _pendant_tree_pattern(g: WeightedGraph, deg) -> list[int] | None:
    """If g is a tree obtained from a smaller tree by attaching one pendant
    to every vertex, return the inner tree's degree list (in g minus one)."""
    n = g.n
    if n < 4 or n % 2 != 0:
        return None
    pendants = [v for v in range(n) if deg[v] == 1]
    if len(pendants) != n // 2:
        return None
    inner = [v for v in range(n) if deg[v] > 1]
    attached = set()
    for p in pendants:
        host = next(iter(g.neighbourhoods[p]))
        if deg[host] == 1 or host in attached:
            return None
        attached.add(host)
    if len(attached) != len(inner):
        return None
    return [deg[v] - 1 for v in inner]


def cert_pendant_pair(facts: GraphFacts) -> list[CertificateVerdict]:
    """Two pendants sharing a support vertex give the exact eigenvector
    e_u - (alpha/beta) e_w for the adjacency walk (and for the Laplacians
    when alpha = beta); on five or more vertices its inequality always fails
    at one of the pendants."""
    rule = "pendant-pair"
    if not facts.pendant_pairs:
        return [_graph(rule, Verdict.NOT_APPLICABLE, note="no pendant pair")]
    out: list[CertificateVerdict] = []
    n = facts.n
    for pair in facts.pendant_pairs:
        if facts.kind is not MatrixKind.ADJACENCY and pair.alpha != pair.beta:
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
        if n * beta * beta > (alpha + beta) ** 2:
            out.append(_vertex(rule, pair.u, Verdict.RULED_OUT, partner=pair.w,
                               support=pair.v, alpha=pair.alpha, beta=pair.beta))
        if n * alpha * alpha > (alpha + beta) ** 2:
            out.append(_vertex(rule, pair.w, Verdict.RULED_OUT, partner=pair.u,
                               support=pair.v, alpha=pair.alpha, beta=pair.beta))
    return out


# ---------------------------------------------------------------------------
# Pipelines

@dataclass(frozen=True)
class Rule:
    """One row of the rule table.  A vertex-scope evaluator takes
    (facts, u); a graph-scope one takes facts, runs once per graph and may
    also return verdicts scoped to single vertices."""

    ids: tuple[str, ...]
    scope: str
    tier: Tier  # asserted rows run only for reports at the asserted tier
    evaluate: Callable

    def runs_at(self, tier: Tier) -> bool:
        return self.tier is Tier.STRICT or tier is Tier.PAPER_ASSERTED

    def run(self, facts: GraphFacts, *u: int) -> list[CertificateVerdict]:
        out = self.evaluate(facts, *u)
        return [out] if isinstance(out, CertificateVerdict) else out


_S, _A = Tier.STRICT, Tier.PAPER_ASSERTED
# Cheap exact rules first.  The row order is the order of the verdicts in
# every report.
RULES = (
    Rule(("connectivity",), GRAPH_SCOPE, _S, cert_connectivity),
    Rule(("twin-vertex",), VERTEX_SCOPE, _S, cert_twins),
    Rule(("degree-vs-average-LQ",), VERTEX_SCOPE, _S, cert_degree_LQ),
    Rule(("degree-common-neighbors-A", "degree-unicyclic-c4-A", "degree-c4free-planar-A"),
         VERTEX_SCOPE, _S, cert_degree_A_c4free),
    Rule(("degree-planar-family-LQ",), VERTEX_SCOPE, _S, cert_planar_family),
    Rule(("bipartite-degree-parity",), VERTEX_SCOPE, _S, cert_bipartite_parity),
    Rule(("pendant-pair",), GRAPH_SCOPE, _S, cert_pendant_pair),
    Rule(("path-graph", "tree-degree-parity", "unicyclic-degree-parity",
          "caterpillar-pendant-parity", "tree-no-degree-two", "pendant-tree-pattern"),
         GRAPH_SCOPE, _S, cert_tree_suite),
    Rule(("subdivision-order", "bipartite-order-mod4", "bipartite-singular-square"),
         GRAPH_SCOPE, _S, cert_bipartite_global),
    Rule(("bipartite-kernel-square",), VERTEX_SCOPE, _S, cert_kernel_vector),
    Rule(("twin-subgraph",), VERTEX_SCOPE, _S, cert_twin_subgraphs),
    Rule(("eigenvector-inequality",), VERTEX_SCOPE, _S, cert_eigenvector_inequality),
    Rule(("bipartite-kernel-part-size",), VERTEX_SCOPE, _A, cert_kernel_part_size),
    Rule(("bipartite-kernel-part-mod4",), GRAPH_SCOPE, _A, cert_kernel_part_mod4),
    Rule(("bipartite-balance",), GRAPH_SCOPE, _A, cert_bipartite_balance),
    Rule(("tree-suite",), GRAPH_SCOPE, _S, cert_tree_suite_fallback),
)


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


def certify_vertex(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                   u: int, opts: CertifyOptions = CertifyOptions(),
                   tol: Tolerances = DEFAULT_TOLERANCES,
                   facts: GraphFacts | None = None) -> tuple[CertificateVerdict, ...]:
    """Every verdict at one vertex, in RULES order."""
    if facts is None:
        facts = collect_facts(g, dec, kind, opts, tol)
    verdicts: list[CertificateVerdict] = []
    for row, graph_out in zip(RULES, facts.graph_row_verdicts):
        if row.scope == GRAPH_SCOPE:
            verdicts.extend(graph_out.get((VERTEX_SCOPE, u), ()))
        elif row.runs_at(facts.opts.tier):
            verdicts.extend(row.run(facts, u))
    return tuple(verdicts)


def certify_graph(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                  opts: CertifyOptions = CertifyOptions(),
                  tol: Tolerances = DEFAULT_TOLERANCES,
                  facts: GraphFacts | None = None) -> CertificateReport:
    """Run every applicable certificate at every vertex plus the graph-level
    rules, and aggregate: graph-wide mixing needs mixing at every vertex, so
    any strict vertex firing rules the whole graph out."""
    if facts is None:
        facts = collect_facts(g, dec, kind, opts, tol)
    vertex_verdicts = []
    surviving = []
    for u in range(g.n):
        vs = certify_vertex(g, dec, kind, u, opts, tol, facts)
        vertex_verdicts.append((u, vs))
        if not any(v.fired and v.tier is Tier.STRICT for v in vs):
            surviving.append(u)
    graph_verdicts = tuple(v for out in facts.graph_row_verdicts
                           for v in out.get((GRAPH_SCOPE, None), ()))
    return CertificateReport(
        n=g.n, kind=kind, tier=opts.tier,
        vertex_verdicts=tuple(vertex_verdicts),
        graph_verdicts=graph_verdicts,
        surviving_vertices=tuple(surviving),
        twin_search_truncated=facts.twin_search_truncated,
        signed_enumeration_truncated=facts.signed_truncated)
