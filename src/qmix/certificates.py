"""Sound rule-out certificates for local uniform-in-the-limit mixing.

Every rule is a necessary condition for mixing, so firing it *rules out*
mixing; nothing here ever certifies that mixing occurs.  Every rule is
strict: it uses exact integer/rational arithmetic, or floating inequalities
padded by an explicit safety margin, and is regression-tested against the
known mixing instances.  The paper's literal part-size, part-congruence
and balance statements for bipartite graphs are not rules: each one fires
on the 4-vertex star, which mixes.  Nor are its parity and pattern
statements for paths, trees, caterpillars and bipartite unicyclic graphs,
or its even-square order for singular bipartite graphs: each fires only
where another rule of the same walk already does (README, Certificate
tiers).

Each rule reads the `GraphFacts` of one (graph, matrix) pair, runs once per
graph and returns all of its verdicts, each scoped to the graph or to one
vertex: the paper states most conditions per vertex, but each is a function
of the whole graph and one matrix.  The `RULES` table is the one place where
a rule, its output position and the walks, weights and
bipartiteness it applies to are declared; elsewhere the table writes the
rule's not-applicable verdicts, with a note generated from that declaration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graphs import (MAX_VERTICES, Bipartition, DegreeStats, MatrixKind, TwinKind,
                     TwinSubgraphWitness, WeightClass, WeightedGraph, bipartition,
                     connected_components, degree_stats, find_twin_pairs,
                     search_twin_subgraphs, verify_twin_subgraphs)
from .spectral import (NO_SIGNED_VECTORS, SpectralDecomposition, exact_kernel,
                       nonsingular_by_spectrum, signed_kernel_vectors)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class Verdict(enum.Enum):
    RULED_OUT = "ruled-out"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


VERTEX_SCOPE = "vertex"
GRAPH_SCOPE = "graph"

TWIN_SUBGRAPH_SIZE = 2  # part-size bound for the twin-subgraph search


class CertificateVerdict(NamedTuple):
    """One verdict of one rule: an immutable tuple of these fields."""

    rule_id: str
    verdict: Verdict
    scope: tuple[str, int | None]  # (VERTEX_SCOPE, u) or (GRAPH_SCOPE, None)
    witness: tuple[tuple[str, object], ...] = ()

    @property
    def fired(self) -> bool:
        return self.verdict is Verdict.RULED_OUT


def _vertex(rule: str, u: int, verdict: Verdict, **witness) -> CertificateVerdict:
    return CertificateVerdict(rule, verdict, (VERTEX_SCOPE, u), tuple(witness.items()))


def _graph(rule: str, verdict: Verdict, **witness) -> CertificateVerdict:
    return CertificateVerdict(rule, verdict, (GRAPH_SCOPE, None), tuple(witness.items()))


# ---------------------------------------------------------------------------
# Shared per-graph facts

@dataclass(frozen=True, eq=False)
class GraphFacts:
    """Everything a rule reads about one (graph, matrix) pair.  The signed
    pool is built from the kernel basis the first time a rule reads it."""

    g: WeightedGraph
    kind: MatrixKind
    dec: SpectralDecomposition | None  # None disables the floating route
    tol: Tolerances
    stats: DegreeStats
    components: list[list[int]]
    bip: Bipartition
    twins: list[tuple[int, int, TwinKind]]
    twin_witnesses: tuple[TwinSubgraphWitness, ...]  # true pairs with part size >= 2
    twin_search_truncated: bool
    kernel_basis: list[tuple[int, ...]]  # exact; empty for real weights and under L and Q
    signed_truncated: bool  # kernel dimension > tol.signed_budget

    @cached_property
    def signed_vectors(self) -> np.ndarray:
        """(k, n) int8 signed kernel vectors, sorted rows."""
        if not self.kernel_basis:
            return NO_SIGNED_VECTORS.vectors
        return signed_kernel_vectors(self.kernel_basis, max_dim=self.tol.signed_budget).vectors

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def connected(self) -> bool:
        return len(self.components) == 1


def collect_facts(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> GraphFacts:
    """The facts every rule reads, for one graph under one walk matrix, of
    which `dec`, when given, is the decomposition.  Only the adjacency walk
    builds the exact kernel, and only where `dec` does not prove A
    nonsingular; its signed vectors are built on first read.  Under L and Q, E_0 e_u rules out every vertex a
    signed kernel vector could (README, Certificate tiers), and the
    truncation flag still means kernel dimension > signed_budget, read off
    the traversal."""
    basis, dim = [], 0
    if kind is MatrixKind.ADJACENCY:
        if g.has_integer_weights() and (dec is None or not nonsingular_by_spectrum(dec)):
            basis = exact_kernel(g)
        dim = len(basis)
    elif g.has_integer_weights():
        t = g.traversal
        dim = len(t.components) if kind is MatrixKind.LAPLACIAN else sum(t.bipartite)
    tw = search_twin_subgraphs(g, a_max=TWIN_SUBGRAPH_SIZE, subset_budget=tol.subset_budget)
    return GraphFacts(
        g=g, kind=kind, dec=dec, tol=tol, stats=degree_stats(g),
        components=connected_components(g), bip=bipartition(g),
        twins=find_twin_pairs(g),
        twin_witnesses=tw.witnesses, twin_search_truncated=tw.truncated,
        kernel_basis=basis, signed_truncated=dim > tol.signed_budget)


# ---------------------------------------------------------------------------
# Individual certificates

# One row of verdicts per (rule, verdict, note) whose witness is only
# the note, at vertices 0, 1, ...  Records are immutable, so every graph
# shares a prefix of the row.
_NOTED_ROWS: dict[tuple[str, Verdict, str], tuple[CertificateVerdict, ...]] = {}


def _noted_row(rule: str, n: int, note: str,
               verdict: Verdict = Verdict.NOT_APPLICABLE) -> tuple[CertificateVerdict, ...]:
    """One verdict of one rule with one note at each vertex 0..n-1: a slice
    of its shared row, which grows to the largest n seen up to MAX_VERTICES."""
    key = (rule, verdict, note)
    row = _NOTED_ROWS.get(key, ())
    if len(row) < n:
        witness = (("note", note),)
        row += tuple(CertificateVerdict(rule, verdict, (VERTEX_SCOPE, u), witness)
                     for u in range(len(row), n))
        if n <= MAX_VERTICES:
            _NOTED_ROWS[key] = row
    return row[:n]


def _degree_bound(rule: str, deg, bound: Fraction, **witness) -> list[CertificateVerdict]:
    """Every vertex's degree against one bound: ruled out above it."""
    num, den = bound.numerator, bound.denominator  # d > bound iff d * den > num
    return [_vertex(rule, u, Verdict.RULED_OUT if d * den > num else Verdict.INCONCLUSIVE,
                    degree=d, bound=bound, **witness) for u, d in enumerate(deg)]


def _first_rows(pool: np.ndarray, rows: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each vertex's first row, of the given pool rows, that is nonzero at
    it, as a tuple of ints; a vertex with no such row is left out."""
    if not len(rows):
        return {}
    hit = pool[rows] != 0
    first = hit.argmax(axis=0)
    return {u: tuple(pool[rows[i]].tolist())
            for u, i in enumerate(first.tolist()) if hit[i, u]}


def cert_connectivity(facts: GraphFacts) -> list[CertificateVerdict]:
    """Disconnected graphs cannot mix at any vertex (block-diagonal walk)."""
    comps = facts.components
    if facts.connected:
        return [_graph("connectivity", Verdict.INCONCLUSIVE, components=1)]
    size = {v: len(c) for c in comps for v in c}
    return [_vertex("connectivity", u, Verdict.RULED_OUT,
                    components=len(comps), component_size=size[u])
            for u in range(facts.n)]


def cert_eigenvector_inequality(facts: GraphFacts) -> list[CertificateVerdict]:
    """sqrt(n) |v_u| <= sum_j |v_j| must hold for every eigenvector v.

    The canonical per-eigenspace vectors E_lambda e_u are tested first, in
    floating point with the safety margin, the first eigenvalue that breaks
    it being the witness.  At the vertices that leaves open, the exact
    signed kernel vectors (adjacency walk only) are tested exactly; the pool
    is read only if a kernel basis vector is nonzero at one of them.
    """
    rule = "eigenvector-inequality"
    dec, n = facts.dec, facts.n
    out: list[CertificateVerdict | None] = [None] * n
    if dec is None:
        open_rows = list(range(n))
    else:
        # (n, d) tables over vertices u and eigenvalue groups k of both sides
        # on the unit vector E_k e_u / ||E_k e_u||; rhs is inf off the support
        # (the support cut of vertex_support)
        norms, sums = dec.projector_row_norms()
        rhs = np.divide(sums, norms, out=np.full_like(norms, math.inf),
                        where=norms > facts.tol.supp)
        lhs = math.sqrt(n) * norms
        margin = facts.tol.safety(n)
        breaks = lhs > rhs + margin
        # the witnesses and the per-row scan below read the tables as Python
        # floats, which compare and subtract exactly as float64 does
        lhs, rhs, values = lhs.tolist(), rhs.tolist(), dec.eigenvalues.tolist()
        open_rows = []
        for u, (k, broken) in enumerate(zip(breaks.argmax(axis=1).tolist(),
                                            breaks.any(axis=1).tolist())):
            if broken:
                out[u] = CertificateVerdict(
                    rule, Verdict.RULED_OUT, (VERTEX_SCOPE, u),
                    (("route", "canonical-float"), ("eigenvalue", values[k]),
                     ("lhs", lhs[u][k]), ("rhs", rhs[u][k]), ("margin", margin)))
            else:
                open_rows.append(u)
    exact = {}
    basis = facts.kernel_basis
    if any(vec[u] for vec in basis for u in open_rows):
        pool = facts.signed_vectors
        # a signed vector has |x_u| = 1 where it is nonzero, and sum |x_j| = nnz
        nnz = np.count_nonzero(pool, axis=1)
        exact = _first_rows(pool, np.flatnonzero(n > nnz * nnz))
    for u in open_rows:
        vec = exact.get(u)
        if vec is not None:
            out[u] = _vertex(rule, u, Verdict.RULED_OUT, route="exact-kernel", vector=vec,
                             lhs_squared=n * vec[u] * vec[u], rhs=sum(abs(x) for x in vec))
        elif dec is None:
            out[u] = _vertex(rule, u, Verdict.INCONCLUSIVE, note="no decomposition supplied")
        else:
            best, best_k = -math.inf, None
            for k, (left, right) in enumerate(zip(lhs[u], rhs[u])):
                if left - right > best + 1e-12:  # near-ties keep the lowest eigenvalue
                    best, best_k = left - right, k
            out[u] = CertificateVerdict(
                rule, Verdict.INCONCLUSIVE, (VERTEX_SCOPE, u),
                (("best_gap", None if best_k is None else best),
                 ("best_eigenvalue", None if best_k is None else values[best_k])))
    return out


def cert_degree_LQ(facts: GraphFacts) -> list[CertificateVerdict]:
    """Laplacian walks: deg u <= twice the average degree (unit weights)."""
    st = facts.stats
    return _degree_bound("degree-vs-average-LQ", st.deg, Fraction(4 * st.edge_count, facts.n))


def cert_degree_A_c4free(facts: GraphFacts) -> list[CertificateVerdict]:
    """Adjacency walks on C4-free graphs: deg u <= 2(|E| + q)/n, with q the
    number of vertex pairs at distance two; and on unicyclic graphs whose
    cycle is a C4, deg u <= 2(n + q + 2)/n."""
    g, st = facts.g, facts.stats
    n, q = g.n, st.dist2_pairs

    rule = "degree-common-neighbors-A"
    if st.has_c4:
        out = list(_noted_row(
            rule, n, "requires a unit-weight C4-free graph under the adjacency walk"))
    else:
        out = _degree_bound(rule, st.deg, Fraction(2 * (st.edge_count + q), n), dist2_pairs=q)

    rule = "degree-unicyclic-c4-A"
    unicyclic = facts.connected and g.edge_count == n
    if unicyclic and st.has_c4:
        out += _degree_bound(rule, st.deg, Fraction(2 * (n + q + 2), n), dist2_pairs=q)
    else:
        out += _noted_row(rule, n, "requires a unicyclic graph whose cycle is a C4")
    return out


def cert_twins(facts: GraphFacts) -> list[CertificateVerdict]:
    """A vertex with a twin cannot mix once the graph has five vertices."""
    rule = "twin-vertex"
    n = facts.n
    twin: dict[int, tuple[int, TwinKind]] = {}  # each vertex's first twin pair
    for a, b, k in facts.twins:
        twin.setdefault(a, (b, k))
        twin.setdefault(b, (a, k))
    no_twin = _noted_row(rule, n, "no twin", Verdict.INCONCLUSIVE)
    out = []
    for u in range(n):
        if u not in twin:
            out.append(no_twin[u])
        elif n >= 5:
            out.append(_vertex(rule, u, Verdict.RULED_OUT, twin=twin[u][0],
                               twin_kind=twin[u][1].value, n=n))
        else:
            out.append(_vertex(rule, u, Verdict.INCONCLUSIVE, twin=twin[u][0],
                               twin_kind=twin[u][1].value, note="order at most four"))
    return out


def cert_twin_subgraphs(facts: GraphFacts) -> list[CertificateVerdict]:
    """Twin-subgraph bound: a true pair with parts of size a forces
    n <= 4a^2, under any walk matrix.  The witnesses are true pairs with
    a >= 2; twin pairs (a = 1) are left to `twin-vertex`, which rules out
    their vertices wherever a twin pair would.  A vertex's verdict comes from
    the first of its witnesses that fires, and a witness is verified once,
    when it reaches a vertex no earlier witness decided."""
    rule = "twin-subgraph"
    g, n = facts.g, facts.n
    fired: dict[int, CertificateVerdict] = {}
    count = [0] * n  # witnesses containing each vertex
    unwitnessed = _noted_row(rule, n, "no witness contains the vertex")
    for w in facts.twin_witnesses:
        members = w.g_vertices + w.h_vertices
        for u in members:
            count[u] += 1
        undecided = [u for u in members if u not in fired]
        if not undecided:
            continue
        if w.kind is not TwinKind.TRUE or not verify_twin_subgraphs(g, w):
            raise ValueError(f"twin-subgraph witness is not a verified true pair: {w}")
        a = w.size
        if n > 4 * a * a:
            witness = (("route", "true-pair-size"), ("part_size", a), ("bound", 4 * a * a),
                       ("n", n), ("g_vertices", w.g_vertices), ("h_vertices", w.h_vertices))
            fired.update((u, CertificateVerdict(rule, Verdict.RULED_OUT, (VERTEX_SCOPE, u),
                                                witness))
                         for u in undecided)
    return [fired[u] if u in fired
            else _vertex(rule, u, Verdict.INCONCLUSIVE, witnesses=count[u]) if count[u]
            else unwitnessed[u]
            for u in range(n)]


def cert_bipartite_parity(facts: GraphFacts) -> list[CertificateVerdict]:
    """Bipartite adjacency walks force n * deg u even, and tie the parity of
    the count of vertices with degree 2 or 3 (mod 4) to the parity of
    |E| - n deg(u) / 2."""
    rule = "bipartite-degree-parity"
    n, st = facts.n, facts.stats
    count23 = sum(1 for d in st.deg if d % 4 in (2, 3))
    even_count = count23 % 2 == 0
    out = []
    for u, deg in enumerate(st.deg):
        if (n * deg) % 2 == 1:
            out.append(_vertex(rule, u, Verdict.RULED_OUT, route="odd-order-degree",
                               n=n, degree=deg))
        elif even_count != ((st.edge_count % 2) == ((n * deg // 2) % 2)):
            out.append(_vertex(rule, u, Verdict.RULED_OUT, route="count-parity",
                               count_deg_2_3_mod4=count23, edge_count=st.edge_count,
                               half_n_deg=n * deg // 2))
        else:
            out.append(_vertex(rule, u, Verdict.INCONCLUSIVE, count_deg_2_3_mod4=count23))
    return out


def cert_kernel_vector(facts: GraphFacts) -> list[CertificateVerdict]:
    """Singular bipartite adjacency walks with a kernel component at u: the
    order must be a perfect square, and each signed kernel vector restricted
    to u's part must have sqrt(n) <= nnz with matching parity."""
    rule = "bipartite-kernel-square"
    n, bp = facts.n, facts.bip
    in_kernel = {u for vec in facts.kernel_basis for u, x in enumerate(vec) if x}
    root = math.isqrt(n)
    bad: dict[int, tuple[int, ...]] = {}
    if root * root == n and in_kernel:
        pool = facts.signed_vectors
        for part in (bp.b1, bp.b2):
            m = np.count_nonzero(pool[:, list(part)], axis=1)
            hits = _first_rows(pool, np.flatnonzero((root > m) | ((root - m) % 2 != 0)))
            bad.update((u, hits[u]) for u in part if u in hits)
    no_component = _noted_row(rule, n, "no kernel component at the vertex")
    out = []
    for u in range(n):
        if u not in in_kernel:
            out.append(no_component[u])
        elif root * root != n:
            out.append(_vertex(rule, u, Verdict.RULED_OUT, route="not-a-square", n=n))
        elif u in bad:
            vec = bad[u]
            out.append(_vertex(rule, u, Verdict.RULED_OUT, route="signed-vector-nnz",
                               vector=vec, restricted_nnz=sum(1 for i in bp.part_of(u) if vec[i]),
                               sqrt_n=root))
        else:
            out.append(_vertex(rule, u, Verdict.INCONCLUSIVE, sqrt_n=root,
                               part_size=len(bp.part_of(u))))
    return out


def cert_bipartite_global(facts: GraphFacts) -> list[CertificateVerdict]:
    """A bipartite adjacency walk on more than two vertices needs an order
    divisible by four.  (Orders one and two are genuine exceptions: the
    single vertex and the weighted single edge both mix.)  The paper's
    even-square order for singular bipartite graphs is not a rule: wherever
    it fires, this rule, `connectivity` or `bipartite-kernel-square` does
    (README, Certificate tiers)."""
    n = facts.n
    if n > 2 and n % 4 != 0:
        return [_graph("bipartite-order-mod4", Verdict.RULED_OUT, n=n, remainder=n % 4)]
    return [_graph("bipartite-order-mod4", Verdict.INCONCLUSIVE, n=n,
                   note="orders one and two mix" if n <= 2 else None)]


def cert_pendant_pair(facts: GraphFacts) -> list[CertificateVerdict]:
    """Two pendants u and w on one support vertex, with unequal weights
    alpha and beta, give the exact adjacency eigenvector beta e_u - alpha e_w;
    on five or more vertices its inequality fails at the lighter pendant (the
    cherry lemma).  Pendants of equal weight are false twins, which
    `twin-vertex` rules out under every walk (README, Certificate tiers)."""
    rule = "pendant-pair"
    nbrs, n = facts.g.neighbourhoods, facts.n
    leaves: dict[int, list[int]] = {}  # support vertex: its pendants
    for u, row in enumerate(nbrs):
        if len(row) == 1:
            leaves.setdefault(next(iter(row)), []).append(u)
    out: list[CertificateVerdict] = []
    for v, pend in sorted(leaves.items()):
        for u, w in combinations(pend, 2):
            alpha, beta = nbrs[v][u], nbrs[v][w]
            if alpha == beta:
                continue
            if n <= 4:
                out.append(_graph(rule, Verdict.INCONCLUSIVE, pair=(u, w),
                                  note="order at most four"))
                continue
            square = (Fraction(alpha) + Fraction(beta)) ** 2  # exact products
            if n * Fraction(beta) ** 2 > square:
                out.append(_vertex(rule, u, Verdict.RULED_OUT, partner=w, support=v,
                                   alpha=alpha, beta=beta))
            if n * Fraction(alpha) ** 2 > square:
                out.append(_vertex(rule, w, Verdict.RULED_OUT, partner=u, support=v,
                                   alpha=alpha, beta=beta))
    return out or [_graph(rule, Verdict.NOT_APPLICABLE,
                          note="no pendant pair of unequal weights")]


# ---------------------------------------------------------------------------
# Pipelines

_ADJ = frozenset((MatrixKind.ADJACENCY,))
_LQ = frozenset(MatrixKind) - _ADJ
_WEIGHTS = tuple(WeightClass)  # unit < integer < real
_WEIGHTED = ("a unit-weight ", "an integer-weight ", "a ")  # in _WEIGHTS order


@dataclass(frozen=True)
class Rule:
    """One row of the rule table.  Its evaluator takes the facts, runs once
    per graph and returns all of its verdicts, each scoped to the graph or
    to one vertex.  It runs only on a walk in `walks`, weights no wider than
    `weights` and, if `bipartite`, a bipartite graph; elsewhere it gives the
    not-applicable verdicts of `not_applicable`."""

    ids: tuple[str, ...]
    evaluate: Callable[[GraphFacts], Sequence[CertificateVerdict]]
    walks: frozenset[MatrixKind] = frozenset(MatrixKind)
    weights: WeightClass = WeightClass.REAL  # the widest weight class the rule reads
    bipartite: bool = False
    scope: str = VERTEX_SCOPE  # one not-applicable verdict per id and vertex, or one in all

    def admits(self, facts: GraphFacts) -> bool:
        return (facts.kind in self.walks and (facts.bip.present or not self.bipartite)
                and _WEIGHTS.index(facts.g.weight_class) <= _WEIGHTS.index(self.weights))

    @property
    def note(self) -> str:
        """What the row requires, as its not-applicable verdicts say it."""
        graph = _WEIGHTED[_WEIGHTS.index(self.weights)] + ("bipartite " if self.bipartite else "")
        return (f"requires {graph}graph under the adjacency walk" if self.walks == _ADJ
                else f"requires a Laplacian walk on {graph}graph")

    def not_applicable(self, n: int) -> Sequence[CertificateVerdict]:
        """The verdicts of the row on an input it does not admit; a
        graph-scope row gives one, under ids[0]."""
        if self.scope == GRAPH_SCOPE:
            return (_graph(self.ids[0], Verdict.NOT_APPLICABLE, note=self.note),)
        return [v for rule in self.ids for v in _noted_row(rule, n, self.note)]


_UNIT, _INT = WeightClass.UNIT, WeightClass.INTEGER
# Cheap exact rules first.  The row order is the order of the verdicts in
# every report.
RULES = (
    Rule(("connectivity",), cert_connectivity),
    Rule(("twin-vertex",), cert_twins),
    Rule(("degree-vs-average-LQ",), cert_degree_LQ, _LQ, _UNIT),
    Rule(("degree-common-neighbors-A", "degree-unicyclic-c4-A"),
         cert_degree_A_c4free, _ADJ, _UNIT),
    Rule(("bipartite-degree-parity",), cert_bipartite_parity, _ADJ, _UNIT, bipartite=True),
    Rule(("pendant-pair",), cert_pendant_pair, _ADJ, scope=GRAPH_SCOPE),
    Rule(("bipartite-order-mod4",), cert_bipartite_global, _ADJ, bipartite=True,
         scope=GRAPH_SCOPE),
    Rule(("bipartite-kernel-square",), cert_kernel_vector, _ADJ, _INT, bipartite=True),
    Rule(("twin-subgraph",), cert_twin_subgraphs),
    Rule(("eigenvector-inequality",), cert_eigenvector_inequality),
)


@dataclass(frozen=True)
class CertificateReport:
    n: int
    kind: MatrixKind
    vertex_verdicts: tuple[tuple[int, tuple[CertificateVerdict, ...]], ...]
    graph_verdicts: tuple[CertificateVerdict, ...]
    surviving_vertices: tuple[int, ...]
    # a rule fired at graph scope or at some vertex (mixing everywhere is required)
    graph_ruled_out: bool
    fired_rule_ids: tuple[str, ...]  # sorted ids of the rules that fired anywhere
    twin_search_truncated: bool = False
    signed_enumeration_truncated: bool = False

    def verdicts_for(self, u: int) -> tuple[CertificateVerdict, ...]:
        for v, verdicts in self.vertex_verdicts:
            if v == u:
                return verdicts
        raise KeyError(u)

    def fired_rules(self) -> list[str]:
        return list(self.fired_rule_ids)


# The verdicts of one graph: those scoped to the graph, then one list per vertex.
Grouping = tuple[list[CertificateVerdict], list[list[CertificateVerdict]]]


def verdicts_by_scope(facts: GraphFacts) -> Grouping:
    """Every verdict of every row, one evaluation per admitting row, grouped
    by scope with each group in RULES order."""
    graph: list[CertificateVerdict] = []
    by_vertex: list[list[CertificateVerdict]] = [[] for _ in range(facts.n)]
    for row in RULES:
        for v in row.evaluate(facts) if row.admits(facts) else row.not_applicable(facts.n):
            u = v.scope[1]
            (graph if u is None else by_vertex[u]).append(v)
    return graph, by_vertex


def certify_vertex(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                   u: int, tol: Tolerances = DEFAULT_TOLERANCES,
                   facts: GraphFacts | None = None,
                   verdicts: Grouping | None = None) -> tuple[CertificateVerdict, ...]:
    """Every verdict at one vertex, in RULES order: a lookup into the
    grouping of `verdicts_by_scope`, which is made here only when the
    caller supplies none."""
    if verdicts is None:
        verdicts = verdicts_by_scope(facts or collect_facts(g, dec, kind, tol))
    return tuple(verdicts[1][u])


def certify_graph(g: WeightedGraph, dec: SpectralDecomposition | None, kind: MatrixKind,
                  tol: Tolerances = DEFAULT_TOLERANCES,
                  facts: GraphFacts | None = None) -> CertificateReport:
    """Run every applicable certificate once over the graph and aggregate in
    one pass over the verdicts: graph-wide mixing needs mixing at every
    vertex, so any verdict that fires rules the whole graph out."""
    if facts is None:
        facts = collect_facts(g, dec, kind, tol)
    grouped = verdicts_by_scope(facts)
    graph_verdicts = tuple(grouped[0])
    fired = {v.rule_id for v in graph_verdicts if v.verdict is Verdict.RULED_OUT}
    vertex_verdicts, survivors = [], []
    for u in range(g.n):
        vs = certify_vertex(g, dec, kind, u, tol, facts, grouped)
        vertex_verdicts.append((u, vs))
        hit = {v.rule_id for v in vs if v.verdict is Verdict.RULED_OUT}
        if not hit:
            survivors.append(u)
        fired |= hit
    return CertificateReport(
        n=g.n, kind=kind,
        vertex_verdicts=tuple(vertex_verdicts),
        graph_verdicts=graph_verdicts,
        surviving_vertices=tuple(survivors),
        graph_ruled_out=bool(fired),
        fired_rule_ids=tuple(sorted(fired)),
        twin_search_truncated=facts.twin_search_truncated,
        signed_enumeration_truncated=facts.signed_truncated)
