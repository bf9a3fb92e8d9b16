"""Weighted-graph model: parsing, matrices, combinatorial statistics and
structure detectors (twins, twin subgraphs, pendant pairs), plus the
subdivision and pendant-attachment constructions.

Vertices are dense integers 0..n-1.  Graphs are simple, loopless and
undirected with strictly positive edge weights.  Values are immutable, so
every operation here is a pure function and safe for concurrent use.

A graph derives its weighted neighbourhoods and one traversal (components,
bipartite flags, a +-1 colouring) once, on first use, and the functions
here read them; neither is larger than O(n + m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import comb
from types import MappingProxyType

import numpy as np

# Largest vertex count either parser accepts.  A graph-wide search peaks near
# 35 MiB + 6.5 * 8n^2 bytes, about 0.85 GiB at this cap (see the README).
MAX_VERTICES = 4096


class GraphFormatError(ValueError):
    """Malformed textual graph input (graph6 line or weighted edge list)."""


class WeightClass(enum.Enum):
    UNIT = "unit"
    INTEGER = "integer"
    REAL = "real"


class MatrixKind(enum.Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless"


class TwinKind(enum.Enum):
    FALSE = "false"  # non-adjacent twins / isomorphic parts with no cross edges
    TRUE = "true"    # adjacent twins / regular parts with a regular cross graph


Weight = int | float
Edge = tuple[int, int, Weight]


def _is_integral(w) -> bool:
    if isinstance(w, int):
        return True
    if isinstance(w, Fraction):
        return w.denominator == 1
    return float(w).is_integer()


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph.  Use :meth:`build` to validate input."""

    n: int
    edges: tuple[Edge, ...]
    weight_class: WeightClass

    @classmethod
    def build(cls, n: int, edges, weight_class: WeightClass | None = None) -> "WeightedGraph":
        if n <= 0:
            raise ValueError("vertex count must be positive")
        seen: set[tuple[int, int]] = set()
        canon: list[Edge] = []
        for u, v, w in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w <= 0:
                raise ValueError(f"edge ({u}, {v}) has nonpositive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        canon.sort(key=lambda e: (e[0], e[1]))
        if all(w == 1 for _, _, w in canon):
            inferred = WeightClass.UNIT
        elif all(_is_integral(w) for _, _, w in canon):
            inferred = WeightClass.INTEGER
        else:
            inferred = WeightClass.REAL
        if weight_class is None:
            weight_class = inferred
        elif weight_class is WeightClass.UNIT and inferred is not WeightClass.UNIT:
            raise ValueError("unit weight class requires every weight to equal 1")
        elif weight_class is WeightClass.INTEGER and inferred is WeightClass.REAL:
            raise ValueError("integer weight class requires integral weights")
        if weight_class is WeightClass.REAL:
            canon = [(u, v, float(w)) for u, v, w in canon]
        else:
            canon = [(u, v, int(w)) for u, v, w in canon]
        return cls(n=n, edges=tuple(canon), weight_class=weight_class)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_integer_weights(self) -> bool:
        return self.weight_class in (WeightClass.UNIT, WeightClass.INTEGER)

    @cached_property
    def neighbourhoods(self) -> tuple[MappingProxyType, ...]:
        """The exact weighted neighbourhood of each vertex, read-only, with
        its neighbours in ascending order."""
        rows: list[dict[int, Weight]] = [{} for _ in range(self.n)]
        for u, v, w in self.edges:
            rows[u][v] = w
            rows[v][u] = w
        return tuple(MappingProxyType(dict(sorted(row.items()))) for row in rows)

    @cached_property
    def traversal(self) -> "Traversal":
        """Components, bipartite flags and +-1 colouring from one search."""
        nbrs = self.neighbourhoods
        colour = [0] * self.n
        components, bipartite = [], []
        for s in range(self.n):
            if colour[s]:
                continue
            colour[s] = 1  # s is the smallest vertex of its component
            comp, stack, two_colourable = [s], [s], True
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if not colour[y]:
                        colour[y] = -colour[x]
                        comp.append(y)
                        stack.append(y)
                    elif colour[y] == colour[x]:
                        two_colourable = False
            components.append(tuple(sorted(comp)))
            bipartite.append(two_colourable)
        return Traversal(components=tuple(components), bipartite=tuple(bipartite),
                         colour=tuple(colour))

    def __getstate__(self):  # the cached members are rebuilt on demand, never pickled
        return {"n": self.n, "edges": self.edges, "weight_class": self.weight_class}


@dataclass(frozen=True)
class Traversal:
    """The components of a graph, each sorted and listed by its smallest
    vertex; whether each is bipartite; and a +-1 colouring with +1 at each
    component's smallest vertex, a proper 2-colouring of every bipartite
    component."""

    components: tuple[tuple[int, ...], ...]
    bipartite: tuple[bool, ...]
    colour: tuple[int, ...]


# ---------------------------------------------------------------------------
# Parsing

def parse_graph6(text: str) -> WeightedGraph:
    """Decode one graph6 line (bit-exact McKay encoding) into a unit-weight graph."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphFormatError("empty graph6 line")
    try:
        data = [ord(ch) - 63 for ch in line]
    except TypeError:  # pragma: no cover - str input only
        raise GraphFormatError("graph6 input must be text")
    if any(v < 0 or v > 63 for v in data):
        raise GraphFormatError("graph6 characters must lie in chr(63)..chr(126)")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 vertex count")
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    else:
        if len(data) < 8:
            raise GraphFormatError("truncated graph6 vertex count")
        n = 0
        for v in data[2:8]:
            n = (n << 6) | v
        body = data[8:]
    if n <= 0:
        raise GraphFormatError("graph6 vertex count must be positive")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph6 vertex count {n} exceeds the cap of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 payload has {len(body)} characters, expected {need} for n={n}")
    bits = []
    for v in body:
        bits.extend(((v >> 5) & 1, (v >> 4) & 1, (v >> 3) & 1,
                     (v >> 2) & 1, (v >> 1) & 1, v & 1))
    if any(bits[nbits:]):
        raise GraphFormatError("graph6 padding bits must be zero")
    edges = []
    i = 0
    for k in range(1, n):
        for j in range(k):
            if bits[i]:
                edges.append((j, k, 1))
            i += 1
    return WeightedGraph.build(n, edges, WeightClass.UNIT)


def parse_weighted_edgelist(text: str) -> WeightedGraph:
    """Parse UTF-8 lines "u v w" (0-based ids, '#' comments) into a graph.

    The weight class is inferred: all ones -> unit, all integral -> integer,
    otherwise real.  Every weight must convert to a finite, positive float.
    The vertex count is the largest id plus one, at most MAX_VERTICES.
    """
    edges: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v w'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: vertex ids must be integers") from None
        try:
            w = Fraction(parts[2])
            w_float = float(w)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise GraphFormatError(
                f"line {lineno}: weight {parts[2]!r} is not a decimal number within float range"
            ) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: vertex ids must be nonnegative")
        if max(u, v) >= MAX_VERTICES:
            raise GraphFormatError(
                f"line {lineno}: vertex id {max(u, v)} exceeds the cap of {MAX_VERTICES} vertices")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if w_float <= 0.0:  # also a positive weight that underflows to zero as a float
            raise GraphFormatError(f"line {lineno}: weight {parts[2]} is not a positive float")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
        edges[key] = w
    if not edges:
        raise GraphFormatError("edge list contains no edges")
    n = max(v for _, v in edges) + 1
    out: list[Edge] = []
    for (u, v), w in edges.items():
        out.append((u, v, int(w) if w.denominator == 1 else float(w)))
    return WeightedGraph.build(n, out)


# ---------------------------------------------------------------------------
# Matrices and basic statistics

def adjacency_matrix(g: WeightedGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = float(w)
    return a


def matrix_of(g: WeightedGraph, kind: MatrixKind) -> np.ndarray:
    """Adjacency, Laplacian (D - A) or signless Laplacian (D + A) of g.

    D holds weighted degrees (row sums of A), so the Laplacian rows sum to
    zero and both Laplacians are positive semidefinite.
    """
    a = adjacency_matrix(g)
    if kind is MatrixKind.ADJACENCY:
        return a
    d = np.diag(a.sum(axis=1))
    return d - a if kind is MatrixKind.LAPLACIAN else d + a


def degrees(g: WeightedGraph) -> list[int]:
    """Combinatorial degrees (incident edge counts, ignoring weights), as a
    fresh list the caller may change."""
    return [len(row) for row in g.neighbourhoods]


def weighted_degrees(g: WeightedGraph) -> list[Weight]:
    return [sum(row.values()) for row in g.neighbourhoods]


@dataclass(frozen=True)
class DegreeStats:
    deg: tuple[int, ...]
    avg_degree: Fraction
    max_degree: int
    edge_count: int
    dist2_pairs: int


def common_neighbors(g: WeightedGraph, j: int, ell: int) -> int:
    """Number of common neighbors of two distinct vertices."""
    if j == ell:
        raise ValueError("common_neighbors requires two distinct vertices")
    nbrs = g.neighbourhoods
    return len(nbrs[j].keys() & nbrs[ell].keys())


def degree_stats(g: WeightedGraph) -> DegreeStats:
    """Exact degree statistics; dist2_pairs counts vertex pairs at distance two."""
    deg = degrees(g)
    nbr = [set(row) for row in g.neighbourhoods]
    q = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in nbr[u] and nbr[u] & nbr[v]:
                q += 1
    return DegreeStats(
        deg=tuple(deg),
        avg_degree=Fraction(2 * g.edge_count, g.n),
        max_degree=max(deg) if deg else 0,
        edge_count=g.edge_count,
        dist2_pairs=q,
    )


# ---------------------------------------------------------------------------
# Connectivity, bipartition, cycles

def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Sorted components in order of their smallest vertex."""
    return [list(comp) for comp in g.traversal.components]


def is_connected(g: WeightedGraph) -> bool:
    return len(g.traversal.components) == 1


def is_tree(g: WeightedGraph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


@dataclass(frozen=True)
class Bipartition:
    present: bool
    b1: tuple[int, ...] = ()
    b2: tuple[int, ...] = ()

    def part_of(self, u: int) -> tuple[int, ...]:
        """The part containing u."""
        if not self.present:
            raise ValueError("graph is not bipartite")
        return self.b1 if u in self.b1 else self.b2


def bipartition(g: WeightedGraph) -> Bipartition:
    """The 2-colouring of the traversal; part B1 holds the smallest vertex
    of every component, vertex 0 among them."""
    t = g.traversal
    if not all(t.bipartite):
        return Bipartition(present=False)
    b1 = tuple(v for v in range(g.n) if t.colour[v] > 0)
    b2 = tuple(v for v in range(g.n) if t.colour[v] < 0)
    return Bipartition(present=True, b1=b1, b2=b2)


@dataclass(frozen=True)
class CycleFlags:
    has_triangle: bool
    has_c4: bool
    has_c5: bool


def cycle_flags(g: WeightedGraph) -> CycleFlags:
    """Exhaustive search for 3-, 4- and 5-cycles as subgraphs.

    A 4-cycle exists exactly when some vertex pair has two or more common
    neighbors, so C4-freeness matches the common-neighbor bound c(j,l) <= 1.
    """
    nbrs = g.neighbourhoods
    nbr = [set(row) for row in nbrs]
    tri = any(nbr[u] & nbr[v] for u, v, _ in g.edges)
    c4 = False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if len(nbr[u] & nbr[v]) >= 2:
                c4 = True
                break
        if c4:
            break
    return CycleFlags(has_triangle=tri, has_c4=c4, has_c5=_has_cycle5(nbrs))


def _has_cycle5(adj) -> bool:
    n = len(adj)
    for s in range(n):
        # paths s-a-b-c-d with all vertices > s, closed by an edge d-s
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


def cyclomatic_index(g: WeightedGraph) -> int:
    """k with |E| = (n - 1) + k; requires a connected graph."""
    if not is_connected(g):
        raise ValueError("cyclomatic index is defined for connected graphs only")
    return g.edge_count - g.n + 1


# ---------------------------------------------------------------------------
# Constructions

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


# ---------------------------------------------------------------------------
# Twins and twin subgraphs

def _row_differences(g: WeightedGraph, limit: int) -> list[dict[int, frozenset[int]]]:
    """Where rows of the adjacency matrix differ: entry x maps each y != x
    whose row differs from row x in at most `limit` positions to that
    position set D(x, y).  The rows hold an integer id per distinct exact
    weight, because float64 would round integers above 2^53.

    Built one row at a time, so memory stays O(n^2); keys run in increasing y.
    """
    ids: dict[Weight, int] = {}
    mat = np.zeros((g.n, g.n), dtype=np.int32)
    for u, v, w in g.edges:
        mat[u, v] = mat[v, u] = ids.setdefault(w, len(ids) + 1)
    out = []
    for x in range(g.n):
        diff = mat[x] != mat
        near = np.nonzero(diff.sum(axis=1) <= limit)[0].tolist()
        out.append({y: frozenset(np.nonzero(diff[y])[0].tolist()) for y in near if y != x})
    return out


def find_twin_pairs(g: WeightedGraph) -> list[tuple[int, int, TwinKind]]:
    """All unordered twin pairs: equal weighted neighborhoods off {u, v},
    compared exactly.  Adjacent twins are true twins."""
    nbrs = g.neighbourhoods
    return [(u, v, TwinKind.TRUE if v in nbrs[u] else TwinKind.FALSE)
            for u, v in combinations(range(g.n), 2)
            if len(nbrs[u]) == len(nbrs[v]) and _without(nbrs[u], v) == _without(nbrs[v], u)]


def _without(row, v: int) -> dict:
    return {y: w for y, w in row.items() if y != v}


@dataclass(frozen=True)
class TwinSubgraphWitness:
    kind: TwinKind
    g_vertices: tuple[int, ...]
    h_vertices: tuple[int, ...]
    bijection: tuple[tuple[int, int], ...] | None = None  # pairs (g_vertex, h_vertex)
    valency_in: Weight | None = None     # common valency inside each part (true kind)
    valency_cross: Weight | None = None  # valency of the cross bipartite subgraph (true kind)

    @property
    def size(self) -> int:
        return len(self.g_vertices)

    def contains(self, u: int) -> bool:
        return u in self.g_vertices or u in self.h_vertices

    def mapping(self) -> dict[int, int] | None:
        return dict(self.bijection) if self.bijection is not None else None


def _external_signature(row: dict[int, Weight], outside: list[int]) -> tuple:
    return tuple(row.get(w, 0) for w in outside)


def verify_twin_subgraphs(g: WeightedGraph, witness: TwinSubgraphWitness) -> bool:
    """Exact check of a claimed twin-subgraph pair.

    False kind: the bijection is a weight-preserving isomorphism, there are
    no edges between the parts, and external neighborhoods match under it.
    True kind: both parts are weighted-regular with one valency, the cross
    bipartite subgraph is weighted-regular, and external neighborhoods match
    under some (or the given) pairing.
    """
    gs, hs = witness.g_vertices, witness.h_vertices
    if set(gs) & set(hs):
        raise ValueError("twin subgraph vertex sets overlap")
    if len(gs) != len(hs) or len(set(gs)) != len(gs) or len(set(hs)) != len(hs):
        raise ValueError("twin subgraph vertex sets must be disjoint and equal-sized")
    if any(not 0 <= v < g.n for v in gs + hs):
        raise ValueError("twin subgraph vertex id out of range")
    rows = g.neighbourhoods
    inside = set(gs) | set(hs)
    outside = [w for w in range(g.n) if w not in inside]

    if witness.kind is TwinKind.FALSE:
        f = witness.mapping()
        if f is None:
            raise ValueError("false twin witness requires its isomorphism")
        if sorted(f) != sorted(gs) or sorted(f.values()) != sorted(hs):
            raise ValueError("bijection does not map the first part onto the second")
        if any(y in rows[x] for x in gs for y in hs):
            return False
        for x1, x2 in combinations(gs, 2):
            if rows[x1].get(x2, 0) != rows[f[x1]].get(f[x2], 0):
                return False
        for x in gs:
            if _external_signature(rows[x], outside) != _external_signature(rows[f[x]], outside):
                return False
        return True

    in_deg = {}
    for part in (gs, hs):
        pset = set(part)
        for x in part:
            in_deg[x] = sum(w for v, w in rows[x].items() if v in pset)
    vals = {in_deg[x] for x in gs} | {in_deg[x] for x in hs}
    if len(vals) != 1:
        return False
    hset, gset = set(hs), set(gs)
    cross_g = [sum(w for v, w in rows[x].items() if v in hset) for x in gs]
    cross_h = [sum(w for v, w in rows[y].items() if v in gset) for y in hs]
    if len(set(cross_g) | set(cross_h)) != 1:
        return False
    f = witness.mapping()
    if f is not None:
        if sorted(f) != sorted(gs) or sorted(f.values()) != sorted(hs):
            raise ValueError("bijection does not map the first part onto the second")
        pairing_ok = all(
            _external_signature(rows[x], outside) == _external_signature(rows[f[x]], outside)
            for x in gs)
    else:
        pairing_ok = _signature_pairing(rows, gs, hs, outside) is not None
    if not pairing_ok:
        return False
    if witness.valency_in is not None and witness.valency_in != next(iter(vals)):
        return False
    if witness.valency_cross is not None and witness.valency_cross != cross_g[0]:
        return False
    return True


def _signature_pairing(rows, gs, hs, outside) -> dict[int, int] | None:
    """Pair vertices across the parts so external neighborhoods match."""
    by_sig: dict[tuple, list[int]] = {}
    for y in hs:
        by_sig.setdefault(_external_signature(rows[y], outside), []).append(y)
    for group in by_sig.values():
        group.sort()
    f = {}
    taken: dict[tuple, int] = {}
    for x in sorted(gs):
        sig = _external_signature(rows[x], outside)
        group = by_sig.get(sig, [])
        k = taken.get(sig, 0)
        if k >= len(group):
            return None
        f[x] = group[k]
        taken[sig] = k + 1
    return f


@dataclass(frozen=True)
class TwinSearchResult:
    witnesses: tuple[TwinSubgraphWitness, ...]
    truncated: bool

    @property
    def twin_pairs(self) -> list[tuple[int, int, TwinKind]]:
        """The twin pairs, as :func:`find_twin_pairs` lists them."""
        return [(w.g_vertices[0], w.h_vertices[0], w.kind) for w in self.witnesses
                if w.size == 1]


def search_twin_subgraphs(g: WeightedGraph, a_max: int = 4,
                          subset_budget: int = 1_000_000) -> TwinSearchResult:
    """Twin subgraphs with part sizes 1..a_max, where the size bound can decide.

    A true pair of part size a rules its vertices out iff n > 4a^2 (the
    paper's sqrt(n) bound).  The witnesses are every twin pair, as a
    singleton of its twin kind in the order of :func:`find_twin_pairs`, then
    every true pair with 2 <= a and 4a^2 < n.  False pairs with a >= 2 are
    not searched: at a = 2 one rules out only vertices that have a twin
    (README, Certificate tiers).

    Candidates follow an exhaustive order: a ascending, then first parts gs
    and second parts hs as sorted tuples in lexicographic order, over every
    pair of disjoint a-subsets with min(gs) < min(hs).  `truncated` means
    the order holds more than `subset_budget` candidates, and pairs with
    a >= 2 past the cut are not reported; the twin pairs are complete
    whatever the budget.  The cut is computed from the block sizes of the
    order, without enumerating it.

    Before the cut, only candidates that meet a necessary condition are
    examined.  A witness pairs every x in gs with a y in hs whose adjacency
    row differs from row x only inside gs | hs.  So gs draws from vertices
    with such near rows, and hs from a pool of partners whose difference
    sets fit into a part of size a (see :func:`_partner_pool`).  Weights
    compare exactly.
    """
    n = g.n
    a_cap = min(a_max, n // 2)
    if a_cap < 1:
        return TwinSearchResult(witnesses=(), truncated=False)
    nbrs = g.neighbourhoods
    witnesses = [_twin_witness(u, v, kind, nbrs[u].get(v, 0))
                 for u, v, kind in find_twin_pairs(g)]
    cut = _budget_cut(n, a_cap, subset_budget)
    last_a = a_cap if cut is None else cut[0]
    sizes = [a for a in range(2, last_a + 1) if 4 * a * a < n]
    if sizes:
        compat = _row_differences(g, 2 * sizes[-1])
        active = [x for x in range(n) if compat[x]]
        # exact weights in nested lists: the blocks read per candidate are tiny
        rows = [[row.get(z, 0) for z in range(n)] for row in nbrs]
    for a in sizes:
        for gs in combinations(active, a):
            hs_cut = None
            if cut is not None and a == last_a:
                if gs > cut[1]:
                    break
                if gs == cut[1]:
                    hs_cut = cut[2]
            for hs in combinations(_partner_pool(compat, gs), a):
                if hs_cut is not None and hs >= hs_cut:
                    break
                w = _true_pair(rows, compat, gs, hs)
                if w is not None:
                    witnesses.append(w)
    return TwinSearchResult(witnesses=tuple(witnesses), truncated=cut is not None)


def _twin_witness(u: int, v: int, kind: TwinKind, weight: Weight) -> TwinSubgraphWitness:
    """The singleton witness of the twin pair (u, v) joined by `weight`."""
    true = kind is TwinKind.TRUE
    return TwinSubgraphWitness(
        kind=kind, g_vertices=(u,), h_vertices=(v,), bijection=((u, v),),
        valency_in=0 if true else None, valency_cross=_as_weight(weight) if true else None)


def _budget_cut(n: int, a_cap: int, budget: int) -> tuple[int, tuple, tuple] | None:
    """Key (a, gs, hs) of the candidate at 0-based position `budget` in the
    exhaustive order of :func:`search_twin_subgraphs`: the first one the budget
    leaves out.  None when there are no more than `budget` candidates.

    Each gs starting at g0 has comb(n - g0 - a, a) second parts above g0.
    """
    r = max(budget, 0)
    for a in range(1, a_cap + 1):
        for g0 in range(n - 2 * a + 1):
            per_gs = comb(n - g0 - a, a)
            block = comb(n - g0 - 1, a - 1) * per_gs
            if r < block:
                q, r = divmod(r, per_gs)
                gs = (g0,) + _unrank(range(g0 + 1, n), a - 1, q)
                hs = _unrank([v for v in range(g0 + 1, n) if v not in gs], a, r)
                return a, gs, hs
            r -= block
    return None


def _unrank(items, k: int, r: int) -> tuple:
    """The k-combination of `items` at 0-based position r in lexicographic order."""
    out = []
    for i, v in enumerate(items):
        if k == 0:
            break
        below = comb(len(items) - i - 1, k - 1)  # combinations that start with v
        if r < below:
            out.append(v)
            k -= 1
        else:
            r -= below
    return tuple(out)


def _partner_pool(compat, gs) -> list[int]:
    """Sorted vertices that may form the second part opposite gs.

    If x in gs is paired with y, the second part must hold y and every vertex
    of D(x, y) outside gs, all above min(gs).  Options whose forced set does
    not fit into the pool are dropped until the pool is stable; it is empty
    when some x is left without an option.
    """
    a, g0, gset = len(gs), gs[0], frozenset(gs)
    options = []
    for x in gs:
        opts = []
        for y, d in compat[x].items():
            if y > g0 and y not in gset:
                forced = (d - gset) | {y}
                if len(forced) <= a and min(forced) > g0:
                    opts.append((y, forced))
        options.append(opts)
    pool: set[int] = set()
    while True:
        new = {y for opts in options for y, _ in opts}
        if new == pool:
            return sorted(pool)
        pool = new
        options = [[o for o in opts if o[1] <= pool] for opts in options]
        if not all(options):
            return []


def _true_pair(rows, compat, gs, hs) -> TwinSubgraphWitness | None:
    """The true witness on the candidate (gs, hs), if any: both parts regular
    with one valency, a regular cross graph, and a pairing whose rows differ
    only inside gs | hs.  rows is the adjacency matrix of exact weights as
    nested lists."""
    valency_in = {sum(rows[x][z] for z in part) for part in (gs, hs) for x in part}
    if len(valency_in) != 1:
        return None
    cross = ({sum(rows[x][y] for y in hs) for x in gs}
             | {sum(rows[x][y] for x in gs) for y in hs})
    if len(cross) != 1:
        return None
    inside = frozenset(gs) | frozenset(hs)
    partners = [{y for y in hs if (d := compat[x].get(y)) is not None and d <= inside}
                for x in gs]
    for perm in permutations(range(len(gs))):
        if all(hs[perm[i]] in partners[i] for i in range(len(gs))):
            return TwinSubgraphWitness(
                kind=TwinKind.TRUE, g_vertices=gs, h_vertices=hs,
                bijection=tuple(sorted(zip(gs, (hs[i] for i in perm)))),
                valency_in=_as_weight(valency_in.pop()), valency_cross=_as_weight(cross.pop()))
    return None


def _as_weight(x: Weight) -> Weight:
    return int(x) if isinstance(x, float) and x.is_integer() else x


# ---------------------------------------------------------------------------
# Pendant structure and caterpillars

@dataclass(frozen=True)
class PendantPair:
    u: int
    w: int
    v: int       # the common neighbor
    alpha: Weight  # weight of {u, v}
    beta: Weight   # weight of {w, v}


def pendant_pairs_with_common_neighbor(g: WeightedGraph) -> list[PendantPair]:
    """All pairs of degree-1 vertices hanging off the same vertex."""
    nbrs = g.neighbourhoods
    by_support: dict[int, list[int]] = {}
    for u, row in enumerate(nbrs):
        if len(row) == 1:
            by_support.setdefault(next(iter(row)), []).append(u)
    out = []
    for v, pend in sorted(by_support.items()):
        for u, w in combinations(pend, 2):
            out.append(PendantPair(u=u, w=w, v=v, alpha=nbrs[v][u], beta=nbrs[v][w]))
    return out


def is_caterpillar(g: WeightedGraph) -> bool:
    """True when deleting all pendant vertices of a tree leaves a path.

    An empty or single-vertex remainder counts as a path, so stars are
    caterpillars.
    """
    if not is_tree(g):
        raise ValueError("caterpillar test requires a tree")
    deg = degrees(g)
    keep = [v for v in range(g.n) if deg[v] > 1]
    if len(keep) <= 1:
        return True
    kset = set(keep)
    nbrs = g.neighbourhoods
    inner_deg = [sum(1 for x in nbrs[v] if x in kset) for v in keep]
    return max(inner_deg) <= 2
