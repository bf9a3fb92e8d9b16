"""Weighted-graph model: parsing, matrices, combinatorial statistics and
structure detectors (twins and twin subgraphs).

Vertices are dense integers 0..n-1.  Graphs are simple, loopless and
undirected with strictly positive edge weights.  Values are immutable, so
every operation here is a pure function and safe for concurrent use.

A graph derives its weighted neighbourhoods and one traversal (components,
bipartite flags, a +-1 colouring) once, on first use, and the functions
here read them; neither is larger than O(n + m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import comb, isfinite
from types import MappingProxyType

import numpy as np

from .tolerances import Tolerances

# Largest vertex count either parser accepts.  A graph-wide search peaks near
# 35 MiB + 6.5 * 8n^2 bytes, about 0.85 GiB at this cap (see the README).
MAX_VERTICES = 4096
# Most bytes that the arrays of one chunk of a blocked kernel hold at once.
WORK_BYTES = 1 << 20


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
            # isfinite would overflow on a huge int; ints and Fractions are finite
            if not (w > 0 and (isinstance(w, (int, Fraction)) or isfinite(w))):
                raise ValueError(f"edge ({u}, {v}) has weight {w}, not a finite positive number")
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
    bits = "".join([format(v, "06b") for v in body])
    if "1" in bits[nbits:]:
        raise GraphFormatError("graph6 padding bits must be zero")
    # bit k(k-1)/2 + j is the pair j < k; the edges come out sorted and
    # valid, as build would canonicalise them
    edges = tuple((j, k, 1) for j in range(n) for k in range(j + 1, n)
                  if bits[k * (k - 1) // 2 + j] == "1")
    return WeightedGraph(n=n, edges=edges, weight_class=WeightClass.UNIT)


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
    zero and both Laplacians are positive semidefinite.  A degree may
    overflow to inf; the eigensolver reports that as an input error.
    """
    a = adjacency_matrix(g)
    if kind is MatrixKind.ADJACENCY:
        return a
    with np.errstate(over="ignore"):
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


def degree_stats(g: WeightedGraph) -> DegreeStats:
    """Exact degree statistics; dist2_pairs counts vertex pairs at distance two."""
    deg = degrees(g)
    mask = [0] * g.n  # bit v of mask[u]: v is a neighbour of u
    for u, v, _ in g.edges:
        mask[u] |= 1 << v
        mask[v] |= 1 << u
    q = 0
    for u, row in enumerate(g.neighbourhoods):
        reach = 0  # the vertices with a common neighbour with u, u among them
        for w in row:
            reach |= mask[w]
        q += ((reach & ~mask[u]) >> (u + 1)).bit_count()  # those above u, off u's row
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
    neighbourhoods: tuple[MappingProxyType, ...] = field(repr=False, compare=False)

    @cached_property
    def has_c5(self) -> bool:
        """Counted on first read: few readers need it, and it costs the most."""
        return _cycle5_count(self.neighbourhoods) > 0


def cycle_flags(g: WeightedGraph) -> CycleFlags:
    """Exhaustive search for 3- and 4-cycles as subgraphs, and an exact count
    of 5-cycles (`_cycle5_count`).

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
    return CycleFlags(has_triangle=tri, has_c4=c4, neighbourhoods=nbrs)


def _cycle5_count(adj) -> int:
    """The number of 5-cycles of the simple graph with neighbourhoods adj,
    c5 = [tr(A^5) - 5 tr(A^3) - 5 sum_i (d_i - 2) (A^3)_ii] / 10 with A its
    0/1 adjacency matrix and d_i its degrees.  A^2 and A^3 are built a block
    of rows at a time, which holds WORK_BYTES or one row of each beside A.
    Their entries are at most n^2, so float64 holds them and every partial
    sum exactly, and so it holds the row sums of A^2 * A^3 that make
    tr(A^5), at most n^4 each; their total, at most n^5 < 2^63, is taken in
    int64."""
    n = len(adj)
    deg = np.array([len(row) for row in adj], dtype=np.int64)
    a = np.zeros((n, n))
    a[np.repeat(np.arange(n), deg), [v for row in adj for v in row]] = 1.0
    step = max(1, WORK_BYTES // (16 * n))
    tr5 = tr3 = by_degree = 0
    for r in range(0, n, step):
        a2 = a[r:r + step] @ a
        a3 = a2 @ a
        d3 = np.diagonal(a3, r).astype(np.int64)  # (A^3)_ii for the block's rows i
        tr5 += int(np.einsum("ij,ij->i", a2, a3).astype(np.int64).sum())
        tr3 += int(d3.sum())
        by_degree += int(((deg[r:r + step] - 2) * d3).sum())
    return (tr5 - 5 * tr3 - 5 * by_degree) // 10


# ---------------------------------------------------------------------------
# Twins and twin subgraphs

def _row_differences(g: WeightedGraph, limit: int) -> list[dict[int, frozenset[int]]]:
    """Where rows of the adjacency matrix differ: entry x maps each y != x
    whose row differs from row x in at most `limit` positions to that
    position set D(x, y).  The rows hold an integer id per distinct exact
    weight, because float64 would round integers above 2^53.

    Built a block of rows x at a time, each block comparing at most
    WORK_BYTES boolean entries or one row, so memory stays O(n^2); keys run in
    increasing y.
    """
    n = g.n
    ids: dict[Weight, int] = {}
    mat = np.zeros((n, n), dtype=np.int32)
    for u, v, w in g.edges:
        mat[u, v] = mat[v, u] = ids.setdefault(w, len(ids) + 1)
    out: list[dict[int, frozenset[int]]] = [{} for _ in range(n)]
    step = max(1, WORK_BYTES // (n * n))
    for start in range(0, n, step):
        diff = mat[start:start + step, None] != mat  # diff[i, y, z]: row start + i vs row y at z
        near = diff.sum(axis=2) <= limit
        near[np.arange(len(near)), np.arange(start, start + len(near))] = False
        xs, ys = np.nonzero(near)
        positions: list[list[int]] = [[] for _ in range(len(xs))]
        for i, z in zip(*(a.tolist() for a in np.nonzero(diff[xs, ys]))):
            positions[i].append(z)
        for x, y, pos in zip(xs.tolist(), ys.tolist(), positions):
            out[start + x][y] = frozenset(pos)
    return out


def find_twin_pairs(g: WeightedGraph) -> list[tuple[int, int, TwinKind]]:
    """All unordered twin pairs: equal weighted neighborhoods off {u, v},
    compared exactly.  Adjacent twins are true twins."""
    nbrs = g.neighbourhoods
    items = [row.items() for row in nbrs]  # (neighbour, weight) pairs
    # the rows differ in the pairs of items[u] ^ items[v]; an edge uv of
    # weight w puts (v, w) and (u, w) there, and any other pair lies off {u, v}
    return [(u, v, TwinKind.TRUE if v in nbrs[u] else TwinKind.FALSE)
            for u, v in combinations(range(g.n), 2)
            if len(nbrs[u]) == len(nbrs[v])
            and len(items[u] ^ items[v]) == (2 if v in nbrs[u] else 0)]


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

    def mapping(self) -> dict[int, int] | None:
        return dict(self.bijection) if self.bijection is not None else None


def _external_signature(row: dict[int, Weight], inside: set[int]) -> frozenset:
    """The weighted neighbourhood of a row off the vertices `inside`; weights
    are positive, so two rows agree off `inside` iff their signatures do."""
    return frozenset((y, w) for y, w in row.items() if y not in inside)


def verify_twin_subgraphs(g: WeightedGraph, witness: TwinSubgraphWitness) -> bool:
    """Exact check of a claimed twin-subgraph pair.

    False kind: the bijection is a weight-preserving isomorphism, there are
    no edges between the parts, and external neighborhoods match under it.
    True kind: both parts are weighted-regular with one valency, the cross
    bipartite subgraph is weighted-regular, and external neighborhoods match
    under some (or the given) pairing.
    """
    gs, hs = witness.g_vertices, witness.h_vertices
    gset, hset = set(gs), set(hs)
    if gset & hset:
        raise ValueError("twin subgraph vertex sets overlap")
    if len(gs) != len(hs) or len(gset) != len(gs) or len(hset) != len(hs):
        raise ValueError("twin subgraph vertex sets must be disjoint and equal-sized")
    if any(not 0 <= v < g.n for v in gs + hs):
        raise ValueError("twin subgraph vertex id out of range")
    rows = g.neighbourhoods
    inside = gset | hset

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
            if _external_signature(rows[x], inside) != _external_signature(rows[f[x]], inside):
                return False
        return True

    vals = {sum(w for v, w in rows[x].items() if v in pset)
            for part, pset in ((gs, gset), (hs, hset)) for x in part}
    if len(vals) != 1:
        return False
    cross_g = [sum(w for v, w in rows[x].items() if v in hset) for x in gs]
    cross_h = [sum(w for v, w in rows[y].items() if v in gset) for y in hs]
    if len(set(cross_g) | set(cross_h)) != 1:
        return False
    f = witness.mapping()
    if f is not None:
        if sorted(f) != sorted(gs) or sorted(f.values()) != sorted(hs):
            raise ValueError("bijection does not map the first part onto the second")
        pairing_ok = all(
            _external_signature(rows[x], inside) == _external_signature(rows[f[x]], inside)
            for x in gs)
    else:
        pairing_ok = _signature_pairing(rows, gs, hs, inside) is not None
    if not pairing_ok:
        return False
    if witness.valency_in is not None and witness.valency_in != next(iter(vals)):
        return False
    if witness.valency_cross is not None and witness.valency_cross != cross_g[0]:
        return False
    return True


def _signature_pairing(rows, gs, hs, inside) -> dict[int, int] | None:
    """Pair vertices across the parts so external neighborhoods match."""
    by_sig: dict[frozenset, list[int]] = {}
    for y in hs:
        by_sig.setdefault(_external_signature(rows[y], inside), []).append(y)
    for group in by_sig.values():
        group.sort()
    f = {}
    taken: dict[frozenset, int] = {}
    for x in sorted(gs):
        sig = _external_signature(rows[x], inside)
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


def search_twin_subgraphs(g: WeightedGraph, a_max: int = 4,
                          subset_budget: int = Tolerances.subset_budget) -> TwinSearchResult:
    """True twin subgraphs with part sizes 2..a_max, where the size bound can decide.

    A true pair of part size a rules its vertices out iff n > 4a^2 (the
    paper's sqrt(n) bound).  The witnesses are every true pair with
    2 <= a <= a_max and 4a^2 < n.  Twin pairs (a = 1, see
    :func:`find_twin_pairs`) are not reported: from n = 5 on they rule out
    only vertices that the twin-vertex rule rules out under every walk, and
    below that nothing.  False pairs with a >= 2 are not searched: at a = 2
    one rules out only vertices that have a twin (README, Twin subgraphs).

    Candidates follow an exhaustive order: a ascending from 1, then first
    parts gs and second parts hs as sorted tuples in lexicographic order,
    over every pair of disjoint a-subsets with min(gs) < min(hs).  The
    a = 1 block is not searched but still counts.  `truncated` means the
    order holds more than `subset_budget` candidates, and pairs past the cut
    are not reported.  The cut is computed from the block sizes of the
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
    witnesses = []
    cut = _budget_cut(n, a_cap, subset_budget)
    last_a = a_cap if cut is None else cut[0]
    sizes = [a for a in range(2, last_a + 1) if 4 * a * a < n]
    if sizes:
        compat = _row_differences(g, 2 * sizes[-1])
        active = [x for x in range(n) if compat[x]]
        # exact weights in nested lists: the blocks read per candidate are tiny
        rows = [[row.get(z, 0) for z in range(n)] for row in g.neighbourhoods]
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
