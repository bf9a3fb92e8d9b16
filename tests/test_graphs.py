import pickle
from dataclasses import replace
from fractions import Fraction
from math import comb
from time import perf_counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (GraphFormatError, MatrixKind, TwinKind, TwinSubgraphWitness, WeightClass,
                  WeightedGraph, bipartition, cert_pendant_pair, collect_facts, degree_stats,
                  find_twin_pairs, has_c5, matrix_of, parse_graph6,
                  parse_weighted_edgelist, search_twin_subgraphs, verify_twin_subgraphs)
import qmix.graphs
from qmix.graphs import (TwinSearchResult, _cycle5_count, connected_components, degrees,
                         is_tree, weighted_degrees)

from conftest import (attach_pendants, big_fi, common_neighbors, complete, complete_bipartite,
                      count_distance_two_pairs, cycle, cyclomatic_index, is_caterpillar,
                      naive_twin_subgraph_check, path, pendant_pairs, planted_true_pair,
                      random_connected_graph, reference_cycle_flags, reference_has_cycle5,
                      reference_twin_search, star, subdivide)


# ---------------------------------------------------------------------------
# graph6

def test_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.edges == ((0, 1, 1),)
    assert g.weight_class is WeightClass.UNIT


def test_graph6_bit_layout_oracle():
    # decoded per the bit layout: 'w' = 111000 -> edges (0,1), (0,2), (1,2)
    g = parse_graph6("Bw")
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (0, 2), (1, 2)}
    # the 3-vertex path sets bits x(0,2) and x(1,2) only
    g = parse_graph6("BW")
    assert {(u, v) for u, v, _ in g.edges} == {(0, 2), (1, 2)}


def test_graph6_truncated_payload_errors():
    with pytest.raises(GraphFormatError):
        parse_graph6("B")       # missing payload for n=3
    with pytest.raises(GraphFormatError):
        parse_graph6("Bww")     # payload too long
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("A\x19")   # below chr(63)


def test_graph6_matches_networkx_on_random_graphs(rng):
    for _ in range(60):
        n = int(rng.integers(1, 14))
        gnx = nx.gnp_random_graph(n, 0.4, seed=int(rng.integers(0, 2**31)))
        line = nx.to_graph6_bytes(gnx, header=False).decode().strip()
        g = parse_graph6(line)
        assert g.n == gnx.number_of_nodes()
        assert {(u, v) for u, v, _ in g.edges} == {tuple(sorted(e)) for e in gnx.edges()}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graph6_round_trip_against_networkx(data):
    # from n = 63 on, graph6 writes the vertex count in four characters
    n = data.draw(st.integers(1, 70) | st.sampled_from((62, 63, 64)), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = data.draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)), label="density")
    edges = {p for p in pairs if data.draw(st.floats(0, 1), label="coin") < density} \
        if n <= 12 else set(data.draw(st.lists(st.sampled_from(pairs), max_size=200)))
    gnx = nx.empty_graph(n)
    gnx.add_edges_from(edges)
    g = parse_graph6(nx.to_graph6_bytes(gnx, nodes=range(n), header=False).decode())
    assert g.n == n
    assert g.edges == tuple((u, v, 1) for u, v in sorted(edges))


def test_graph6_header_and_long_form():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2
    gnx = nx.path_graph(70)  # needs the 3-character vertex count
    line = nx.to_graph6_bytes(gnx, header=False).decode().strip()
    g = parse_graph6(line)
    assert g.n == 70 and g.edge_count == 69


# ---------------------------------------------------------------------------
# weighted edge lists

def test_edgelist_unit():
    g = parse_weighted_edgelist("0 1 1\n")
    assert g.n == 2 and g.weight_class is WeightClass.UNIT


def test_edgelist_integer_weights():
    g = parse_weighted_edgelist("# weighted path\n0 1 2\n1 2 3\n")
    assert g.weight_class is WeightClass.INTEGER
    assert g.edges == ((0, 1, 2), (1, 2, 3))


def test_edgelist_real_weights():
    g = parse_weighted_edgelist("0 1 0.5\n1 2 2\n")
    assert g.weight_class is WeightClass.REAL


def test_edgelist_errors():
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 0 1\n")       # self-loop
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 1 -2\n")      # nonpositive weight
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 1 1e400\n")   # overflows a float
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 1 1e-400\n")  # underflows to zero as a float
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 1 1\n1 0 2\n")  # duplicate edge
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("0 1\n")          # missing weight
    with pytest.raises(GraphFormatError):
        parse_weighted_edgelist("# only comments\n")


def test_build_rejects_non_finite_weights():
    for w in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            WeightedGraph.build(2, [(0, 1, w)])
    # a huge int is finite; its float overflow is the eigensolver's input error
    g = WeightedGraph.build(2, [(0, 1, 10 ** 400)])
    assert g.weight_class is WeightClass.INTEGER and g.edges == ((0, 1, 10 ** 400),)


# ---------------------------------------------------------------------------
# matrices

def test_matrix_of_k2():
    g = complete(2)
    assert np.array_equal(matrix_of(g, MatrixKind.ADJACENCY), [[0, 1], [1, 0]])
    assert np.array_equal(matrix_of(g, MatrixKind.LAPLACIAN), [[1, -1], [-1, 1]])
    assert np.array_equal(matrix_of(g, MatrixKind.SIGNLESS_LAPLACIAN), [[1, 1], [1, 1]])


def test_matrix_of_weighted_path():
    g = WeightedGraph.build(3, [(0, 1, 2), (1, 2, 3)])
    assert np.array_equal(matrix_of(g, MatrixKind.ADJACENCY),
                          [[0, 2, 0], [2, 0, 3], [0, 3, 0]])


def test_laplacian_row_sums(rng):
    from conftest import random_connected_graph
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), WeightClass.REAL)
        lap = matrix_of(g, MatrixKind.LAPLACIAN)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        q = matrix_of(g, MatrixKind.SIGNLESS_LAPLACIAN)
        a = matrix_of(g, MatrixKind.ADJACENCY)
        assert np.allclose(q.sum(axis=1), 2 * a.sum(axis=1))


# ---------------------------------------------------------------------------
# statistics

def test_degree_stats_star5():
    st = degree_stats(star(5))
    assert st.deg[0] == 4
    assert st.avg_degree == Fraction(8, 5)
    assert st.dist2_pairs == 6 == count_distance_two_pairs(star(5))


def test_degree_stats_c6():
    st = degree_stats(cycle(6))
    assert set(st.deg) == {2}
    assert st.avg_degree == 2
    assert st.dist2_pairs == 6 == count_distance_two_pairs(cycle(6))


def test_degree_stats_k2():
    st = degree_stats(complete(2))
    assert st.avg_degree == 1
    assert st.dist2_pairs == 0


def _prufer_tree(rng, n):
    return WeightedGraph.build(n, [(u, v, 1) for u, v in nx.from_prufer_sequence(
        rng.integers(0, n, n - 2).tolist()).edges()])


def test_dist2_matches_bfs_oracle(rng):
    # the distance-2 pairs, triangles and 4-cycles of one bitmask pass,
    # against BFS and the square of the adjacency matrix; weights are ignored
    graphs = [WeightedGraph.build(g.number_of_nodes(), [(u, v, 1) for u, v in g.edges()])
              for g in nx.graph_atlas_g()[1:]]
    for weight in (lambda: 1, lambda: int(rng.integers(1, 6)),
                   lambda: float(rng.uniform(0.5, 2.5))):
        for _ in range(40):
            n = int(rng.integers(2, 61))
            h = nx.gnp_random_graph(n, float(rng.uniform(0.02, 0.4)),
                                    seed=int(rng.integers(2 ** 31)))
            graphs.append(WeightedGraph.build(n, [(u, v, weight()) for u, v in h.edges()]))
    graphs += [_prufer_tree(rng, n) for n in (3, 10, 50, 100, 400) for _ in range(3)]
    stats = [degree_stats(g) for g in graphs]
    for g, st in zip(graphs, stats):
        assert st.dist2_pairs == count_distance_two_pairs(g), g
        assert (st.has_triangle, st.has_c4) == reference_cycle_flags(g), g
    assert 100 < sum(st.has_c4 for st in stats) < len(graphs) - 100
    assert 100 < sum(st.has_triangle for st in stats) < len(graphs) - 100


@pytest.mark.parametrize("tree", ["random", "path"])
def test_degree_stats_is_fast_on_large_c4_free_graphs(tree):
    # a scan over all vertex pairs for two common neighbours took over a
    # second on the 4096-vertex tree
    g = _prufer_tree(np.random.default_rng(4096), 4096) if tree == "random" else path(4096)
    start = perf_counter()
    st = degree_stats(g)
    assert perf_counter() - start < 1.0
    assert not (st.has_c4 or st.has_triangle)


def test_common_neighbors():
    assert common_neighbors(star(4), 1, 2) == 1
    assert common_neighbors(cycle(4), 0, 2) == 2
    assert common_neighbors(path(4), 0, 3) == 0
    with pytest.raises(ValueError):
        common_neighbors(path(4), 1, 1)


# ---------------------------------------------------------------------------
# bipartition, cycles

def test_bipartition():
    assert not bipartition(cycle(5)).present
    b = bipartition(star(4))
    assert b.present and {len(b.b1), len(b.b2)} == {1, 3} and 0 in b.b1
    b = bipartition(path(4))
    assert sorted(map(len, (b.b1, b.b2))) == [2, 2]


def test_bipartition_edges_cross_parts():
    g = cycle(6)
    b = bipartition(g)
    s1 = set(b.b1)
    assert all((u in s1) != (v in s1) for u, v, _ in g.edges)


def test_cycle_flags_and_index():
    st = degree_stats(path(5))
    assert not (st.has_triangle or st.has_c4 or has_c5(path(5)))
    assert cyclomatic_index(path(5)) == 0
    assert degree_stats(cycle(4)).has_c4 and cyclomatic_index(cycle(4)) == 1
    assert degree_stats(complete(4)).has_triangle and cyclomatic_index(complete(4)) == 3
    assert has_c5(cycle(5))
    assert has_c5(complete(5))  # 5-cycles exist as subgraphs
    disconnected = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        cyclomatic_index(disconnected)


def test_cycle5_count_closed_forms(monkeypatch):
    # C5 has one 5-cycle, K5 has 4!/2 = 12, K6 six times that, and the
    # Petersen graph 12; bipartite graphs have none.  The default budget
    # takes every graph in one block, a budget of 1 byte one row a block
    petersen = nx.petersen_graph()
    cases = [(cycle(5), 1), (complete(5), 12), (complete(6), 72), (cycle(6), 0),
             (complete_bipartite(4, 5), 0), (path(1), 0),
             (WeightedGraph.build(10, [(u, v, 1) for u, v in petersen.edges()]), 12)]
    for work_bytes in (qmix.graphs.WORK_BYTES, 1):
        monkeypatch.setattr(qmix.graphs, "WORK_BYTES", work_bytes)
        for g, count in cases:
            assert _cycle5_count(g.neighbourhoods) == count, (g, work_bytes)


def test_has_c5_matches_the_search_oracle(rng):
    graphs = [WeightedGraph.build(g.number_of_nodes(), [(u, v, 1) for u, v in g.edges()])
              for g in nx.graph_atlas_g()[1:]]
    for _ in range(100):
        n = int(rng.integers(2, 41))
        h = nx.gnp_random_graph(n, float(rng.uniform(0.03, 0.3)), seed=int(rng.integers(2 ** 31)))
        graphs.append(WeightedGraph.build(n, [(u, v, int(rng.integers(1, 4)))
                                              for u, v in h.edges()]))
    found = [has_c5(g) for g in graphs]
    assert found == [reference_has_cycle5(g) for g in graphs]
    assert 100 < sum(found) < len(graphs) - 100


def _with_pendant(g, h):
    """g and a copy of h on new vertices, joined by an edge from vertex 0 of
    g to vertex 0 of h."""
    edges = list(g.edges) + [(g.n + u, g.n + v, w) for u, v, w in h.edges]
    return WeightedGraph.build(g.n + h.n, edges + [(0, g.n, 1)])


def test_has_c5_is_fast_on_dense_c5_free_graphs():
    # K60,60 with a pendant triangle has no 5-cycle, and a search for one
    # walks some 60^5 paths; a pendant C5 gives one
    small = _with_pendant(complete_bipartite(6, 6), complete(3))
    assert has_c5(small) is reference_has_cycle5(small) is False
    start = perf_counter()
    assert not has_c5(_with_pendant(complete_bipartite(60, 60), complete(3)))
    assert has_c5(_with_pendant(complete_bipartite(60, 60), cycle(5)))
    assert perf_counter() - start < 1.0
# ---------------------------------------------------------------------------
# constructions

def test_subdivide_k2_gives_path3():
    s = subdivide(complete(2))
    assert s.n == 3
    assert {(u, v) for u, v, _ in s.edges} == {(0, 2), (1, 2)}


def test_subdivide_triangle_gives_c6():
    s = subdivide(cycle(3))
    assert s.n == 6 and s.edge_count == 6
    assert set(degrees(s)) == {2}
    assert bipartition(s).present


def test_subdivide_path3_gives_path5():
    s = subdivide(path(3))
    assert s.n == 5 and sorted(degrees(s)) == [1, 1, 2, 2, 2]


def test_subdivide_requires_unit_weights():
    g = WeightedGraph.build(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        subdivide(g)


def test_attach_pendants():
    g = attach_pendants(complete(2))  # path on four vertices
    assert g.n == 4 and sorted(degrees(g)) == [1, 1, 2, 2]
    g = attach_pendants(path(3))
    assert g.n == 6 and sorted(degrees(g)) == [1, 1, 1, 2, 2, 3]
    single = WeightedGraph.build(1, [])
    g = attach_pendants(single)
    assert g.n == 2 and g.edge_count == 1


def test_attach_pendants_degree_shift(rng):
    from conftest import random_connected_graph
    g = random_connected_graph(rng, 7)
    before = degrees(g)
    after = degrees(attach_pendants(g))
    assert after[:7] == [d + 1 for d in before]
    assert after[7:] == [1] * 7


# ---------------------------------------------------------------------------
# twins

def test_find_twin_pairs():
    pairs = find_twin_pairs(star(5))
    assert len(pairs) == 6 and all(k is TwinKind.FALSE for _, _, k in pairs)
    pairs = find_twin_pairs(complete(4))
    assert len(pairs) == 6 and all(k is TwinKind.TRUE for _, _, k in pairs)
    assert find_twin_pairs(path(4)) == []


def test_twin_pairs_respect_weights():
    g = WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2)])
    assert find_twin_pairs(g) == []  # unequal weights break the twin relation


def test_twins_compare_weights_above_2_53_exactly():
    big = 2 ** 70  # big + 1, big + 2 and big + 3 all round to big as floats
    g = WeightedGraph.build(5, [(0, 1, big + 1), (0, 2, big), (0, 3, big + 2), (0, 4, big + 3)])
    assert find_twin_pairs(g) == []
    assert search_twin_subgraphs(g, a_max=2).witnesses == ()
    g = WeightedGraph.build(4, [(0, 1, big + 1), (0, 2, big), (0, 3, big + 1)])
    assert find_twin_pairs(g) == [(1, 3, TwinKind.FALSE)]
    k2 = WeightedGraph.build(2, [(0, 1, 2 ** 53 + 1)])
    assert find_twin_pairs(k2) == [(0, 1, TwinKind.TRUE)]
    w = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0,), h_vertices=(1,),
                            valency_in=0, valency_cross=2 ** 53 + 1)
    assert verify_twin_subgraphs(k2, w)
    assert not verify_twin_subgraphs(k2, replace(w, valency_cross=2 ** 53))


FII = WeightedGraph.build(7, [(3, 1, 1), (1, 2, 1), (2, 0, 1),
                              (5, 4, 1), (4, 6, 1), (3, 5, 1)])
FI = WeightedGraph.build(5, [(2, 1, 1), (1, 0, 1), (3, 4, 1), (2, 3, 1)])


def test_verify_false_twin_subgraphs_figure():
    w = TwinSubgraphWitness(kind=TwinKind.FALSE, g_vertices=(0, 2, 1), h_vertices=(6, 4, 5),
                            bijection=((0, 6), (2, 4), (1, 5)))
    assert verify_twin_subgraphs(FII, w)
    assert naive_twin_subgraph_check(FII, (0, 2, 1), (6, 4, 5),
                                     {0: 6, 2: 4, 1: 5}, "false")
    wrong = TwinSubgraphWitness(kind=TwinKind.FALSE, g_vertices=(0, 2, 1),
                                h_vertices=(6, 4, 5), bijection=((0, 4), (2, 6), (1, 5)))
    assert not verify_twin_subgraphs(FII, wrong)


def test_verify_true_twin_subgraphs_figure():
    w = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0, 1), h_vertices=(4, 3))
    assert verify_twin_subgraphs(FI, w)
    assert naive_twin_subgraph_check(FI, (0, 1), (4, 3), {0: 4, 1: 3}, "true")


def test_verify_true_twins_with_matching_added():
    g = WeightedGraph.build(5, list(FI.edges) + [(0, 3, 1), (1, 4, 1)])
    w = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0, 1), h_vertices=(4, 3))
    assert verify_twin_subgraphs(g, w)


def test_verify_rejects_overlap():
    w = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0, 1), h_vertices=(1, 2))
    with pytest.raises(ValueError):
        verify_twin_subgraphs(FI, w)


def test_search_star_singletons():
    # the six leaf pairs of the 5-star are twins, not twin-subgraph witnesses
    assert len(find_twin_pairs(star(5))) == 6
    for a_max in (1, 2):
        assert search_twin_subgraphs(star(5), a_max=a_max) == TwinSearchResult((), False)
    assert search_twin_subgraphs(star(5), a_max=1, subset_budget=9).truncated  # 10 pairs


def test_search_figure_true_pair():
    def pair_found(g):
        return any(w.kind is TwinKind.TRUE and set(w.g_vertices) == {0, 1}
                   and set(w.h_vertices) == {3, 4} for w in search_twin_subgraphs(g, 2).witnesses)

    assert pair_found(big_fi())  # n = 18 > 4a^2 = 16
    assert not pair_found(FI)    # n = 5: the pair cannot rule anything out, so it is not searched


def test_search_path4_empty_vs_exhaustive_oracle():
    res = search_twin_subgraphs(path(4), a_max=2)
    assert res.witnesses == ()
    # oracle: brute force every subset pair and bijection at the definition level
    import itertools
    g = path(4)
    for a in (1, 2):
        for gs in itertools.combinations(range(4), a):
            rest = [v for v in range(4) if v not in gs]
            for hs in itertools.combinations(rest, a):
                for perm in itertools.permutations(hs):
                    f = dict(zip(gs, perm))
                    assert not naive_twin_subgraph_check(g, gs, hs, f, "false")
                    assert not naive_twin_subgraph_check(g, gs, hs, f, "true")


def test_search_emits_verified_witnesses(rng):
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(2, 21)))
        res = search_twin_subgraphs(g, a_max=2)
        for w in res.witnesses:
            assert verify_twin_subgraphs(g, w)


def test_search_budget_truncation():
    res = search_twin_subgraphs(complete(10), a_max=3, subset_budget=20)
    assert res.truncated


def _candidates(n, a_max):
    """Subset pairs the exhaustive search order holds for part sizes 1..a_max."""
    return sum(comb(n, a) * comb(n - a, a) // 2 for a in range(1, min(a_max, n // 2) + 1))


def expected_search(g, a_max, subset_budget=1_000_000):
    """The search contract on the exhaustive reference: the reference's true
    witnesses with 2 <= a and 4a^2 < n, cut at the same candidate."""
    ref = reference_twin_search(g, a_max=a_max, subset_budget=subset_budget)
    true = tuple(w for w in ref.witnesses
                 if w.kind is TwinKind.TRUE and w.size >= 2 and 4 * w.size ** 2 < g.n)
    return TwinSearchResult(witnesses=true, truncated=ref.truncated)


def test_search_matches_reference_on_atlas():
    for gnx in nx.graph_atlas_g():
        n = gnx.number_of_nodes()
        if not 2 <= n <= 6:
            continue
        g = WeightedGraph.build(n, [(u, v, 1) for u, v in gnx.edges()])
        for a_max in (1, 2, 3):
            assert search_twin_subgraphs(g, a_max=a_max) == expected_search(g, a_max)


@pytest.mark.parametrize("n", [4, 7, 10, 12, 16, 17, 20, 24])
def test_search_matches_reference_on_random_graphs(n, rng):
    pairs = n * (n - 1) // 2
    graphs = []
    for weights in ((1,), (1, 2)):
        edges = [(u, v, int(rng.choice(weights)))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graphs.append(WeightedGraph.build(n, edges))
        # copy k vertices S with their edges: G[S] and its copy are twin subgraphs
        k = min(4, n // 3)
        m = n - k
        wm = {(u, v): w for u, v, w in edges if v < m}
        copy = {s: m + i for i, s in enumerate(rng.choice(m, size=k, replace=False).tolist())}
        edges = list(wm.items()) + [
            ((copy[u] if u in copy else u, copy[v] if v in copy else v), w)
            for (u, v), w in wm.items() if u in copy or v in copy]
        label = rng.permutation(n).tolist()
        graphs.append(WeightedGraph.build(n, [(label[u], label[v], w) for (u, v), w in edges]))
        if n >= 5:
            graphs.append(planted_true_pair(rng, n, weights)[0])
    for g in graphs:
        for a_max in (1, 2, 3, 4) if n <= 12 else (1, 2):
            total = _candidates(n, a_max)
            budgets = {0, 1, pairs - 1, pairs, pairs + 1, 10**6,
                       int(rng.integers(pairs, _candidates(n, 2) + 1)),
                       int(rng.integers(0, total + 1))}
            for budget in sorted(budgets):
                res = search_twin_subgraphs(g, a_max=a_max, subset_budget=budget)
                assert res == expected_search(g, a_max, budget)
                assert res.truncated == (total > budget)


@st.composite
def _graph_search_case(draw):
    # a third of the examples pass the n >= 17 gate of the part-size-2 search
    n = draw(st.one_of(st.integers(2, 9), st.integers(2, 9), st.integers(17, 18)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    # the last two weight sets each round to one float64 value
    weights = draw(st.sampled_from(
        ((1,), (1, 2), (2 ** 53, 2 ** 53 + 1), (2 ** 70 + 1, 2 ** 70 + 3))))
    g = WeightedGraph.build(n, [(u, v, draw(st.sampled_from(weights))) for u, v in chosen])
    a_max = draw(st.integers(1, 4 if n <= 9 else 2))  # the reference enumerates every candidate
    budget = draw(st.integers(0, _candidates(n, a_max) + 1))
    return g, a_max, budget


@settings(max_examples=200, deadline=None)
@given(_graph_search_case())
def test_search_matches_reference_property(case):
    g, a_max, budget = case
    assert (search_twin_subgraphs(g, a_max=a_max, subset_budget=budget)
            == expected_search(g, a_max, budget))
    # the reference's singleton witnesses are exactly the twin pairs
    assert find_twin_pairs(g) == [(w.g_vertices[0], w.h_vertices[0], w.kind)
                                  for w in reference_twin_search(g, a_max=1).witnesses]


def test_search_truncation_follows_the_candidate_count(rng):
    # the default budget of 10**6 cuts part size 2 from n = 55 on, whatever the graph
    for n, cut in ((54, False), (55, True)):
        assert _candidates(n, 2) == {54: 950_184, 55: 1_024_650}[n]
        g = random_connected_graph(rng, n, extra_edges=n // 4)
        assert search_twin_subgraphs(g, a_max=2).truncated is cut


# ---------------------------------------------------------------------------
# pendant structure

def test_pendant_pairs():
    pp = pendant_pairs(star(4))
    assert len(pp) == 3 and all(alpha == beta == 1 for *_, alpha, beta in pp)
    assert pendant_pairs(path(4)) == []
    g = WeightedGraph.build(6, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (3, 4, 1), (4, 5, 1)])
    assert pendant_pairs(g) == [(0, 1, 2, 2, 3)]
    # `pendant-pair` finds the same pair from the neighbourhoods
    [v] = cert_pendant_pair(collect_facts(g, None, MatrixKind.ADJACENCY))
    assert v.scope == ("vertex", 1)
    assert dict(v.witness) == {"partner": 2, "support": 0, "alpha": 2, "beta": 3}


def test_pendant_twin_consistency(rng):
    # pendant pairs of equal weight are exactly false twins
    from conftest import random_tree
    for _ in range(20):
        g = random_tree(rng, int(rng.integers(3, 10)))
        twins = {(u, v) for u, v, k in find_twin_pairs(g) if k is TwinKind.FALSE}
        for _, u, w, _, _ in pendant_pairs(g):
            assert (u, w) in twins


def test_is_caterpillar():
    # the caterpillar test of the tree-suite oracle in conftest
    assert is_caterpillar(path(5))
    assert is_caterpillar(star(5))  # deleting the leaves leaves a single vertex
    spider = WeightedGraph.build(7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1),
                                     (0, 5, 1), (5, 6, 1)])
    assert not is_caterpillar(spider)
    with pytest.raises(ValueError):
        is_caterpillar(cycle(4))


# ---------------------------------------------------------------------------
# cached structure: neighbourhoods and the traversal

@st.composite
def _any_graph(draw):
    """Graphs on 1-10 vertices, often disconnected, with unit, integer or
    real weights."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = draw(st.sampled_from([st.just(1), st.integers(1, 4),
                                   st.floats(0.25, 4.0, allow_nan=False)]))
    return WeightedGraph.build(n, [(u, v, draw(weight)) for u, v in chosen])


def _networkx(g):
    gnx = nx.Graph()
    gnx.add_nodes_from(range(g.n))
    gnx.add_weighted_edges_from(g.edges)
    return gnx


@settings(max_examples=300, deadline=None)
@given(_any_graph())
def test_structure_matches_networkx(g):
    gnx = _networkx(g)
    comps = sorted(sorted(c) for c in nx.connected_components(gnx))
    assert connected_components(g) == comps
    assert is_tree(g) == nx.is_tree(gnx)
    assert degrees(g) == [gnx.degree(v) for v in range(g.n)]
    assert weighted_degrees(g) == [gnx.degree(v, weight="weight") for v in range(g.n)]
    for v in range(g.n):
        row = g.neighbourhoods[v]
        assert list(row) == sorted(gnx[v])
        assert dict(row) == {x: gnx[v][x]["weight"] for x in gnx[v]}
    bip = bipartition(g)
    assert bip.present == nx.is_bipartite(gnx)
    if bip.present:  # each component coloured from its smallest vertex
        colour = {}
        for comp in comps:
            colour.update(nx.bipartite.color(gnx.subgraph(comp)))
            if colour[comp[0]] == 1:
                colour.update((v, 1 - colour[v]) for v in comp)
        assert bip.b1 == tuple(v for v in range(g.n) if colour[v] == 0)
        assert bip.b2 == tuple(v for v in range(g.n) if colour[v] == 1)


def test_cached_structure_is_read_only():
    g = WeightedGraph.build(4, [(0, 1, 2), (1, 2, 1)])
    assert g.neighbourhoods is g.neighbourhoods and g.traversal is g.traversal
    with pytest.raises(TypeError):
        g.neighbourhoods[0][3] = 1
    with pytest.raises(TypeError):
        g.neighbourhoods[1][0] = 5
    with pytest.raises(TypeError):
        g.traversal.colour[0] = -1
    with pytest.raises(AttributeError):
        g.traversal.components = ()
    assert g.traversal.components == ((0, 1, 2), (3,))
    assert g.traversal.bipartite == (True, True)
    copy = pickle.loads(pickle.dumps(g))  # the cached members are not pickled
    assert copy == g and "neighbourhoods" not in vars(copy)
    assert copy.neighbourhoods == g.neighbourhoods


def test_degrees_returns_a_fresh_list():
    g = star(4)
    deg = degrees(g)
    deg[0] = 0  # leaf_peel_order counts its own copy down in the same way
    assert degrees(g) == [3, 1, 1, 1]
    assert degrees(g) is not degrees(g)


_EDGE_LIKE_LINE = st.one_of(
    st.tuples(st.integers(-2, 12), st.integers(-2, 12),
              st.sampled_from(["1", "2", "0", "-1", "0.5", "1e400", "1e-400", "nan", "inf",
                               "1/2", "x", "3.0"])).map(lambda t: " ".join(map(str, t))),
    st.sampled_from(["", "# comment", "0 1", "0 1 1 1", "a b c", "1 2 3 # tail"]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.lists(_EDGE_LIKE_LINE).map("\n".join)))
def test_edgelist_fuzz_gives_a_graph_or_a_format_error(text):
    try:
        g = parse_weighted_edgelist(text)
    except GraphFormatError:
        return
    assert isinstance(g, WeightedGraph)


# ---------------------------------------------------------------------------
# validation

def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        WeightedGraph.build(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.build(2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        WeightedGraph.build(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.build(2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        WeightedGraph.build(2, [(0, 1, 2)], WeightClass.UNIT)
