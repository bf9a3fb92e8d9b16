import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmix.certificates
from qmix import (DEFAULT_TOLERANCES, RULES, CertificateVerdict, MatrixKind, TwinKind,
                  TwinSubgraphWitness, Verdict, WeightClass, WeightedGraph,
                  cert_bipartite_global, cert_bipartite_parity, cert_connectivity,
                  cert_degree_A_c4free, cert_degree_LQ, cert_eigenvector_inequality,
                  cert_kernel_vector, cert_pendant_pair, cert_twin_subgraphs, cert_twins,
                  certify_graph, certify_vertex, collect_facts, decompose_graph,
                  find_twin_pairs, parse_graph6, scan_uniform, search_twin_subgraphs)
from qmix.certificates import verdicts_by_scope
from qmix.graphs import (TwinSearchResult, degrees, is_connected, is_tree,
                         verify_twin_subgraphs)
from conftest import (at, attach_pendants, big_fi, cartesian_product, complete,
                      complete_bipartite, cube_q3, cycle, hypercube, path, pendant_pairs,
                      pendant_tree_pattern, planted_true_pair, rational_matrix,
                      random_connected_graph, random_tree, reference_asserted_statements,
                      reference_eigenvector_inequality, reference_exact_kernel,
                      reference_family_bounds, reference_pendant_pair,
                      reference_report_summary, reference_singular_square,
                      reference_tree_suite, star, subdivide)


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


def facts_of(g, kind=MatrixKind.ADJACENCY, dec=None):
    return collect_facts(g, dec, kind)


def fired(verdicts, rule):
    return any(v.rule_id == rule and v.verdict is Verdict.RULED_OUT for v in verdicts)


def table_verdicts(facts):
    """Every verdict the rule table gives, graph scope first: evaluated where
    a row admits the input, declared elsewhere."""
    graph, by_vertex = verdicts_by_scope(facts)
    return graph + [v for vs in by_vertex for v in vs]


def through_table(facts, rule):
    return [v for v in table_verdicts(facts) if v.rule_id == rule]


# ---------------------------------------------------------------------------
# connectivity

def test_connectivity():
    two_edges = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    verdicts = cert_connectivity(facts_of(two_edges))
    assert len(verdicts) == 4 and all(v.verdict is Verdict.RULED_OUT for v in verdicts)
    assert all(dict(v.witness)["component_size"] == 2 for v in verdicts)
    assert cert_connectivity(facts_of(complete(2)))[0].verdict is Verdict.INCONCLUSIVE
    assert cert_connectivity(facts_of(path(5)))[0].verdict is Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# eigenvector inequality

def test_eigenvector_inequality_pendant_pair_graph():
    # two unit pendants on one vertex of a 6-vertex graph: e_u - e_w is an
    # exact kernel vector and sqrt(6) > 2; E_0 e_u, which the float route
    # tests first, breaks the inequality too
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                (0, 4, 1), (0, 5, 1)])
    facts = facts_of(g, dec=dec_of(g))
    v = at(cert_eigenvector_inequality(facts), 4)[0]
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "canonical-float"
    assert dict(v.witness)["eigenvalue"] == pytest.approx(0, abs=1e-12)
    v = at(cert_eigenvector_inequality(facts_of(g)), 4)[0]  # the exact route alone
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "exact-kernel"
    assert dict(v.witness)["vector"] == (0, 0, 0, 0, 1, -1)


def test_eigenvector_inequality_exact_route_decides_where_floats_cannot():
    # EtUg, a relabelled atlas graph: ker A is 2-dimensional and holds
    # e_3 - e_5, with sqrt(6) > 2, but E_0 e_3 mixes that vector with a
    # wider one, and no canonical vector breaks the inequality at 3 or 5
    g = parse_graph6("EtUg")
    dec = dec_of(g)
    facts = facts_of(g, dec=dec)
    floats_only = replace(facts, kernel_basis=[])
    for u in (3, 5):
        v = at(cert_eigenvector_inequality(facts), u)[0]
        assert v.verdict is Verdict.RULED_OUT
        assert dict(v.witness) == {"route": "exact-kernel", "vector": (0, 0, 0, 1, 0, -1),
                                   "lhs_squared": 6, "rhs": 2}
        assert at(cert_eigenvector_inequality(floats_only), u)[0].verdict is \
            Verdict.INCONCLUSIVE
    assert not fired(cert_eigenvector_inequality(floats_only), "eigenvector-inequality")


def test_eigenvector_inequality_k4_inconclusive():
    g = complete(4)
    facts = facts_of(g, dec=dec_of(g))
    for u in range(4):
        assert at(cert_eigenvector_inequality(facts), u)[0].verdict is Verdict.INCONCLUSIVE


def test_eigenvector_inequality_star_center_inconclusive():
    g = star(4)
    v = at(cert_eigenvector_inequality(facts_of(g, dec=dec_of(g))), 0)[0]
    assert v.verdict is Verdict.INCONCLUSIVE


def test_eigenvector_inequality_witness_survives_relabelling():
    """E_lambda e_u and E_-lambda e_u of a bipartite graph give equal gaps, so
    the reported best eigenvalue must not depend on rounding."""
    rng = np.random.default_rng(7)
    for g in (cube_q3(), path(6), cycle(6)):
        perm = [int(x) for x in rng.permutation(g.n)]
        h = WeightedGraph.build(g.n, [(perm[a], perm[b], w) for a, b, w in g.edges])
        fg, fh = facts_of(g, dec=dec_of(g)), facts_of(h, dec=dec_of(h))
        for u in range(g.n):
            got = dict(at(cert_eigenvector_inequality(fh), perm[u])[0].witness)
            want = dict(at(cert_eigenvector_inequality(fg), u)[0].witness)
            assert got["best_eigenvalue"] == pytest.approx(want["best_eigenvalue"], abs=1e-9)


def test_eigenvector_inequality_float_route():
    # center of the 5-star under the Laplacian: eigenvector (4,-1,-1,-1,-1)
    # violates sqrt(5)*4 <= 8, caught through the canonical float vectors
    g = star(5)
    v = at(cert_eigenvector_inequality(
        facts_of(g, MatrixKind.LAPLACIAN, dec_of(g, MatrixKind.LAPLACIAN))), 0)[0]
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "canonical-float"


def test_eigenvector_inequality_float_disabled():
    g = star(5)
    v = at(cert_eigenvector_inequality(facts_of(g, MatrixKind.LAPLACIAN)), 0)[0]
    assert v.verdict is Verdict.INCONCLUSIVE


def _inequality_cases():
    """Graphs for the eigenvector-inequality table: the atlas up to six
    vertices, seeded G(n, p) with unit, integer and real weights, and
    eigenspaces of high multiplicity."""
    for gnx in nx.graph_atlas_g():
        if 2 <= gnx.number_of_nodes() <= 6:
            yield WeightedGraph.build(gnx.number_of_nodes(), [(u, v, 1) for u, v in gnx.edges()])
    rng = np.random.default_rng(12)
    for n in range(8, 41, 4):
        for wc in (WeightClass.UNIT, WeightClass.INTEGER, WeightClass.REAL):
            yield random_connected_graph(rng, n, wc, extra_edges=int(0.2 * n * (n - 1) / 2))
    yield from (complete(6), complete(9), hypercube(4), cartesian_product(complete(3), complete(3)))


def test_eigenvector_inequality_on_empty_supports_has_no_best_gap():
    # a support cut above every ||E_k e_u|| (each is at most 1) leaves no group
    g = complete(4)
    facts = collect_facts(g, dec_of(g), MatrixKind.ADJACENCY,
                          tol=replace(DEFAULT_TOLERANCES, supp=2.0))
    for got in cert_eigenvector_inequality(facts):
        assert got.verdict is Verdict.INCONCLUSIVE
        assert got.witness == (("best_gap", None), ("best_eigenvalue", None))
        assert got == reference_eigenvector_inequality(facts, got.scope[1])


def test_eigenvector_inequality_table_matches_the_per_vertex_loop():
    for g in _inequality_cases():
        for kind in WALK_MATRICES:
            facts = facts_of(g, kind, dec_of(g, kind))
            for got in cert_eigenvector_inequality(facts):
                want = reference_eigenvector_inequality(facts, got.scope[1])
                assert (got.verdict, got.scope) == (want.verdict, want.scope)
                got_w, want_w = dict(got.witness), dict(want.witness)
                assert got_w.keys() == want_w.keys(), (g.edges, kind, got_w, want_w)
                for key, value in want_w.items():
                    if isinstance(value, float) and key not in ("eigenvalue", "best_eigenvalue"):
                        assert got_w[key] == pytest.approx(value, rel=0, abs=1e-12), (
                            g.edges, kind, key)
                    else:
                        assert got_w[key] == value, (g.edges, kind, key)


# ---------------------------------------------------------------------------
# degree bounds

def test_degree_LQ():
    v = at(cert_degree_LQ(facts_of(star(5), MatrixKind.LAPLACIAN)), 0)[0]
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["bound"] == Fraction(16, 5)
    v = at(cert_degree_LQ(facts_of(star(4), MatrixKind.LAPLACIAN)), 0)[0]
    assert v.verdict is Verdict.INCONCLUSIVE  # boundary: 3 <= 3
    v = at(cert_degree_LQ(facts_of(cycle(6), MatrixKind.SIGNLESS_LAPLACIAN)), 2)[0]
    assert v.verdict is Verdict.INCONCLUSIVE
    v = at(through_table(facts_of(star(5)), "degree-vs-average-LQ"), 0)[0]
    assert v.verdict is Verdict.NOT_APPLICABLE
    # trees and unicyclic graphs: 4|E|/n is 4 - 4/n and 4
    for g, kind in ((star(6), MatrixKind.LAPLACIAN), (star(5), MatrixKind.SIGNLESS_LAPLACIAN)):
        assert at(cert_degree_LQ(facts_of(g, kind)), 0)[0].verdict is Verdict.RULED_OUT
    g = WeightedGraph.build(7, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1),
                                (0, 4, 1), (0, 5, 1), (0, 6, 1)])
    verdicts = cert_degree_LQ(facts_of(g, MatrixKind.LAPLACIAN))
    assert at(verdicts, 0)[0].verdict is Verdict.RULED_OUT  # degree 6 > 4
    assert at(verdicts, 1)[0].verdict is Verdict.INCONCLUSIVE


def test_degree_A_c4free_star_boundary():
    g = star(7)  # q = 15, bound 2(6+15)/7 = 6
    verdicts = at(cert_degree_A_c4free(facts_of(g)), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.INCONCLUSIVE
    assert dict(main.witness)["bound"] == 6


def test_degree_A_c4free_spider_fires():
    # 5-star with one leg subdivided: n = 7, q = 11, bound 34/7 < 5
    g = WeightedGraph.build(7, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1),
                                (0, 5, 1), (5, 6, 1)])
    verdicts = at(cert_degree_A_c4free(facts_of(g)), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.RULED_OUT
    assert dict(main.witness)["bound"] == Fraction(34, 7)
    assert dict(main.witness)["dist2_pairs"] == 11


def test_degree_A_unicyclic_c4_variant():
    # a 4-cycle with one pendant: the adjusted bound applies
    g = WeightedGraph.build(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 4, 1)])
    verdicts = at(cert_degree_A_c4free(facts_of(g)), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.NOT_APPLICABLE  # graph has a C4
    var = next(v for v in verdicts if v.rule_id == "degree-unicyclic-c4-A")
    stats_q = dict(var.witness)["dist2_pairs"]
    assert var.verdict in (Verdict.RULED_OUT, Verdict.INCONCLUSIVE)
    assert dict(var.witness)["bound"] == Fraction(2 * (5 + stats_q + 2), 5)
    # a 4-cycle with k pendants on vertex 0: at k = 12 (n = 16) this is the
    # only rule that rules out the hub under A, and at k = 8 no rule does
    for k, hub_rules in ((12, ["degree-unicyclic-c4-A"]), (8, [])):
        g = WeightedGraph.build(4 + k, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
                                + [(0, 4 + i, 1) for i in range(k)])
        report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
        assert [v.rule_id for v in report.verdicts_for(0) if v.fired] == hub_rules, k


def _planar_graphs():
    """Every planar atlas graph, then seeded planar graphs with 3 <= n <= 60:
    random trees, and random edge subsets of stacked triangulations."""
    for gnx in nx.graph_atlas_g()[1:]:
        if nx.check_planarity(gnx)[0]:
            yield WeightedGraph.build(gnx.number_of_nodes(), [(u, v, 1) for u, v in gnx.edges()])
    rng = np.random.default_rng(22)
    for _ in range(20):
        yield random_tree(rng, int(rng.integers(3, 61)))
    for _ in range(40):
        n = int(rng.integers(3, 61))
        edges, faces = {(0, 1), (0, 2), (1, 2)}, [(0, 1, 2)]
        for v in range(3, n):  # a vertex put in a face keeps the graph a triangulation
            a, b, c = faces.pop(int(rng.integers(len(faces))))
            edges |= {(a, v), (b, v), (c, v)}
            faces += [(a, b, v), (a, c, v), (b, c, v)]
        keep = rng.uniform(0.3, 1.0)
        yield WeightedGraph.build(n, [(u, v, 1) for u, v in sorted(edges) if rng.random() < keep])


def test_family_degree_bounds_restate_the_exact_edge_count_rules():
    """The deleted planar-family bounds put an upper bound on |E| where the
    exact rules read |E| itself.  So on a planar graph with n >= 3, every
    vertex they rule out the exact rule of the same walk rules out too,
    and the k-cyclic bound is 4|E|/n itself."""
    exact_ids = ("degree-vs-average-LQ", "degree-common-neighbors-A")
    compared = 0
    for g in _planar_graphs():
        if g.n <= 2:
            continue
        deg = degrees(g)
        for kind in WALK_MATRICES:
            bounds = reference_family_bounds(g, kind)
            if kind is not MatrixKind.ADJACENCY:
                assert ("k-cyclic" in bounds) == is_connected(g), g.edges
                if "k-cyclic" in bounds:
                    assert bounds["k-cyclic"] == Fraction(4 * g.edge_count, g.n), g.edges
            oracle = {u for u, d in enumerate(deg) if any(d > b for b in bounds.values())}
            if not oracle:
                continue
            facts = facts_of(g, kind)
            rule = cert_degree_LQ if kind is not MatrixKind.ADJACENCY else cert_degree_A_c4free
            exact = {v.scope[1] for v in rule(facts) if v.fired and v.rule_id in exact_ids}
            assert oracle <= exact, (g.edges, kind, oracle - exact)
            compared += 1
    assert compared > 100
    # 3n - 6 bounds |E| only from n = 3 on: at K1 and K2, which mix under
    # every walk, the planar bound rules out every vertex
    for g in (complete(1), complete(2)):
        for kind in WALK_MATRICES[1:]:
            assert reference_family_bounds(g, kind)["planar"] < min(degrees(g))


# ---------------------------------------------------------------------------
# twins

def test_twins_certificate():
    assert at(cert_twins(facts_of(star(5))), 1)[0].verdict is Verdict.RULED_OUT
    assert at(cert_twins(facts_of(cycle(4))), 0)[0].verdict is Verdict.INCONCLUSIVE  # n = 4
    assert at(cert_twins(facts_of(path(4))), 1)[0].verdict is Verdict.INCONCLUSIVE  # no twins


def big_fii(extra_path=11):
    base = [(3, 1, 1), (1, 2, 1), (2, 0, 1), (5, 4, 1), (4, 6, 1), (3, 5, 1)]
    edges = base + [(3, 7, 1)] + [(7 + i, 8 + i, 1) for i in range(extra_path - 1)]
    return WeightedGraph.build(7 + extra_path, edges)


def test_twin_subgraphs_true_pair_fires():
    g = big_fi()  # n = 18 > 16, found by the pipeline's search (a <= 2)
    v = at(cert_twin_subgraphs(facts_of(g)), 0)[0]
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "true-pair-size"


def test_twin_subgraphs_planted_true_pairs_fire(rng):
    # part size 2 rules out from n = 17 on, at vertices no twin pair covers
    for i, n in enumerate(range(17, 26)):
        for weights in ((1,), (1, 2, 3)):
            g, planted = planted_true_pair(rng, n, weights)
            kind = WALK_MATRICES[i % 3]
            facts = facts_of(g, kind)
            assert not {v for a, b, _ in facts.twins for v in (a, b)} & set(planted)
            for u in planted:
                v = at(cert_twin_subgraphs(facts), u)[0]
                assert v.verdict is Verdict.RULED_OUT, (n, weights, kind, u)
                assert dict(v.witness)["route"] == "true-pair-size"
                assert dict(v.witness)["part_size"] == 2


def test_twin_subgraphs_small_graph_inconclusive():
    # {0, 1} and {2, 3} are a true pair of K4, which the search does not report
    g = complete(4)
    assert search_twin_subgraphs(g, a_max=2).witnesses == ()
    w = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0, 1), h_vertices=(2, 3))
    v = at(cert_twin_subgraphs(replace(facts_of(g), twin_witnesses=(w,))), 0)[0]
    assert v.verdict is Verdict.INCONCLUSIVE  # n = 4 <= 16


def _atlas(max_n):
    for gnx in nx.graph_atlas_g()[1:]:
        if gnx.number_of_nodes() > max_n:
            return
        yield WeightedGraph.build(gnx.number_of_nodes(), [(u, v, 1) for u, v in gnx.edges()])


def test_twin_subgraphs_rejects_bad_witness():
    # the cross edges of {0, 1} and {2, 3} in P4 are not regular
    bad = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0, 1), h_vertices=(2, 3))
    facts = replace(facts_of(path(4)), twin_witnesses=(bad,))
    with pytest.raises(ValueError):
        at(cert_twin_subgraphs(facts), 0)[0]
    # a verified false pair is not a true pair: n = 18, the paths 0-2-1 and
    # 6-4-5 hang off 3 and 5 alike
    g = big_fii()
    w = TwinSubgraphWitness(kind=TwinKind.FALSE, g_vertices=(0, 1, 2), h_vertices=(4, 5, 6),
                            bijection=((0, 6), (1, 5), (2, 4)))
    assert verify_twin_subgraphs(g, w)
    with pytest.raises(ValueError):
        cert_twin_subgraphs(replace(facts_of(g), twin_witnesses=(w,)))


def test_every_atlas_twin_pair_passes_verification(rng):
    """Every twin pair of find_twin_pairs, as a singleton witness of its
    kind, passes the exact twin-subgraph check, unweighted and with integer
    or real weights on the same edges: `twin-vertex` reads the same pairs
    that an a = 1 twin-subgraph witness would."""
    checked = 0
    for g in _atlas(7):
        for weights in ((1,), (1, 2), (0.5, 1.5)):
            wg = g if weights == (1,) else WeightedGraph.build(
                g.n, [(u, v, rng.choice(weights).item()) for u, v, _ in g.edges])
            for u, v, kind in find_twin_pairs(wg):
                true = kind is TwinKind.TRUE
                w = TwinSubgraphWitness(
                    kind=kind, g_vertices=(u,), h_vertices=(v,), bijection=((u, v),),
                    valency_in=0 if true else None,
                    valency_cross=wg.neighbourhoods[u][v] if true else None)
                assert verify_twin_subgraphs(wg, w), (wg.edges, w)
                checked += 1
    assert checked > 3000


def _has_fired(verdicts, rule, u):
    return any(v.rule_id == rule and v.fired and v.scope[1] == u for v in verdicts)


def test_twin_verdicts_are_left_to_twin_vertex():
    """Seeded random graphs on 5-14 vertices with unit, integer and real
    weights: both vertices of every twin pair fall to `twin-vertex`, which is
    why `twin-subgraph` reports no a = 1 witness, and every `twin-subgraph`
    verdict that fires quotes a part size of at least 2."""
    rng = np.random.default_rng(18)
    pairs = 0
    for n in range(5, 15):
        for weight_class in WEIGHT_CLASSES:
            for extra in (0, n // 3, n):
                g = random_connected_graph(rng, n, weight_class, extra_edges=extra)
                if n >= 6 and rng.random() < 0.5:  # plant a twin of vertex 0
                    row = g.neighbourhoods[0]
                    g = WeightedGraph.build(n, [e for e in g.edges if n - 1 not in e[:2]]
                                            + [(n - 1, y, w) for y, w in row.items()
                                               if y != n - 1])
                for kind in WALK_MATRICES:
                    report = certify_graph(g, dec_of(g, kind), kind)
                    verdicts = [v for _, vs in report.vertex_verdicts for v in vs]
                    for u, w, _ in find_twin_pairs(g):
                        pairs += 1
                        assert _has_fired(verdicts, "twin-vertex", u), (g.edges, kind, u)
                        assert _has_fired(verdicts, "twin-vertex", w), (g.edges, kind, w)
                    assert all(dict(v.witness)["part_size"] >= 2 for v in verdicts
                               if v.rule_id == "twin-subgraph" and v.fired)
    assert pairs > 100


# ---------------------------------------------------------------------------
# bipartite certificates

def test_bipartite_parity_odd_tree():
    g = random_tree(np.random.default_rng(5), 7)
    for u in range(7):
        if sum(1 for a, b, _ in g.edges if u in (a, b)) == 1:
            v = at(cert_bipartite_parity(facts_of(g)), u)[0]
            assert v.verdict is Verdict.RULED_OUT
            assert dict(v.witness)["route"] == "odd-order-degree"
            break


def test_bipartite_parity_p4_pendant_count_rule():
    g = path(4)
    for u in (0, 3):
        v = at(cert_bipartite_parity(facts_of(g)), u)[0]
        assert v.verdict is Verdict.RULED_OUT
        assert dict(v.witness)["route"] == "count-parity"


def test_bipartite_parity_c6_consistent():
    g = cycle(6)
    for u in range(6):
        assert at(cert_bipartite_parity(facts_of(g)), u)[0].verdict is Verdict.INCONCLUSIVE


def test_kernel_vector_star_inconclusive():
    g = star(4)
    assert at(cert_kernel_vector(facts_of(g)), 1)[0].verdict is Verdict.INCONCLUSIVE


def test_kernel_vector_p3_endpoint():
    g = path(3)
    v = at(cert_kernel_vector(facts_of(g)), 0)[0]
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "not-a-square"


def test_kernel_vector_p3_center_not_applicable():
    g = path(3)
    assert at(cert_kernel_vector(facts_of(g)), 1)[0].verdict is Verdict.NOT_APPLICABLE


def test_kernel_vector_ten_vertex_spider():
    # 3 legs of length 3: singular, n = 10 not a perfect square
    g = WeightedGraph.build(10, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (0, 4, 1), (4, 5, 1), (5, 6, 1),
                                 (0, 7, 1), (7, 8, 1), (8, 9, 1)])
    from qmix import exact_kernel
    basis = exact_kernel(g)
    assert basis  # singular
    u = next(u for u in range(10) if any(vec[u] for vec in basis))
    assert at(cert_kernel_vector(facts_of(g)), u)[0].verdict is Verdict.RULED_OUT


def test_bipartite_global_k33():
    vs = cert_bipartite_global(facts_of(complete_bipartite(3, 3)))
    assert any(v.rule_id == "bipartite-order-mod4" and v.fired for v in vs)


def test_bipartite_global_subdivided_trees(rng):
    for _ in range(8):
        t = random_tree(rng, int(rng.integers(3, 13)))
        s = subdivide(t)
        vs = cert_bipartite_global(facts_of(s))
        assert any(v.rule_id == "bipartite-order-mod4" and v.fired for v in vs)


def test_bipartite_global_star_strict_passes():
    assert not any(v.fired for v in cert_bipartite_global(facts_of(star(4))))


def test_asserted_statements_fire_on_the_mixing_star():
    """Each literal part-size, part-congruence and balance statement rules
    out vertices of K1,3 under A, which mixes at 2 pi/(3 sqrt 3); so none is
    a rule, and the strict forms keep every vertex."""
    g = star(4)
    assert reference_asserted_statements(g) == {
        "part-size": {1, 2, 3}, "part-mod4": {0, 1, 2, 3}, "balance": {0, 1, 2, 3}}
    dec = dec_of(g)
    [detection] = scan_uniform(dec, 2.0).detections
    assert abs(detection.time - 2 * math.pi / (3 * math.sqrt(3))) < 1e-9
    report = certify_graph(g, dec, MatrixKind.ADJACENCY)
    assert report.surviving_vertices == (0, 1, 2, 3) and not report.graph_ruled_out
    strict = ("bipartite-kernel-square", "bipartite-order-mod4")
    assert {v.rule_id for v in table_verdicts(facts_of(g, dec=dec))} >= set(strict)


def test_bipartite_global_small_orders_exempt():
    vs = cert_bipartite_global(facts_of(complete(2)))
    assert all(not v.fired for v in vs)


# ---------------------------------------------------------------------------
# pendant pairs

def test_pendant_pair_weighted():
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
             (0, 6, 1), (6, 7, 3), (6, 8, 1)]
    g = WeightedGraph.build(9, edges)
    vs = cert_pendant_pair(facts_of(g))
    ruled = {v.scope[1] for v in vs if v.fired}
    assert ruled == {8}  # the light pendant: sqrt(9) * 3 > 4


def test_pendant_pair_small_inconclusive():
    # K1,3 with leaf weights 1, 2, 3: three unequal pairs on four vertices
    g = WeightedGraph.build(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
    vs = cert_pendant_pair(facts_of(g))
    assert [dict(v.witness)["pair"] for v in vs] == [(1, 2), (1, 3), (2, 3)]
    assert all(v.verdict is Verdict.INCONCLUSIVE for v in vs)


def test_pendant_pair_unit_n6():
    # equal pendant weights make twins, which are left to `twin-vertex`
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)])
    facts = facts_of(g)
    assert cert_pendant_pair(facts) == [CertificateVerdict(
        "pendant-pair", Verdict.NOT_APPLICABLE, ("graph", None),
        (("note", "no pendant pair of unequal weights"),))]
    assert {v.scope[1] for v in cert_twins(facts) if v.fired} == {4, 5}


def _weightings(g, rng):
    """g with unit weights, integer weights 1-3 and real weights in [0.5, 2]."""
    yield g
    yield WeightedGraph.build(g.n, [(u, v, int(rng.integers(1, 4))) for u, v, _ in g.edges])
    yield WeightedGraph.build(g.n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in g.edges])


def _pendant_proof_cases():
    """Every atlas graph, and seeded Pruefer trees and G(n, 0.3) with
    n = 5-14, each with unit, integer and real weights."""
    rng = np.random.default_rng(26)
    for g in _atlas(7):
        yield from _weightings(g, rng)
    for n in range(5, 15):
        for _ in range(8):
            t = nx.from_prufer_sequence(rng.integers(0, n, n - 2).tolist())
            yield from _weightings(WeightedGraph.build(n, [(a, b, 1) for a, b in t.edges()]), rng)
            gnx = nx.gnp_random_graph(n, 0.3, seed=int(rng.integers(2**31)))
            yield from _weightings(WeightedGraph.build(n, [(a, b, 1) for a, b in gnx.edges()]),
                                   rng)


def test_pendant_pair_keeps_only_what_twin_vertex_does_not_rule_out():
    """The former rule, as an oracle: wherever it fires under L or Q, or on
    a pair of equal weights, `twin-vertex` fires at that vertex; under A,
    its verdicts on pairs of unequal weights are the rule's, in order."""
    fired = Counter()
    for g in _pendant_proof_cases():
        for kind in WALK_MATRICES:
            oracle = reference_pendant_pair(g, kind)
            if not oracle and kind is not MatrixKind.ADJACENCY:
                continue
            facts = facts_of(g, kind)
            twin_ruled = {v.scope[1] for v in cert_twins(facts) if v.fired}
            kept = []
            for v in oracle:
                witness = dict(v.witness)
                if kind is MatrixKind.ADJACENCY and witness["alpha"] != witness["beta"]:
                    kept.append(v)
                    fired["unequal"] += 1
                else:
                    assert v.scope[1] in twin_ruled, (g.edges, kind, v)
                    fired["twins", kind] += 1
            if kind is MatrixKind.ADJACENCY:
                assert [v for v in cert_pendant_pair(facts) if v.fired] == kept, g.edges
    assert min(fired.values()) >= 100 and len(fired) == 4, fired


def _cherry_lemma_cases():
    """Every atlas graph with n >= 5 and a cherry, and one seeded Pruefer
    tree with a cherry for each n = 6-40."""
    for g in _atlas(7):
        if g.n >= 5 and pendant_pairs(g):
            yield g
    rng = np.random.default_rng(4)
    for n in range(6, 41):
        while True:
            t = nx.from_prufer_sequence(rng.integers(0, n, n - 2).tolist())
            g = WeightedGraph.build(n, [(a, b, 1) for a, b in t.edges()])
            if pendant_pairs(g):
                yield g
                break


def test_cherry_lemma_under_A():
    """Under A, at every cherry of 20 random positive weightings (integer
    weights 1-3 and real weights in [0.5, 2], alternately): equal leaf
    weights let `twin-vertex` rule out both leaves, and unequal ones let
    `pendant-pair` rule out the lighter leaf."""
    rng = np.random.default_rng(27)
    cases = Counter()
    for base in _cherry_lemma_cases():
        for i in range(20):
            draw = ((lambda: int(rng.integers(1, 4))) if i % 2 == 0
                    else (lambda: float(rng.uniform(0.5, 2.0))))
            g = WeightedGraph.build(base.n, [(u, v, draw()) for u, v, _ in base.edges])
            facts = facts_of(g)
            twin_ruled = {v.scope[1] for v in cert_twins(facts) if v.fired}
            pendant_ruled = {v.scope[1] for v in cert_pendant_pair(facts) if v.fired}
            for _, u, w, alpha, beta in pendant_pairs(g):
                if alpha == beta:
                    assert {u, w} <= twin_ruled, (g.edges, u, w)
                    cases["equal"] += 1
                else:
                    assert (u if alpha < beta else w) in pendant_ruled, (g.edges, u, w)
                    cases["unequal"] += 1
    assert min(cases.values()) >= 1000, cases


# ---------------------------------------------------------------------------
# tree suite and bipartite-singular-square, deleted by proof: each oracle
# statement fires only where a rule its proof names does

BDP, TV = "bipartite-degree-parity", "twin-vertex"
PROOF_RULES = {  # statement: the rules its proof names (README, Certificate tiers)
    "path-graph": {BDP},
    "tree-degree-parity": {BDP, TV},
    "caterpillar-pendant-parity": {BDP, TV},
    "pendant-tree-pattern": {BDP},
    "unicyclic-degree-parity": {BDP},
    "bipartite-singular-square": {"bipartite-order-mod4", "connectivity",
                                  "bipartite-kernel-square"},
}


def test_tree_suite_path6():
    g = path(6)
    assert reference_tree_suite(g) == {"path-graph", "tree-degree-parity",
                                       "caterpillar-pendant-parity"}
    # n even: c = n - 2 is even and |E| odd, so every degree-2 vertex fails
    report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert [u for u in range(6) if fired(report.verdicts_for(u), BDP)] == [1, 2, 3, 4]


def test_tree_suite_all_odd_degrees():
    # the 8-vertex "double star": two degree-4 centers, six pendants.  A tree
    # on n >= 5 vertices with no vertex of degree 2 has two leaves on one
    # support vertex, so `twin-vertex` rules it out
    g = WeightedGraph.build(8, [(0, 1, 1), (0, 2, 1), (0, 3, 1),
                                (1, 4, 1), (1, 5, 1), (1, 6, 1), (0, 7, 1)])
    assert 2 not in degrees(g)
    assert fired(cert_twins(facts_of(g)), "twin-vertex")
    assert "tree-degree-parity" in reference_tree_suite(g)
    rng = np.random.default_rng(2)
    trees = [t for t in _atlas(7) if is_tree(t)] + [random_tree(rng, n) for n in range(5, 15)
                                                     for _ in range(200)]
    checked = 0
    for t in trees:
        if t.n >= 5 and 2 not in degrees(t):
            assert any(fired(at(cert_twins(facts_of(t)), u), "twin-vertex")
                       for u in range(t.n)), t.edges
            checked += 1
    assert checked > 30


def test_tree_suite_pendant_tree_pattern():
    xp4 = attach_pendants(path(4))
    assert pendant_tree_pattern(xp4) == [1, 2, 2, 1]
    assert "pendant-tree-pattern" in reference_tree_suite(xp4)
    assert pendant_tree_pattern(path(6)) is None
    # every degree of the corona is 1, 2 or 3 mod 4, and c = n / 2
    assert fired(certify_graph(xp4, dec_of(xp4), MatrixKind.ADJACENCY).verdicts_for(0), BDP)


def test_tree_suite_unicyclic_parity():
    # 6-vertex bipartite unicyclic graphs, not cycles: n = 2 mod 4, so the
    # statement fires exactly when the deg 2,3 (mod 4) count c is even, and
    # then the odd-degree vertices fail `bipartite-degree-parity`
    tail = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                   (0, 4, 1), (4, 5, 1)])  # c = 5
    two_pendants = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                           (0, 4, 1), (2, 5, 1)])  # c = 4
    assert "unicyclic-degree-parity" not in reference_tree_suite(tail)
    assert "unicyclic-degree-parity" in reference_tree_suite(two_pendants)
    report = certify_graph(two_pendants, dec_of(two_pendants), MatrixKind.ADJACENCY)
    assert [u for u in range(6) if fired(report.verdicts_for(u), BDP)] == [0, 2, 4, 5]


def _bipartite_unicyclic(max_n):
    """Every graph made by adding one edge between two vertices at odd
    distance >= 3 to a tree with at most max_n vertices."""
    for n in range(4, max_n + 1):
        for t in nx.nonisomorphic_trees(n):
            dist = dict(nx.all_pairs_shortest_path_length(t))
            for u, v in itertools.combinations(range(n), 2):
                if dist[u][v] >= 3 and dist[u][v] % 2:
                    yield WeightedGraph.build(n, [(a, b, 1) for a, b in t.edges()] + [(u, v, 1)])


def _proof_cases():
    """Every tree with 3-12 vertices, the bipartite unicyclic graphs from
    trees with up to 10, every atlas graph, and seeded Pruefer trees with up
    to 60 vertices, unit-weighted and with integer weights 1-3."""
    for n in range(3, 13):
        for t in nx.nonisomorphic_trees(n):
            yield WeightedGraph.build(n, [(a, b, 1) for a, b in t.edges()])
    yield from _bipartite_unicyclic(10)
    yield from _atlas(7)
    rng = np.random.default_rng(25)
    for _ in range(60):
        n = int(rng.integers(3, 61))
        t = nx.from_prufer_sequence(rng.integers(0, n, n - 2).tolist())
        yield WeightedGraph.build(n, [(a, b, 1) for a, b in t.edges()])
        yield WeightedGraph.build(n, [(a, b, int(rng.integers(1, 4))) for a, b in t.edges()])


def test_deleted_statements_fire_only_where_their_proof_rules_fire():
    fired_statements = Counter()
    for g in _proof_cases():
        facts = facts_of(g)
        statements = reference_tree_suite(g) if g.weight_class is WeightClass.UNIT else set()
        if reference_singular_square(g, facts.kernel_basis):
            statements.add("bipartite-singular-square")
        if not statements:
            continue
        rules = set(certify_graph(g, None, MatrixKind.ADJACENCY, facts=facts).fired_rule_ids)
        for statement in statements:
            assert rules & PROOF_RULES[statement], (statement, g.edges)
        fired_statements.update(statements)
    assert set(fired_statements) == set(PROOF_RULES)
    assert min(fired_statements.values()) >= 5, fired_statements


# ---------------------------------------------------------------------------
# pipelines

MIXING_INSTANCES = [complete(2), complete(3), complete(4), cube_q3(), star(4), cycle(5)]


def test_soundness_regression_strict_tier():
    for g in MIXING_INSTANCES:
        dec = dec_of(g)
        report = certify_graph(g, dec, MatrixKind.ADJACENCY)
        assert not report.graph_ruled_out, (g, report.fired_rules())
        assert report.surviving_vertices == tuple(range(g.n))


WALK_MATRICES = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN)


def test_strict_tier_silent_under_every_matrix():
    # regular graphs: L = dI - A and Q = dI + A mix wherever A does
    # and so do K1 and K2 with any edge weight
    weighted_k2 = (WeightedGraph.build(2, [(0, 1, 3)]), WeightedGraph.build(2, [(0, 1, 2.5)]))
    for g in (complete(1), complete(2), complete(3), complete(4), cube_q3(), cycle(4),
              cycle(5)) + weighted_k2:
        for kind in WALK_MATRICES:
            report = certify_graph(g, dec_of(g, kind), kind)
            assert not report.graph_ruled_out, (g, kind, report.fired_rules())
            assert report.surviving_vertices == tuple(range(g.n)), (g, kind)
    # the 4-star mixes under A, and |U(pi/4) e_0| is flat at its centre
    # under both Laplacians
    for kind in WALK_MATRICES:
        report = certify_graph(star(4), dec_of(star(4), kind), kind)
        survivors = (0, 1, 2, 3) if kind is MatrixKind.ADJACENCY else (0,)
        assert set(survivors) <= set(report.surviving_vertices), (kind, report.fired_rules())


# regular graphs that mix under A (at pi/4 or 2 pi/9), so under L and Q too
LARGE_MIXING = {
    "Q4": hypercube(4), "Q5": hypercube(5), "Q6": hypercube(6),
    "K3xK3": cartesian_product(complete(3), complete(3)),
    "K4xK4": cartesian_product(complete(4), complete(4)),
    "K3xK3xK3": cartesian_product(complete(3), complete(3), complete(3)),
    "K4xK4xK2": cartesian_product(complete(4), complete(4), complete(2)),
}


def test_strict_tier_silent_on_large_mixing_instances():
    for name, g in LARGE_MIXING.items():
        for kind in WALK_MATRICES:
            report = certify_graph(g, dec_of(g, kind), kind)
            assert report.surviving_vertices == tuple(range(g.n)), (name, kind,
                                                                    report.fired_rules())
    # n = 27..32: the part-size-2 search runs in full, and a true pair would
    # contradict the sqrt(n) theorem on a mixing graph
    for name in ("Q5", "K3xK3xK3", "K4xK4xK2"):
        res = search_twin_subgraphs(LARGE_MIXING[name], a_max=2)
        assert res == TwinSearchResult(witnesses=(), truncated=False), name


def _relabelled(g, perm):
    return WeightedGraph.build(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


MIXING = (complete(2), complete(3), complete(4), cube_q3(), cycle(4), cycle(5))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strict_tier_silent_on_mixing_instances_under_relabelling(data):
    g = data.draw(st.sampled_from(MIXING + (star(4),)), label="graph")
    perm = data.draw(st.permutations(range(g.n)), label="perm")
    h = _relabelled(g, perm)
    for kind in WALK_MATRICES:
        report = certify_graph(h, dec_of(h, kind), kind)
        if g in MIXING:
            assert report.surviving_vertices == tuple(range(h.n)), (perm, kind)
            assert not report.graph_ruled_out, (perm, kind, report.fired_rules())
        else:  # the centre of the 4-star mixes under all three matrices
            assert perm[0] in report.surviving_vertices, (perm, kind)


@st.composite
def _integer_union(draw):
    """An integer-weighted graph of 1-6 components, each a random tree plus
    a few edges, under a random labelling, with weights 1-4 or above 2^63."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6), label="sizes")
    n = sum(sizes)
    label = draw(st.permutations(range(n)), label="label")
    weight = st.integers(1, 4) | st.integers(2 ** 63 + 1, 2 ** 63 + 4)
    edges, start = [], 0
    for size in sizes:
        part = [(draw(st.integers(start, v - 1)), v) for v in range(start + 1, start + size)]
        others = [(a, b) for a in range(start, start + size)
                  for b in range(a + 1, start + size) if (a, b) not in part]
        if others:
            part += draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
        edges += [(label[a], label[b], draw(weight)) for a, b in part]
        start += size
    return WeightedGraph.build(n, edges)


def _with_exact_pool(g, dec, kind, tol):
    """The facts with an exact kernel, and so a signed pool, under every
    matrix, the kernel from the rational elimination oracle."""
    basis = reference_exact_kernel(g, kind)
    return replace(collect_facts(g, dec, kind, tol), kernel_basis=basis,
                   signed_truncated=len(basis) > tol.signed_budget)


@settings(max_examples=60, deadline=None)
@given(_integer_union())
@example(WeightedGraph.build(4, []))
@example(WeightedGraph.build(6, [(0, 5, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)]))
def test_laplacian_kernels_decide_no_verdict(g):
    # ker L and ker Q hold only component indicators and colourings, and
    # wherever a signed one breaks the eigenvector inequality the canonical
    # float vector of the zero eigenspace does too
    for kind in WALK_MATRICES[1:]:
        dec = dec_of(g, kind)
        report = certify_graph(g, dec, kind)
        with mock.patch("qmix.certificates.collect_facts", _with_exact_pool):
            pooled = certify_graph(g, dec, kind)
        for (u, vs), (_, pooled_vs) in zip(report.vertex_verdicts, pooled.vertex_verdicts):
            assert fired(vs, "eigenvector-inequality") == \
                fired(pooled_vs, "eigenvector-inequality"), (kind, u)
        assert report.fired_rules() == pooled.fired_rules(), kind
        assert report.surviving_vertices == pooled.surviving_vertices, kind
        assert report.signed_enumeration_truncated == pooled.signed_enumeration_truncated


def test_signed_truncation_under_the_laplacians_reads_the_kernel_dimension():
    # thirteen K2 give 13 components, all bipartite; thirteen triangles
    # give 13 components, none bipartite
    k2s = WeightedGraph.build(26, [(2 * i, 2 * i + 1, 1) for i in range(13)])
    triangles = WeightedGraph.build(39, [(3 * i + a, 3 * i + b, 1) for i in range(13)
                                         for a, b in ((0, 1), (1, 2), (0, 2))])
    for g, kind, truncated in ((k2s, MatrixKind.LAPLACIAN, True),
                               (k2s, MatrixKind.SIGNLESS_LAPLACIAN, True),
                               (triangles, MatrixKind.LAPLACIAN, True),
                               (triangles, MatrixKind.SIGNLESS_LAPLACIAN, False)):
        facts = facts_of(g, kind)
        assert facts.signed_truncated is truncated, (g.n, kind)
        assert facts.kernel_basis == [] and len(facts.signed_vectors) == 0
        assert truncated is (len(reference_exact_kernel(g, kind)) > 12)


def test_exact_kernel_witnesses_are_kernel_vectors():
    for gnx in nx.graph_atlas_g():
        if not 2 <= gnx.number_of_nodes() <= 6:
            continue
        g = WeightedGraph.build(gnx.number_of_nodes(), [(u, v, 1) for u, v in gnx.edges()])
        for kind in WALK_MATRICES:
            m = rational_matrix(g, kind)
            for _, vs in certify_graph(g, None, kind).vertex_verdicts:
                for v in vs:
                    w = dict(v.witness)
                    if v.fired and w.get("route") == "exact-kernel":
                        x = w["vector"]
                        assert not any(sum(m[i][j] * x[j] for j in range(g.n))
                                       for i in range(g.n)), (gnx.edges(), kind, x)


def test_verdicts_follow_rule_table(rng):
    row_of = {rule_id: i for i, row in enumerate(RULES) for rule_id in row.ids}
    assert len(row_of) == sum(len(row.ids) for row in RULES)  # each id declared once
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        for kind in WALK_MATRICES:
            report = certify_graph(g, dec_of(g, kind), kind)
            for vs in [report.graph_verdicts] + [vs for _, vs in report.vertex_verdicts]:
                rows = [row_of[v.rule_id] for v in vs]
                assert rows == sorted(rows)


def test_rule_table_declares_exactly_the_emitted_ids():
    """Over the verified mixing instances and every atlas graph with at most
    six vertices, under every walk: each emitted id is declared in a row of
    RULES, and each declared id is emitted somewhere, so no row keeps the id
    of a deleted statement."""
    declared = {rule_id for row in RULES for rule_id in row.ids}
    emitted = set()
    for g in MIXING + (star(4),) + tuple(_atlas(6)):
        for kind in WALK_MATRICES:
            report = certify_graph(g, dec_of(g, kind), kind)
            emitted.update(v.rule_id for v in report.graph_verdicts)
            emitted.update(v.rule_id for _, vs in report.vertex_verdicts for v in vs)
    assert emitted <= declared, emitted - declared
    assert declared <= emitted, declared - emitted


@pytest.mark.parametrize("kind", WALK_MATRICES)
def test_each_rule_row_is_evaluated_once_per_graph(monkeypatch, kind):
    calls = Counter()

    def counted(row):
        def evaluate(*args):
            calls[row.ids] += 1
            return row.evaluate(*args)
        return replace(row, evaluate=evaluate)

    monkeypatch.setattr(qmix.certificates, "RULES", tuple(counted(row) for row in RULES))
    g = random_tree(np.random.default_rng(9), 9)  # unit weights and bipartite
    report = certify_graph(g, dec_of(g, kind), kind)
    assert len(report.vertex_verdicts) == 9
    # so the walk alone decides which rows apply; the others are never evaluated
    assert calls == {row.ids: 1 for row in RULES if kind in row.walks}


WEIGHT_CLASSES = (WeightClass.UNIT, WeightClass.INTEGER, WeightClass.REAL)


def _weighted(n, edges, weights):
    """The graph with its first edge weighted 1, 2 or 1.5 by weight class."""
    first = {WeightClass.UNIT: 1, WeightClass.INTEGER: 2, WeightClass.REAL: 1.5}[weights]
    return WeightedGraph.build(n, [(*edges[0][:2], first)] + list(edges[1:]))


@pytest.mark.parametrize("row", RULES, ids=lambda row: row.ids[0])
def test_rule_rows_run_only_where_declared(monkeypatch, row):
    calls = []

    def evaluate(facts):
        calls.append(facts)
        return row.evaluate(facts)

    monkeypatch.setattr(qmix.certificates, "RULES", (replace(row, evaluate=evaluate),))
    graphs = {True: (6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]),  # P6
              False: (5, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1), (0, 4, 1)])}
    for kind in WALK_MATRICES:
        for weights in WEIGHT_CLASSES:
            for bip, (n, edges) in graphs.items():
                g = _weighted(n, edges, weights)
                facts = facts_of(g, kind)
                assert facts.bip.present is bip and g.weight_class is weights
                admitted = (kind in row.walks and (bip or not row.bipartite)
                            and WEIGHT_CLASSES.index(weights) <= WEIGHT_CLASSES.index(row.weights))
                calls.clear()
                verdicts = table_verdicts(facts)
                case = (kind, weights, bip)
                if admitted:
                    assert calls == [facts], case
                    continue
                assert calls == [], case
                assert all(v.verdict is Verdict.NOT_APPLICABLE
                           and v.witness == (("note", row.note),) for v in verdicts), case
                if row.scope == "graph":
                    assert [(v.rule_id, v.scope) for v in verdicts] == \
                        [(row.ids[0], ("graph", None))], case
                else:
                    assert sorted((v.rule_id, v.scope[1]) for v in verdicts) == \
                        sorted((rule, u) for rule in row.ids for u in range(g.n)), case


def test_generated_not_applicable_notes():
    # the notes that the evaluators wrote before the table generated them
    notes = {row.ids[0]: row.note for row in RULES
             if row.walks != set(MatrixKind) or row.bipartite
             or row.weights is not WeightClass.REAL}
    assert notes == {
        "degree-vs-average-LQ": "requires a Laplacian walk on a unit-weight graph",
        "degree-common-neighbors-A": "requires a unit-weight graph under the adjacency walk",
        "bipartite-degree-parity":
            "requires a unit-weight bipartite graph under the adjacency walk",
        "pendant-pair": "requires a graph under the adjacency walk",
        "bipartite-order-mod4": "requires a bipartite graph under the adjacency walk",
        "bipartite-kernel-square":
            "requires an integer-weight bipartite graph under the adjacency walk",
    }


def _summary_cases():
    """The atlas up to six vertices, and seeded G(n, p), connected or not."""
    yield from _atlas(6)
    for n in range(8, 31, 2):
        gnx = nx.gnp_random_graph(n, 0.2, seed=n)
        yield WeightedGraph.build(n, [(u, v, 1) for u, v in gnx.edges()])


def test_one_pass_summary_matches_the_three_walks():
    for g in _summary_cases():
        for kind in WALK_MATRICES:
            dec = dec_of(g, kind)
            report = certify_graph(g, dec, kind)
            assert (report.graph_ruled_out, report.fired_rules(),
                    report.surviving_vertices) == reference_report_summary(report), (
                g.edges, kind)


def test_shared_noted_rows_equal_fresh_records(monkeypatch):
    monkeypatch.setattr(qmix.certificates, "_NOTED_ROWS", {})
    reports = []
    for g in (star(5), path(7), complete(4), big_fi(), cycle(6)):
        for kind in WALK_MATRICES:
            reports.append(certify_graph(g, dec_of(g, kind), kind))
    rows = qmix.certificates._NOTED_ROWS
    assert len(rows) >= 8
    for (rule, verdict, note), row in rows.items():
        assert 0 < len(row) <= big_fi().n
        assert row == tuple(CertificateVerdict(rule, verdict, ("vertex", u),
                                               (("note", note),)) for u in range(len(row)))
    # the reports hold the shared records themselves, not copies
    shared = {id(v) for row in rows.values() for v in row}
    assert sum(id(v) in shared for r in reports for _, vs in r.vertex_verdicts for v in vs) > 100
    # a row grows to the largest n seen and no further than MAX_VERTICES
    from qmix.certificates import _noted_row
    from qmix.graphs import MAX_VERTICES
    row = _noted_row("degree-vs-average-LQ", MAX_VERTICES + 3, "a note")
    assert len(row) == MAX_VERTICES + 3 and row[-1].scope == ("vertex", MAX_VERTICES + 2)
    key = ("degree-vs-average-LQ", Verdict.NOT_APPLICABLE, "a note")
    assert key not in rows
    assert _noted_row("degree-vs-average-LQ", 3, "a note") == row[:3]
    assert len(rows[key]) == 3
    assert all(len(r) <= MAX_VERTICES for r in rows.values())


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_signed_pool_is_built_only_where_a_rule_reads_it(monkeypatch):
    calls = _count_calls(monkeypatch, qmix.certificates, "signed_kernel_vectors")
    # the pendants 4 and 5 fire on the float route, and ker A is spanned by
    # e_4 - e_5, so no open vertex lies in its support
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                (0, 4, 1), (0, 5, 1)])
    report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert fired(report.verdicts_for(4), "eigenvector-inequality") and not calls
    # EtUg: the exact route decides at 3 and 5, so it reads the pool, once
    g = parse_graph6("EtUg")
    certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert len(calls) == 1
    # the star at square n: bipartite-kernel-square reads it
    calls.clear()
    certify_graph(star(4), dec_of(star(4)), MatrixKind.ADJACENCY)
    assert len(calls) == 1


def test_exact_kernel_is_skipped_where_the_spectrum_proves_a_nonsingular(monkeypatch):
    calls = _count_calls(monkeypatch, qmix.certificates, "exact_kernel")
    for g in (complete(4), cycle(5), path(4)):
        facts = facts_of(g, dec=dec_of(g))
        assert facts.kernel_basis == [] and not facts.signed_truncated
    assert not calls
    facts_of(complete(4))  # no decomposition: elimination decides
    g = path(5)
    assert facts_of(g, dec=dec_of(g)).kernel_basis == [(1, 0, -1, 0, 1)]
    assert len(calls) == 2


def test_verdict_record_is_an_immutable_hashable_tuple():
    fields = ("twin-vertex", Verdict.RULED_OUT, ("vertex", 3), (("twin", 4),))
    v = CertificateVerdict(rule_id="twin-vertex", verdict=Verdict.RULED_OUT,
                           scope=("vertex", 3), witness=(("twin", 4),))
    with pytest.raises(AttributeError):
        v.verdict = Verdict.INCONCLUSIVE
    same = CertificateVerdict(*fields)
    assert v == same and hash(v) == hash(same) and len({v, same}) == 1
    assert v == fields and tuple(v) == fields
    assert CertificateVerdict(*fields[:3]).witness == ()
    for verdict in Verdict:
        assert v._replace(verdict=verdict).fired is (verdict is Verdict.RULED_OUT)


def test_certify_star5_pipeline():
    g = star(5)
    report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert report.surviving_vertices == (0,)
    assert report.graph_ruled_out
    for u in range(1, 5):
        assert fired(report.verdicts_for(u), "twin-vertex")


def test_certify_p7_graph_level():
    g = path(7)
    report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert report.graph_ruled_out


def test_certify_vertex_matches_graph_report():
    g = star(5)
    dec = dec_of(g)
    report = certify_graph(g, dec, MatrixKind.ADJACENCY)
    solo = certify_vertex(g, dec, MatrixKind.ADJACENCY, 1)
    assert solo == report.verdicts_for(1)


def test_exactness_float_rules_off_identical(rng):
    # disabling the floating route must not change any other rule's verdict,
    # nor the exact route's verdict wherever the float route is inconclusive
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        dec = dec_of(g)
        with_floats = certify_graph(g, dec, MatrixKind.ADJACENCY)
        without = certify_graph(g, None, MatrixKind.ADJACENCY)
        for (u, vs1), (_, vs2) in zip(with_floats.vertex_verdicts, without.vertex_verdicts):
            other1 = [v for v in vs1 if v.rule_id != "eigenvector-inequality"]
            other2 = [v for v in vs2 if v.rule_id != "eigenvector-inequality"]
            assert other1 == other2
            ineq1, = (v for v in vs1 if v.rule_id == "eigenvector-inequality")
            ineq2, = (v for v in vs2 if v.rule_id == "eigenvector-inequality")
            if dict(ineq1.witness).get("route") != "canonical-float":
                assert (ineq1.verdict is Verdict.RULED_OUT) is (ineq2.verdict is Verdict.RULED_OUT)
                if ineq1.fired:
                    assert ineq1 == ineq2
        assert with_floats.graph_verdicts == without.graph_verdicts
    # an atlas graph whose exact route decides alone at vertices 3 and 5
    g = parse_graph6("EtUg")
    with_floats = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    without = certify_graph(g, None, MatrixKind.ADJACENCY)
    for u in (3, 5):
        ineq = [v for v in with_floats.verdicts_for(u) if v.rule_id == "eigenvector-inequality"]
        assert ineq == [v for v in without.verdicts_for(u)
                        if v.rule_id == "eigenvector-inequality"]
        assert ineq[0].fired


def test_monotone_aggregation(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
        vertex_fired = any(v.fired for _, vs in report.vertex_verdicts for v in vs)
        if vertex_fired:
            assert report.graph_ruled_out


def test_cross_rule_consistency_kernel_vs_eigenvector(rng):
    # whenever the kernel rule fires through the size bound, the eigenvector
    # inequality fires on the same pool
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        dec = dec_of(g)
        report = certify_graph(g, dec, MatrixKind.ADJACENCY)
        for u, vs in report.vertex_verdicts:
            kv = [v for v in vs if v.rule_id == "bipartite-kernel-square" and v.fired]
            if kv and dict(kv[0].witness).get("route") == "signed-vector-nnz":
                witness = dict(kv[0].witness)
                if witness["sqrt_n"] ** 2 > witness["restricted_nnz"] ** 2:
                    assert fired(vs, "eigenvector-inequality")
