from dataclasses import replace
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmix import (RULES, CertifyOptions, MatrixKind, Tier, TwinKind, TwinSubgraphWitness,
                  Verdict, WeightedGraph, cert_bipartite_balance, cert_bipartite_global,
                  cert_bipartite_parity, cert_connectivity, cert_degree_A_c4free, cert_degree_LQ,
                  cert_eigenvector_inequality, cert_kernel_part_size, cert_kernel_vector,
                  cert_pendant_pair, cert_planar_family, cert_tree_suite,
                  cert_twin_subgraphs, cert_twins, certify_graph, certify_vertex,
                  collect_facts, decompose_graph, search_twin_subgraphs,
                  signed_kernel_vectors, subdivide)
from qmix.graphs import TwinSearchResult
from conftest import (big_fi, cartesian_product, complete, complete_bipartite, cube_q3, cycle,
                      hypercube, path, planted_true_pair, rational_matrix,
                      random_connected_graph, random_tree, reference_exact_kernel, star)


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


def facts_of(g, kind=MatrixKind.ADJACENCY, dec=None, **opts):
    return collect_facts(g, dec, kind, CertifyOptions(**opts))


def fired(verdicts, rule):
    return any(v.rule_id == rule and v.verdict is Verdict.RULED_OUT for v in verdicts)


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
    # exact kernel vector and sqrt(6) > 2
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                (0, 4, 1), (0, 5, 1)])
    v = cert_eigenvector_inequality(facts_of(g, dec=dec_of(g)), 4)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "exact-kernel"


def test_eigenvector_inequality_k4_inconclusive():
    g = complete(4)
    facts = facts_of(g, dec=dec_of(g))
    for u in range(4):
        assert cert_eigenvector_inequality(facts, u).verdict is Verdict.INCONCLUSIVE


def test_eigenvector_inequality_star_center_inconclusive():
    g = star(4)
    v = cert_eigenvector_inequality(facts_of(g, dec=dec_of(g)), 0)
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
            got = dict(cert_eigenvector_inequality(fh, perm[u]).witness)
            want = dict(cert_eigenvector_inequality(fg, u).witness)
            assert got["best_eigenvalue"] == pytest.approx(want["best_eigenvalue"], abs=1e-9)


def test_eigenvector_inequality_float_route():
    # center of the 5-star under the Laplacian: eigenvector (4,-1,-1,-1,-1)
    # violates sqrt(5)*4 <= 8, caught through the canonical float vectors
    g = star(5)
    v = cert_eigenvector_inequality(
        facts_of(g, MatrixKind.LAPLACIAN, dec_of(g, MatrixKind.LAPLACIAN)), 0)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "canonical-float"


def test_eigenvector_inequality_float_disabled():
    g = star(5)
    v = cert_eigenvector_inequality(facts_of(g, MatrixKind.LAPLACIAN), 0)
    assert v.verdict is Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# degree bounds

def test_degree_LQ():
    v = cert_degree_LQ(facts_of(star(5), MatrixKind.LAPLACIAN), 0)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["bound"] == Fraction(16, 5)
    v = cert_degree_LQ(facts_of(star(4), MatrixKind.LAPLACIAN), 0)
    assert v.verdict is Verdict.INCONCLUSIVE  # boundary: 3 <= 3
    v = cert_degree_LQ(facts_of(cycle(6), MatrixKind.SIGNLESS_LAPLACIAN), 2)
    assert v.verdict is Verdict.INCONCLUSIVE
    v = cert_degree_LQ(facts_of(star(5)), 0)
    assert v.verdict is Verdict.NOT_APPLICABLE


def test_degree_A_c4free_star_boundary():
    g = star(7)  # q = 15, bound 2(6+15)/7 = 6
    verdicts = cert_degree_A_c4free(facts_of(g), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.INCONCLUSIVE
    assert dict(main.witness)["bound"] == 6


def test_degree_A_c4free_spider_fires():
    # 5-star with one leg subdivided: n = 7, q = 11, bound 34/7 < 5
    g = WeightedGraph.build(7, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1),
                                (0, 5, 1), (5, 6, 1)])
    verdicts = cert_degree_A_c4free(facts_of(g), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.RULED_OUT
    assert dict(main.witness)["bound"] == Fraction(34, 7)
    assert dict(main.witness)["dist2_pairs"] == 11


def test_degree_A_unicyclic_c4_variant():
    # a 4-cycle with one pendant: the adjusted bound applies
    g = WeightedGraph.build(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 4, 1)])
    verdicts = cert_degree_A_c4free(facts_of(g), 0)
    main = next(v for v in verdicts if v.rule_id == "degree-common-neighbors-A")
    assert main.verdict is Verdict.NOT_APPLICABLE  # graph has a C4
    var = next(v for v in verdicts if v.rule_id == "degree-unicyclic-c4-A")
    stats_q = dict(var.witness)["dist2_pairs"]
    assert var.verdict in (Verdict.RULED_OUT, Verdict.INCONCLUSIVE)
    assert dict(var.witness)["bound"] == Fraction(2 * (5 + stats_q + 2), 5)


def test_planar_family_tree_and_unicyclic():
    g = star(6)  # tree with a degree-5 center
    v = cert_planar_family(facts_of(g, MatrixKind.LAPLACIAN), 0)
    assert v.verdict is Verdict.RULED_OUT and dict(v.witness)["violated"] == "k-cyclic"
    # tree bound is deg <= 4 - 4/n, so degree 4 already fires
    g = star(5)
    v = cert_planar_family(facts_of(g, MatrixKind.SIGNLESS_LAPLACIAN), 0)
    assert v.verdict is Verdict.RULED_OUT
    # unicyclic: degree 5 > 4 fires
    g = WeightedGraph.build(7, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1),
                                (0, 4, 1), (0, 5, 1), (0, 6, 1)])
    facts = facts_of(g, MatrixKind.LAPLACIAN)
    v = cert_planar_family(facts, 0)
    assert v.verdict is Verdict.RULED_OUT
    v = cert_planar_family(facts, 1)
    assert v.verdict is Verdict.INCONCLUSIVE


def test_planar_family_asserted_planar():
    # n = 30 grid-ish graph: degree 12 > 12 - 24/30 under --assert-planar
    edges = [(0, i, 1) for i in range(1, 13)]
    edges += [(i, i + 1, 1) for i in range(13, 29)] + [(12, 13, 1)]
    g = WeightedGraph.build(30, edges)
    v = cert_planar_family(facts_of(g, MatrixKind.LAPLACIAN, assert_planar=True), 0)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["violated"] in ("k-cyclic", "planar")
    v = cert_planar_family(facts_of(g, assert_planar=True), 0)
    assert v.verdict is Verdict.NOT_APPLICABLE


# ---------------------------------------------------------------------------
# twins

def test_twins_certificate():
    assert cert_twins(facts_of(star(5)), 1).verdict is Verdict.RULED_OUT
    assert cert_twins(facts_of(cycle(4)), 0).verdict is Verdict.INCONCLUSIVE  # n = 4
    assert cert_twins(facts_of(path(4)), 1).verdict is Verdict.INCONCLUSIVE  # no twins


def big_fii(extra_path=11):
    base = [(3, 1, 1), (1, 2, 1), (2, 0, 1), (5, 4, 1), (4, 6, 1), (3, 5, 1)]
    edges = base + [(3, 7, 1)] + [(7 + i, 8 + i, 1) for i in range(extra_path - 1)]
    return WeightedGraph.build(7 + extra_path, edges)


def test_twin_subgraphs_true_pair_fires():
    g = big_fi()  # n = 18 > 16, found by the pipeline's search (a <= 2)
    v = cert_twin_subgraphs(facts_of(g), 0)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "true-pair-size"


def test_twin_subgraphs_false_pair_eigenvector():
    # n = 18: the paths 0-2-1 and 6-4-5 hang off 3 and 5 alike, with inner
    # kernel vector (1, -1, 0) over (0, 1, 2); the pipeline searches no false
    # pair of this size, so the witness is given
    g = big_fii()
    w = TwinSubgraphWitness(kind=TwinKind.FALSE, g_vertices=(0, 1, 2), h_vertices=(4, 5, 6),
                            bijection=((0, 6), (1, 5), (2, 4)))
    facts = replace(facts_of(g), twin_witnesses=(w,))
    for u in (0, 1, 5, 6):
        v = cert_twin_subgraphs(facts, u)
        assert v.verdict is Verdict.RULED_OUT, u
        assert dict(v.witness)["route"] == "false-pair-eigenvector"
    # the inner-path centers carry a zero entry, so they are not ruled out
    v = cert_twin_subgraphs(facts, 2)
    assert v.verdict is Verdict.INCONCLUSIVE


def test_twin_subgraphs_planted_true_pairs_fire(rng):
    # part size 2 rules out from n = 17 on, at vertices no twin pair covers
    for i, n in enumerate(range(17, 26)):
        for weights in ((1,), (1, 2, 3)):
            g, planted = planted_true_pair(rng, n, weights)
            kind = WALK_MATRICES[i % 3]
            facts = facts_of(g, kind)
            assert not {v for a, b, _ in facts.twins for v in (a, b)} & set(planted)
            for u in planted:
                v = cert_twin_subgraphs(facts, u)
                assert v.verdict is Verdict.RULED_OUT, (n, weights, kind, u)
                assert dict(v.witness)["route"] == "true-pair-size"
                assert dict(v.witness)["part_size"] == 2


def test_twin_subgraphs_small_graph_inconclusive():
    g = complete(4)
    facts = replace(facts_of(g), twin_witnesses=search_twin_subgraphs(g, a_max=1).witnesses)
    v = cert_twin_subgraphs(facts, 0)
    assert v.verdict is Verdict.INCONCLUSIVE  # n = 4 <= 4


def test_twin_subgraphs_rejects_bad_witness():
    bad = TwinSubgraphWitness(kind=TwinKind.TRUE, g_vertices=(0,), h_vertices=(2,))
    facts = replace(facts_of(path(4)), twin_witnesses=(bad,))
    with pytest.raises(ValueError):
        cert_twin_subgraphs(facts, 0)


# ---------------------------------------------------------------------------
# bipartite certificates

def test_bipartite_parity_odd_tree():
    g = random_tree(np.random.default_rng(5), 7)
    for u in range(7):
        if sum(1 for a, b, _ in g.edges if u in (a, b)) == 1:
            v = cert_bipartite_parity(facts_of(g), u)
            assert v.verdict is Verdict.RULED_OUT
            assert dict(v.witness)["route"] == "odd-order-degree"
            break


def test_bipartite_parity_p4_pendant_count_rule():
    g = path(4)
    for u in (0, 3):
        v = cert_bipartite_parity(facts_of(g), u)
        assert v.verdict is Verdict.RULED_OUT
        assert dict(v.witness)["route"] == "count-parity"


def test_bipartite_parity_c6_consistent():
    g = cycle(6)
    for u in range(6):
        assert cert_bipartite_parity(facts_of(g), u).verdict is Verdict.INCONCLUSIVE


def test_kernel_vector_star_inconclusive():
    g = star(4)
    assert cert_kernel_vector(facts_of(g), 1).verdict is Verdict.INCONCLUSIVE


def test_kernel_vector_star_asserted_tier_reports_literal_form():
    g = star(4)
    asserted = cert_kernel_part_size(facts_of(g), 1)
    assert len(asserted) == 1 and asserted[0].verdict is Verdict.RULED_OUT
    assert asserted[0].tier is Tier.PAPER_ASSERTED


def test_kernel_vector_p3_endpoint():
    g = path(3)
    v = cert_kernel_vector(facts_of(g), 0)
    assert v.verdict is Verdict.RULED_OUT
    assert dict(v.witness)["route"] == "not-a-square"


def test_kernel_vector_p3_center_not_applicable():
    g = path(3)
    assert cert_kernel_vector(facts_of(g), 1).verdict is Verdict.NOT_APPLICABLE


def test_kernel_vector_ten_vertex_spider():
    # 3 legs of length 3: singular, n = 10 not a perfect square
    g = WeightedGraph.build(10, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (0, 4, 1), (4, 5, 1), (5, 6, 1),
                                 (0, 7, 1), (7, 8, 1), (8, 9, 1)])
    from qmix import exact_kernel
    basis = exact_kernel(g)
    assert basis  # singular
    u = next(u for u in range(10) if any(vec[u] for vec in basis))
    assert cert_kernel_vector(facts_of(g), u).verdict is Verdict.RULED_OUT


def test_bipartite_global_k33():
    vs = cert_bipartite_global(facts_of(complete_bipartite(3, 3)))
    assert any(v.rule_id == "bipartite-order-mod4" and v.fired for v in vs)


def test_bipartite_global_subdivided_trees(rng):
    for _ in range(8):
        t = random_tree(rng, int(rng.integers(3, 13)))
        s = subdivide(t)
        vs = cert_bipartite_global(facts_of(s, subdivision_preimage=(t.n, t.edge_count)))
        assert any(v.rule_id == "subdivision-order" and v.fired for v in vs)
        assert any(v.rule_id == "bipartite-order-mod4" and v.fired for v in vs)


def test_bipartite_global_star_strict_passes():
    facts = facts_of(star(4))
    strict = cert_bipartite_global(facts)
    assert all(v.tier is Tier.STRICT and not v.fired for v in strict)
    asserted = cert_bipartite_balance(facts)
    assert all(v.tier is Tier.PAPER_ASSERTED for v in asserted)
    assert any(v.rule_id == "bipartite-balance" and v.fired for v in asserted)


def test_bipartite_global_small_orders_exempt():
    vs = cert_bipartite_global(facts_of(complete(2)))
    assert all(not v.fired for v in vs)


# ---------------------------------------------------------------------------
# pendant pairs

def test_pendant_pair_unit_n6():
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                (3, 4, 1), (3, 5, 1)])
    vs = cert_pendant_pair(facts_of(g))
    ruled = {v.scope[1] for v in vs if v.fired}
    assert ruled == {4, 5}


def test_pendant_pair_weighted():
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
             (0, 6, 1), (6, 7, 3), (6, 8, 1)]
    g = WeightedGraph.build(9, edges)
    vs = cert_pendant_pair(facts_of(g))
    ruled = {v.scope[1] for v in vs if v.fired}
    assert ruled == {8}  # the light pendant: sqrt(9) * 3 > 4


def test_pendant_pair_small_inconclusive():
    vs = cert_pendant_pair(facts_of(star(4)))
    assert all(v.verdict is Verdict.INCONCLUSIVE for v in vs)


def test_pendant_pair_laplacian_needs_equal_weights():
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
             (0, 6, 1), (6, 7, 3), (6, 8, 1)]
    g = WeightedGraph.build(9, edges)
    vs = cert_pendant_pair(facts_of(g, MatrixKind.LAPLACIAN))
    assert all(v.verdict is Verdict.NOT_APPLICABLE for v in vs)


# ---------------------------------------------------------------------------
# tree suite

def test_tree_suite_path6():
    vs = cert_tree_suite(facts_of(path(6)))
    assert any(v.rule_id == "path-graph" and v.fired for v in vs)
    assert any(v.rule_id == "caterpillar-pendant-parity" and v.fired for v in vs)


def test_tree_suite_all_odd_degrees():
    # the 8-vertex "double star": two degree-4 centers, six pendants
    g = WeightedGraph.build(8, [(0, 1, 1), (0, 2, 1), (0, 3, 1),
                                (1, 4, 1), (1, 5, 1), (1, 6, 1), (0, 7, 1)])
    deg = [sum(1 for a, b, _ in g.edges if u in (a, b)) for u in range(8)]
    assert all(d != 2 for d in deg)
    vs = cert_tree_suite(facts_of(g))
    assert any(v.rule_id == "tree-no-degree-two" and v.fired for v in vs)


def test_tree_suite_pendant_tree_pattern():
    from qmix import attach_pendants
    xp4 = attach_pendants(path(4))
    vs = cert_tree_suite(facts_of(xp4))
    assert any(v.rule_id == "pendant-tree-pattern" and v.fired for v in vs)


def test_tree_suite_unicyclic_parity():
    # 6-vertex bipartite unicyclic, not a cycle: C4 with a 2-path tail
    g = WeightedGraph.build(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                                (0, 4, 1), (4, 5, 1)])
    vs = cert_tree_suite(facts_of(g))
    entry = next(v for v in vs if v.rule_id == "unicyclic-degree-parity")
    # n = 6 == 2 mod 4: rule fires exactly when the deg 2,3 (mod 4) count is even
    count = sum(1 for d in [3, 2, 2, 2, 2, 1] if d % 4 in (2, 3))
    assert entry.fired == (count % 2 == 0)


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
    for g in (complete(2), complete(3), complete(4), cube_q3(), cycle(4), cycle(5)):
        for kind in WALK_MATRICES:
            report = certify_graph(g, dec_of(g, kind), kind)
            assert not report.graph_ruled_out, (g, kind, report.fired_rules())
            assert report.surviving_vertices == tuple(range(g.n))
    # |U(pi/4) e_0| is flat at the 4-star centre under both Laplacians
    for kind in WALK_MATRICES[1:]:
        report = certify_graph(star(4), dec_of(star(4), kind), kind)
        assert 0 in report.surviving_vertices, (kind, report.verdicts_for(0))


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


def _with_exact_pool(g, dec, kind, opts, tol):
    """The facts with an exact kernel and signed pool under every matrix,
    the kernel from the rational elimination oracle."""
    basis = reference_exact_kernel(g, kind)
    signed = signed_kernel_vectors(basis, max_dim=tol.signed_budget)
    return replace(collect_facts(g, dec, kind, opts, tol), kernel_basis=basis,
                   signed_vectors=signed.vectors, signed_truncated=signed.truncated)


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
            report = certify_graph(g, dec_of(g, kind), kind,
                                   CertifyOptions(tier=Tier.PAPER_ASSERTED))
            for vs in [report.graph_verdicts] + [vs for _, vs in report.vertex_verdicts]:
                rows = [row_of[v.rule_id] for v in vs]
                assert rows == sorted(rows)


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
    # disabling the floating route must not change any exact-rule verdict
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        dec = dec_of(g)
        with_floats = certify_graph(g, dec, MatrixKind.ADJACENCY)
        without = certify_graph(g, None, MatrixKind.ADJACENCY)
        for (u, vs1), (_, vs2) in zip(with_floats.vertex_verdicts, without.vertex_verdicts):
            kept1 = [v for v in vs1 if v.rule_id != "eigenvector-inequality"
                     or dict(v.witness).get("route") == "exact-kernel"]
            kept2 = [v for v in vs2 if v.rule_id != "eigenvector-inequality"
                     or dict(v.witness).get("route") == "exact-kernel"]
            assert kept1 == kept2
        assert with_floats.graph_verdicts == without.graph_verdicts


def test_monotone_aggregation(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
        vertex_fired = any(v.fired and v.tier is Tier.STRICT
                           for _, vs in report.vertex_verdicts for v in vs)
        if vertex_fired:
            assert report.graph_ruled_out


def test_paper_tier_included_on_request():
    g = star(4)
    report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY,
                           CertifyOptions(tier=Tier.PAPER_ASSERTED))
    assert any(v.tier is Tier.PAPER_ASSERTED for v in report.graph_verdicts)
    strict_only = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
    assert all(v.tier is Tier.STRICT for v in strict_only.graph_verdicts)


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
