import math
from dataclasses import replace

import networkx as nx

import qmix.periodicity
from qmix import (DEFAULT_TOLERANCES, MatrixKind, PeriodicityStatus, PeriodicityVerdict,
                  RatioMode, TargetStateCandidate, WeightClass, WeightedGraph,
                  check_real_target_period, classify_periodic_support, decompose_graph,
                  is_periodic_vertex, ratio_condition, scan_local, scan_uniform,
                  transition_matrix, vertex_periodicity, vertex_support)
from qmix.periodicity import SupportBranch, rational_reconstruct
from qmix.report import periodicity_summary
from qmix.spectral import classify_values

from conftest import (complete, cube_q3, cycle, hypercube, path, random_connected_graph,
                      reference_is_periodic_vertex, star)


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


# ---------------------------------------------------------------------------
# ratio condition

def test_ratio_condition_integer():
    res = ratio_condition([-1.0, 3.0], classify_values([-1.0, 3.0]))
    assert res.satisfied and res.mode is RatioMode.INTEGER_SPECTRUM


def test_ratio_condition_surd():
    vals = [-math.sqrt(2), math.sqrt(2)]
    res = ratio_condition(vals, classify_values(vals))
    assert res.satisfied and res.mode is RatioMode.QUADRATIC_SURD


def test_ratio_condition_fails_on_mixed():
    vals = [0.0, 1.0, math.sqrt(2)]
    res = ratio_condition(vals, classify_values(vals))
    assert not res.satisfied and res.mode is RatioMode.FAILED
    assert res.witness is not None
    a, b, c, d = res.witness
    assert abs(c - d) > 0


def test_ratio_condition_rescaling_invariance():
    vals = [0.0, 1.0, math.sqrt(2)]
    scaled = [3.5 * v for v in vals]
    r1 = ratio_condition(vals, classify_values(vals))
    r2 = ratio_condition(scaled, classify_values(scaled))
    assert r1.satisfied == r2.satisfied
    good = [1.0, 2.0, 5.0]
    assert ratio_condition(good, classify_values(good)).satisfied
    scaled = [v / 3 for v in good]
    assert ratio_condition(scaled, classify_values(scaled)).satisfied


def test_rational_reconstruct():
    assert rational_reconstruct(0.5) == 0.5
    assert rational_reconstruct(2 / 7) is not None
    assert rational_reconstruct(1 / math.sqrt(2)) is None


# ---------------------------------------------------------------------------
# vertex periodicity

def test_k4_periodic_at_half_pi():
    dec = dec_of(complete(4))
    for u in range(4):
        v = is_periodic_vertex(dec, u)
        assert v.status is PeriodicityStatus.PERIODIC
        assert abs(v.period_hint - math.pi / 2) < 1e-12
        assert v.overlap > 1 - 1e-9


def test_p3_center_periodic():
    dec = dec_of(path(3))
    v = is_periodic_vertex(dec, 1)
    assert v.status is PeriodicityStatus.PERIODIC
    assert abs(v.period_hint - math.pi / math.sqrt(2)) < 1e-9
    assert v.overlap > 1 - 1e-9


def test_mixed_support_not_periodic():
    # the 4-path spectrum holds two golden-ratio conjugate pairs whose
    # difference ratios are irrational, so no vertex is periodic
    dec = dec_of(path(4))
    for u in range(4):
        v = is_periodic_vertex(dec, u)
        assert v.status is PeriodicityStatus.NOT_PERIODIC


def test_weighted_star_single_surd_family_is_periodic():
    # weights (1, 1, 2) give spectrum {0, +-sqrt(6)}: one surd family
    g = WeightedGraph.build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2)])
    v = is_periodic_vertex(dec_of(g), 1)
    assert v.status is PeriodicityStatus.PERIODIC and v.overlap > 1 - 1e-9


def test_c5_vertices_not_periodic():
    dec = dec_of(cycle(5))
    for u in range(5):
        assert is_periodic_vertex(dec, u).status is PeriodicityStatus.NOT_PERIODIC


def test_integer_spectrum_hint_verifies(rng):
    for g in (complete(3), complete(4), cube_q3(), cycle(4), cycle(6)):
        dec = dec_of(g)
        for u in range(g.n):
            v = is_periodic_vertex(dec, u)
            assert v.status is PeriodicityStatus.PERIODIC
            overlap = abs(complex(transition_matrix(dec, v.period_hint)[u, u]))
            assert overlap > 1 - 1e-9


def _unit(gnx):
    return WeightedGraph.build(gnx.number_of_nodes(), [(u, v, 1) for u, v in gnx.edges()])


def test_vertex_periodicity_matches_the_per_vertex_reference(rng):
    """One decision per support gives every vertex the verdict that the
    per-vertex decision gives it, field by field and bit for bit."""
    atlas = [_unit(gnx) for gnx in nx.graph_atlas_g()[1:]]
    weighted = [random_connected_graph(rng, n, wc) for n in range(2, 13)
                for wc in (WeightClass.INTEGER, WeightClass.REAL) for _ in range(3)]
    tol = DEFAULT_TOLERANCES
    statuses = set()
    for kind in MatrixKind:
        for dec in (decompose_graph(g, kind) for g in atlas + weighted):
            got = vertex_periodicity(dec, tol)
            want = [reference_is_periodic_vertex(dec, u, tol) for u in range(dec.n)]
            assert got == want
            assert [is_periodic_vertex(dec, u, tol) for u in range(dec.n)] == want
            statuses.update(v.status for v in got)
    assert statuses == set(PeriodicityStatus)


def test_an_empty_support_is_unknown_without_a_hint():
    # each ||E_k e_u|| is at most 1, so a support cut at 2 keeps no eigenvalue
    tol = replace(DEFAULT_TOLERANCES, supp=2.0)
    for g in (complete(4), path(3), star(4)):
        dec = dec_of(g)
        got = vertex_periodicity(dec, tol)
        assert got == [PeriodicityVerdict(PeriodicityStatus.UNKNOWN)] * g.n
        assert got == [reference_is_periodic_vertex(dec, u, tol) for u in range(g.n)]


def test_a_hint_that_overflows_to_zero_is_no_hint():
    # vertex 1 has the support {-a, a} with a = sqrt(2) 1e308, and 2a
    # overflows to inf, so 2 pi / 2a would be 0, where U(0) = I
    g = WeightedGraph.build(3, [(0, 1, 1e308), (1, 2, 1e308)])
    dec = dec_of(g)
    assert len(vertex_support(dec, 1).indices) == 2
    want = PeriodicityVerdict(PeriodicityStatus.UNKNOWN)
    assert vertex_periodicity(dec)[1] == is_periodic_vertex(dec, 1) == want
    assert reference_is_periodic_vertex(dec, 1, DEFAULT_TOLERANCES) == want
    assert all(v.status is not PeriodicityStatus.PERIODIC for v in vertex_periodicity(dec))


def test_periodicity_summary_classifies_each_distinct_support_once(monkeypatch):
    """A spy on the classification that the decisions call: one call per
    distinct vertex support, not one per vertex."""
    comb = nx.path_graph(11)
    for i in range(11):  # a tooth of two vertices at every spine vertex
        comb.add_edges_from([(i, 11 + 2 * i), (11 + 2 * i, 12 + 2 * i)])
    graphs = {"q5": hypercube(5), "comb": _unit(comb),
              "gnp": _unit(nx.gnp_random_graph(64, 0.1, seed=7))}
    calls = []
    original = qmix.periodicity.classify_spectrum
    monkeypatch.setattr(qmix.periodicity, "classify_spectrum",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    for name, g in graphs.items():
        dec = decompose_graph(g, MatrixKind.ADJACENCY)
        calls.clear()
        periodicity_summary(dec, DEFAULT_TOLERANCES)
        distinct = {vertex_support(dec, u).indices for u in range(g.n)}
        assert len(calls) == len(distinct) < g.n, name


# ---------------------------------------------------------------------------
# support classification

def test_support_classification_q3():
    dec = dec_of(cube_q3())
    rep = classify_periodic_support(dec, 0, MatrixKind.ADJACENCY, WeightClass.UNIT)
    assert rep.branch is SupportBranch.INTEGER


def test_support_classification_star_leaf():
    dec = dec_of(star(4))
    rep = classify_periodic_support(dec, 1, MatrixKind.ADJACENCY, WeightClass.UNIT)
    assert rep.branch is SupportBranch.SURD_PAIR
    assert rep.closed_under_negation and rep.delta == 3
    assert rep.consistency_error is None


def test_support_classification_laplacian_integer():
    dec = dec_of(star(4), MatrixKind.LAPLACIAN)
    rep = classify_periodic_support(dec, 0, MatrixKind.LAPLACIAN, WeightClass.UNIT)
    assert rep.branch is SupportBranch.INTEGER


def test_surd_closure_on_bipartite(rng):
    # bipartite spectra are symmetric, so surd supports close under negation
    for g in (star(4), star(5), path(3)):
        dec = dec_of(g)
        for u in range(g.n):
            rep = classify_periodic_support(dec, u, MatrixKind.ADJACENCY, WeightClass.UNIT)
            if rep.branch is SupportBranch.SURD_PAIR:
                assert rep.closed_under_negation


# ---------------------------------------------------------------------------
# real-target periodicity

def test_k4_real_target_period():
    dec = dec_of(complete(4))
    rep = scan_uniform(dec, 2.0)
    det = rep.detections[0]
    state = TargetStateCandidate.from_vector(2.0 * transition_matrix(dec, det.time)[:, 0])
    res = check_real_target_period(dec, 0, det.time, state)
    assert res.applicable and res.periodic
    assert abs(res.period - math.pi / 2) < 1e-7
    assert res.overlap > 1 - 1e-8


def test_p3_center_target_not_applicable():
    dec = dec_of(path(3))
    rep = scan_local(dec, 1, 2.0)
    det = rep.detections[0]
    res = check_real_target_period(dec, 1, det.time, det.target_state)
    assert not res.applicable


def test_k2_real_target_period():
    dec = dec_of(complete(2))
    rep = scan_uniform(dec, 2.0)
    det = rep.detections[0]
    res = check_real_target_period(dec, 0, det.time, det.target_state)
    # state (1, i) is not a unimodular multiple of a real vector
    assert not res.applicable
