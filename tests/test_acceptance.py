"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria with stated runtime budgets assert them.
"""

import math
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np

from qmix import (HadamardKind, MatrixKind, WeightClass,
                  WeightedGraph, bipartition, certify_graph,
                  check_real_target_period, decompose_graph, empirical_inf,
                  hadamard_classify, is_periodic_vertex, matrix_of, mixing_deviation,
                  regular_equivalence_check, scan_local, scan_uniform,
                  states_proportional, transition_matrix, vertex_support)
from qmix.walk import bipartite_block_check

from conftest import (complete, complete_bipartite, cube_q3, cycle, grouped_reconstruction,
                      path, projectors_of, random_connected_graph, random_tree, star,
                      subdivide)


@contextmanager
def criterion(num, desc, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {num:02d}: PASS ({elapsed:.3f}s) - {desc}")


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


def strict_fired_anywhere(report):
    if any(v.fired for v in report.graph_verdicts):
        return True
    return any(v.fired for _, vs in report.vertex_verdicts for v in vs)


def test_criterion_01_k2_uniform_mixing():
    with criterion(1, "two-vertex graph mixes at pi/4", budget=0.1):
        rep = scan_uniform(dec_of(complete(2)), 2.0)
        assert len(rep.detections) == 1
        det = rep.detections[0]
        assert abs(det.time - math.pi / 4) < 1e-9
        assert det.delta < 1e-10


def test_criterion_02_k4_uniform_mixing_and_period():
    with criterion(2, "K4 mixes at pi/4 with a Butson-8 matrix and returns at pi/2",
                   budget=0.5):
        dec = dec_of(complete(4))
        rep = scan_uniform(dec, 2.0)
        det = next(d for d in rep.detections if abs(d.time - math.pi / 4) < 1e-8)
        assert det.delta < 1e-8
        cls = hadamard_classify(2.0 * transition_matrix(dec, det.time))
        assert cls.kind is HadamardKind.BUTSON and cls.butson_order == 8
        assert not cls.dephased
        res = check_real_target_period(dec, 0, det.time, det.target_state)
        assert res.applicable and res.periodic
        assert abs(res.period - math.pi / 2) < 1e-8
        assert res.overlap > 1 - 1e-8
        assert abs(complex(transition_matrix(dec, math.pi / 2)[0, 0])) > 1 - 1e-8


def test_criterion_03_p3_center_local_mixing():
    with criterion(3, "path-3 center mixes at arctan(sqrt 2)/sqrt 2 toward (i,-1,i)",
                   budget=0.5):
        dec = dec_of(path(3))
        rep = scan_local(dec, 1, 2.0)
        tau = math.atan(math.sqrt(2)) / math.sqrt(2)
        det = next(d for d in rep.detections if abs(d.time - tau) < 1e-8)
        target = np.array([1j, -1.0, 1j])
        # the state at tau matches (i,-1,i) up to one unimodular factor and
        # entrywise conjugation (time reversal); the strict-proportional state
        # appears at the mirror time within the same window
        assert states_proportional(det.target_state.entries, target, 1e-6,
                                   up_to_conjugation=True)
        assert any(states_proportional(d.target_state.entries, target, 1e-6)
                   for d in rep.detections)
        verdict = is_periodic_vertex(dec, 1)
        assert verdict.status.value == "periodic"
        assert abs(verdict.period_hint - math.pi / math.sqrt(2)) < 1e-9
        assert verdict.overlap > 1 - 1e-9


def test_criterion_04_q3_uniform_mixing():
    with criterion(4, "3-cube mixes at pi/4", budget=1.0):
        rep = scan_uniform(dec_of(cube_q3()), 2.0)
        det = next(d for d in rep.detections if abs(d.time - math.pi / 4) < 1e-6)
        assert det.delta < 1e-8


def test_criterion_05_star_mixing_and_soundness():
    with criterion(5, "4-star mixes at 2 pi/(3 sqrt 3) and survives the strict tier",
                   budget=0.5):
        g = star(4)
        dec = dec_of(g)
        rep = scan_uniform(dec, 2.0)
        det = rep.detections[0]
        assert abs(det.time - 2 * math.pi / (3 * math.sqrt(3))) < 1e-8
        report = certify_graph(g, dec, MatrixKind.ADJACENCY)
        assert not strict_fired_anywhere(report)


def test_criterion_06_soundness_regression():
    with criterion(6, "no strict rule fires on the six known mixing instances",
                   budget=2.0):
        for g in (complete(2), complete(3), complete(4), cube_q3(), star(4), cycle(5)):
            report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
            assert not strict_fired_anywhere(report), (g.n, report.fired_rules())


def test_criterion_07_rule_out_regressions(rng):
    checks = []

    def timed(name, fn):
        start = time.perf_counter()
        fn()
        checks.append((name, time.perf_counter() - start))
        assert checks[-1][1] < 0.1, f"{name} took {checks[-1][1]:.3f}s"

    with criterion(7, "exact rule-out regressions fire as expected"):
        g = star(5)

        def leaves_by_twins():
            report = certify_graph(g, dec_of(g), MatrixKind.ADJACENCY)
            for u in range(1, 5):
                assert any(v.rule_id == "twin-vertex" and v.fired
                           for v in report.verdicts_for(u))
        timed("star5-leaf-twins", leaves_by_twins)

        def center_by_degree():
            report = certify_graph(g, dec_of(g, MatrixKind.LAPLACIAN),
                                   MatrixKind.LAPLACIAN)
            assert any(v.rule_id == "degree-vs-average-LQ" and v.fired
                       for v in report.verdicts_for(0))
        timed("star5-center-degree", center_by_degree)

        def p7_graph_level():
            p7 = path(7)
            assert certify_graph(p7, dec_of(p7), MatrixKind.ADJACENCY).graph_ruled_out
        timed("path7", p7_graph_level)

        for i in range(20):
            t = random_tree(rng, int(rng.integers(3, 13)))
            s = subdivide(t)
            assert (s.n % 4) != 0  # 2n - 1 is odd

            def subdivided_ruled_out(s=s):
                report = certify_graph(s, None, MatrixKind.ADJACENCY)
                assert report.graph_ruled_out
                assert "bipartite-order-mod4" in report.fired_rules()
            timed(f"subdivided-tree-{i}", subdivided_ruled_out)

        def k33_ruled_out():
            k33 = complete_bipartite(3, 3)
            report = certify_graph(k33, dec_of(k33), MatrixKind.ADJACENCY)
            assert report.graph_ruled_out
            assert "bipartite-order-mod4" in report.fired_rules()
        timed("k33", k33_ruled_out)

        def p4_pendants():
            p4 = path(4)
            report = certify_graph(p4, dec_of(p4), MatrixKind.ADJACENCY)
            for u in (0, 3):
                hits = [v for v in report.verdicts_for(u)
                        if v.rule_id == "bipartite-degree-parity" and v.fired]
                assert hits and dict(hits[0].witness)["route"] == "count-parity"
        timed("p4-pendants", p4_pendants)


def test_criterion_08_randomized_invariant_suites(rng):
    with criterion(8, "randomized invariant suites on 100 graphs up to n=30",
                   budget=60.0):
        classes = [WeightClass.UNIT, WeightClass.INTEGER, WeightClass.REAL]
        for i in range(100):
            n = int(rng.integers(2, 31))
            g = random_connected_graph(rng, n, classes[i % 3])
            dec = dec_of(g)
            tol = 1e-9 * n
            # projector algebra and reconstruction
            total = sum(projectors_of(dec))
            assert np.abs(total - np.eye(n)).max() < tol
            m = matrix_of(g, MatrixKind.ADJACENCY)
            assert np.abs(grouped_reconstruction(dec) - m).max() < tol
            for a, p in enumerate(projectors_of(dec)):
                assert np.abs(p @ p - p).max() < tol
                for q in projectors_of(dec)[a + 1:]:
                    assert np.abs(p @ q).max() < tol
            # unitarity, group law, symmetry at random times
            for t in rng.uniform(-8.0, 8.0, size=3):
                u = transition_matrix(dec, float(t))
                assert np.abs(u @ u.conj().T - np.eye(n)).max() < tol
                assert np.abs(u - u.T).max() < tol
                s = float(rng.uniform(-8.0, 8.0))
                assert np.abs(transition_matrix(dec, s) @ u
                              - transition_matrix(dec, s + float(t))).max() < tol
            # support partition and the deviation formula at t = 0
            expected0 = math.sqrt((n - 1) / n)
            for u_idx in range(n):
                supp = vertex_support(dec, u_idx)
                assert abs(sum(w * w for w in supp.weights) - 1.0) < tol
                assert abs(mixing_deviation(dec, u_idx, 0.0) - expected0) < 1e-12
            # bipartite block pattern
            bip = bipartition(g)
            if bip.present:
                for t in rng.uniform(0.0, 8.0, size=3):
                    assert bipartite_block_check(dec, bip, float(t))
        for _ in range(20):
            d = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(d + 1, 16))
            if (d * n) % 2:
                n += 1
            gnx = nx.random_regular_graph(d, n, seed=int(rng.integers(0, 2**31)))
            g = WeightedGraph.build(n, [(a, b, 1) for a, b in gnx.edges()])
            assert regular_equivalence_check(g, np.linspace(0.0, 5.0, 25))


def _connected_atlas_up_to_6():
    out = []
    for gnx in nx.graph_atlas_g()[1:]:
        n = gnx.number_of_nodes()
        if n < 2 or n > 6:
            continue
        if not nx.is_connected(gnx):
            continue
        out.append(WeightedGraph.build(n, [(u, v, 1) for u, v in gnx.edges()]))
    return out


def test_criterion_09_exhaustive_small_graphs():
    with criterion(9, "exhaustive consistency over all connected graphs with n <= 6",
                   budget=600.0):
        corpus = _connected_atlas_up_to_6()
        assert len(corpus) == 142
        mixing_names = set()
        for g in corpus:
            dec = dec_of(g)
            # (a) every vertex shares a nonzero support eigenvalue with another
            supports = [set(vertex_support(dec, u).indices) for u in range(g.n)]
            nonzero = {i for i, lam in enumerate(dec.eigenvalues) if abs(lam) > 1e-8}
            for u in range(g.n):
                assert any(supports[u] & supports[v] & nonzero
                           for v in range(g.n) if v != u), (g.edges, u)
            # (b) graphs where the scan certifies uniform mixing survive the
            # strict tier, and the limit matrix is Hadamard and non-dephased
            rep = scan_uniform(dec, 20.0)
            detected = [d for d in rep.detections if d.delta < 1e-8]
            report = certify_graph(g, dec, MatrixKind.ADJACENCY)
            if detected:
                mixing_names.add((g.n, g.edge_count))
                assert not strict_fired_anywhere(report), \
                    (g.edges, report.fired_rules())
                for d in detected[:2]:
                    cls = d.hadamard
                    assert cls.kind is not HadamardKind.NOT_HADAMARD
                    assert not cls.dephased
            # (c) the kernel size bound and the eigenvector inequality agree
            for u, vs in report.vertex_verdicts:
                for v in vs:
                    if v.rule_id == "bipartite-kernel-square" and v.fired:
                        w = dict(v.witness)
                        if w.get("route") == "signed-vector-nnz" and \
                                w["sqrt_n"] > w["restricted_nnz"]:
                            assert any(x.rule_id == "eigenvector-inequality" and x.fired
                                       for x in vs), (g.edges, u)
        # sanity: the five known mixing instances at this scale were all seen
        assert {(2, 1), (3, 3), (4, 6), (4, 4), (4, 3)} <= mixing_names


def test_criterion_10_limit_behavior_substitutes(rng):
    with criterion(10, "5-cycle infima are nonincreasing; cherries are ruled out "
                       "on 50 random limb trees"):
        vals = empirical_inf(dec_of(cycle(5)), None, (10.0, 100.0, 1000.0))
        infs = [v for _, v in vals]
        assert infs[0] >= infs[1] >= infs[2]
        for _ in range(50):
            host = random_tree(rng, int(rng.integers(2, 11)))
            root = int(rng.integers(0, host.n))
            n = host.n + 3
            edges = list(host.edges)
            v, u, w = host.n, host.n + 1, host.n + 2
            # equal leaf weights make u and w twins, and unequal ones leave
            # the cherry lemma to `pendant-pair`, which rules out the lighter leaf
            for heavy, rule, ruled in ((1, "twin-vertex", (u, w)), (2, "pendant-pair", (u,))):
                g = WeightedGraph.build(n, edges + [(root, v, 1), (v, u, 1), (v, w, heavy)])
                assert g.n >= 5
                report = certify_graph(g, None, MatrixKind.ADJACENCY)
                for x in ruled:
                    assert any(y.rule_id == rule and y.fired for y in report.verdicts_for(x))
