import math
import tracemalloc

import numpy as np
import pytest

from qmix import (HadamardKind, MatrixKind, TargetStateCandidate, WeightClass, WeightedGraph,
                  bipartite_block_check, bipartition, decompose, decompose_graph,
                  hadamard_classify, matrix_of,
                  matrix_uniform_deviation, mixing_deviation, regular_equivalence_check,
                  states_proportional, transition_matrix, verify_target_state)
from qmix.graphs import WORK_BYTES
from qmix.walk import deviation_profile

from conftest import complete, cube_q3, cycle, path, random_connected_graph, star


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


# ---------------------------------------------------------------------------
# transition matrices

def test_transition_k2_quarter_pi():
    dec = dec_of(complete(2))
    u = transition_matrix(dec, math.pi / 4)
    expected = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    assert np.abs(u - expected).max() < 1e-12


def test_transition_identity_at_zero():
    dec = dec_of(star(4))
    assert np.abs(transition_matrix(dec, 0.0) - np.eye(4)).max() < 1e-12


def test_transition_k4_entries():
    # closed form through the rank-one Perron projector: all entries of 2 U
    # have modulus one at t = pi/4 and equal +- exp(-i pi/4)
    dec = dec_of(complete(4))
    u2 = 2.0 * transition_matrix(dec, math.pi / 4)
    assert np.abs(np.abs(u2) - 1.0).max() < 1e-12
    w = np.exp(-1j * math.pi / 4)
    diag = np.diagonal(u2)
    assert np.abs(diag - w).max() < 1e-12
    off = u2[~np.eye(4, dtype=bool)]
    assert np.abs(off + w).max() < 1e-12


def test_unitarity_group_law_symmetry(rng):
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), WeightClass.REAL)
        dec = dec_of(g)
        tol = 1e-9 * g.n
        for _ in range(5):
            t, s = rng.uniform(-5, 5, size=2)
            u = transition_matrix(dec, t)
            assert np.abs(u @ u.conj().T - np.eye(g.n)).max() < tol
            assert np.abs(u - u.T).max() < tol
            both = transition_matrix(dec, s) @ u
            assert np.abs(both - transition_matrix(dec, s + t)).max() < tol


# ---------------------------------------------------------------------------
# deviations

def test_deviation_at_zero_formula(rng):
    for n in (2, 3, 7):
        g = random_connected_graph(rng, n)
        dec = dec_of(g)
        expected = math.sqrt((n - 1) / n)
        for u in range(n):
            assert abs(mixing_deviation(dec, u, 0.0) - expected) < 1e-12


def test_deviation_k2_zero_at_quarter_pi():
    dec = dec_of(complete(2))
    assert mixing_deviation(dec, 0, math.pi / 4) < 1e-12


def test_deviation_p3_center():
    dec = dec_of(path(3))
    t = math.atan(math.sqrt(2)) / math.sqrt(2)
    assert mixing_deviation(dec, 1, t) < 1e-9


def test_matrix_uniform_deviation():
    assert matrix_uniform_deviation(dec_of(complete(4)), math.pi / 4) < 1e-9
    assert matrix_uniform_deviation(dec_of(cube_q3()), math.pi / 4) < 1e-9
    assert abs(matrix_uniform_deviation(dec_of(complete(2)), 0.0) - math.sqrt(0.5)) < 1e-12


def test_deviation_profile_matches_pointwise(rng):
    g = random_connected_graph(rng, 6)
    dec = dec_of(g)
    ts = np.linspace(0.0, 3.0, 17)
    prof = deviation_profile(dec, ts, 2)
    for t, d in zip(ts, prof):
        assert abs(d - mixing_deviation(dec, 2, float(t))) < 1e-12
    prof = deviation_profile(dec, ts, None)
    for t, d in zip(ts, prof):
        assert abs(d - matrix_uniform_deviation(dec, float(t))) < 1e-12


@pytest.mark.parametrize("n", [40, 90])
def test_evaluator_matches_ungrouped_eigh(rng, n):
    """U(t) = V diag(e^(itw)) V^T straight from eigh, with no grouping."""
    g = random_connected_graph(rng, n, WeightClass.REAL)
    m = matrix_of(g, MatrixKind.ADJACENCY)
    dec = decompose(m)
    w, v = np.linalg.eigh(m)
    ts = np.linspace(0.0, 3.0, 7)
    devs = []
    for t in ts:
        ref = (v * np.exp(1j * t * w)) @ v.T
        assert np.abs(transition_matrix(dec, float(t)) - ref).max() < 1e-12
        prob = ref.real ** 2 + ref.imag ** 2
        devs.append(np.sqrt(((prob - 1.0 / n) ** 2).sum(axis=0)))
    devs = np.array(devs)
    for u in (0, n // 2, n - 1):
        assert np.abs(deviation_profile(dec, ts, u) - devs[:, u]).max() < 1e-12
        for t, d in zip(ts, devs[:, u]):
            assert abs(mixing_deviation(dec, u, float(t)) - d) < 1e-12
    assert np.abs(deviation_profile(dec, ts, None) - devs.max(axis=1)).max() < 1e-12


def test_chunked_profile_matches_pointwise_at_128(rng):
    """A grid over more than three chunks of WORK_BYTES, each holding three
    arrays of one float per time and matrix entry (or column entry), equals
    the per-time objectives, for one column and for the worst column."""
    g = random_connected_graph(rng, 128, WeightClass.REAL, extra_edges=300)
    dec = dec_of(g)
    for u, pointwise in ((5, lambda t: mixing_deviation(dec, 5, t)),
                         (None, lambda t: matrix_uniform_deviation(dec, t))):
        chunk = WORK_BYTES // (3 * 8 * 128 * (128 if u is None else 1))
        ts = np.linspace(0.0, 4.0, 3 * chunk + 7)
        want = [pointwise(float(t)) for t in ts]
        assert np.abs(deviation_profile(dec, ts, u) - want).max() < 1e-12


@pytest.mark.parametrize("u", [None, 3])
def test_profile_stays_within_the_work_budget(rng, u):
    """Evaluating a 1000-time grid at n = 128, graph-wide or for one column,
    allocates at most WORK_BYTES beyond the profile itself and O(n) floats
    of phases and sums."""
    dec = dec_of(random_connected_graph(rng, 128, WeightClass.REAL, extra_edges=300))
    ts = np.linspace(0.0, 2.0, 1000)
    deviation_profile(dec, ts[:2], u)  # lazy imports and caches are not the grid's
    tracemalloc.start()
    try:
        deviation_profile(dec, ts, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WORK_BYTES + 8 * ts.size + 64 * 8 * dec.n


def test_grouped_near_degenerate_pair_keeps_its_own_phases(rng):
    """Two eigenvalues closer than the grouping gap form one group, but U(t)
    still gives each its own phase: U(t) = q e^(itw) q^T, where the group
    mean would be off by t * 1.5e-9."""
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    w = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 3e-9, 2.0, 3.0, 4.0])
    dec = decompose((q * w) @ q.T)
    assert 2 in dec.multiplicities and len(dec.eigenvalues) == 8
    for t in (0.3, 1.7, 25.0):
        ref = (q * np.exp(1j * t * w)) @ q.T
        assert np.abs(transition_matrix(dec, t) - ref).max() < 1e-12


def test_decomposition_holds_no_cubic_array(rng):
    n = 200
    dec = dec_of(random_connected_graph(rng, n, WeightClass.REAL, extra_edges=400))
    arrays = []
    for value in vars(dec).values():
        arrays.extend(value if isinstance(value, tuple) else [value])
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) >= 3
    assert max(a.size for a in arrays) <= n * n


def test_similar_vertices_have_equal_profiles():
    # star leaves are pairwise similar; cycles are vertex-transitive
    ts = np.linspace(0.0, 5.0, 101)
    dec = dec_of(star(4))
    p1 = deviation_profile(dec, ts, 1)
    for leaf in (2, 3):
        assert np.abs(deviation_profile(dec, ts, leaf) - p1).max() < 1e-9 * 4
    dec = dec_of(cycle(6))
    p0 = deviation_profile(dec, ts, 0)
    for u in range(1, 6):
        assert np.abs(deviation_profile(dec, ts, u) - p0).max() < 1e-9 * 6


# ---------------------------------------------------------------------------
# Hadamard classification

def test_hadamard_turyn_example():
    h = np.array([[1, 1j], [1j, 1]])
    cls = hadamard_classify(h)
    assert cls.kind is HadamardKind.TURYN and not cls.dephased
    assert cls.max_defect < 1e-12


def test_hadamard_real_example():
    cls = hadamard_classify(np.array([[1, 1], [1, -1]], dtype=complex))
    assert cls.kind is HadamardKind.REAL and cls.dephased


def test_hadamard_butson8_from_k4():
    dec = dec_of(complete(4))
    cls = hadamard_classify(2.0 * transition_matrix(dec, math.pi / 4))
    assert cls.kind is HadamardKind.BUTSON and cls.butson_order == 8
    assert not cls.dephased


def test_hadamard_rejects_non_hadamard():
    cls = hadamard_classify(np.eye(3, dtype=complex))
    assert cls.kind is HadamardKind.NOT_HADAMARD
    cls = hadamard_classify(np.ones((2, 2), dtype=complex))
    assert cls.kind is HadamardKind.NOT_HADAMARD


# ---------------------------------------------------------------------------
# bipartite structure

def test_bipartite_block_pattern():
    g = path(4)
    dec = dec_of(g)
    bip = bipartition(g)
    for t in (0.3, 1.0, 2.7):
        assert bipartite_block_check(dec, bip, t)
    g = star(4)
    assert bipartite_block_check(dec_of(g), bipartition(g), 1.0)


def test_bipartite_block_requires_bipartition():
    g = cycle(3)
    with pytest.raises(ValueError):
        bipartite_block_check(dec_of(g), bipartition(g), 1.0)


def test_bipartite_block_random(rng):
    from conftest import complete_bipartite
    g = complete_bipartite(2, 3)
    dec = dec_of(g)
    bip = bipartition(g)
    for t in rng.uniform(0, 10, size=20):
        assert bipartite_block_check(dec, bip, float(t))


# ---------------------------------------------------------------------------
# target states

def test_target_state_unit_modulus():
    mu = TargetStateCandidate.from_vector([3 + 4j, -2j, 1.0])
    assert np.abs(np.abs(mu.entries) - 1.0).max() == 0.0


def test_states_proportional():
    a = np.array([1j, 1.0, 1j])
    b = np.array([1j, -1.0, 1j])
    assert not states_proportional(a, b)
    assert states_proportional(a, b, up_to_conjugation=True)
    assert states_proportional(b, 1j * b)


def test_verify_target_state_star_leaf():
    # phases (pi/2, 0, pi, pi), center first: both adjacency sums check out
    g = star(4)
    dec = dec_of(g)
    mu = TargetStateCandidate(phases=(math.pi / 2, 0.0, math.pi, math.pi))
    rep = verify_target_state(g, dec, MatrixKind.ADJACENCY, 1, mu)
    assert rep.feasible, rep.infeasible_rule
    assert rep.residual("edge-cosine-sum") < 1e-9
    assert rep.residual("common-neighbor-cosine-sum") < 1e-9


def test_verify_target_state_all_ones_infeasible():
    g = cycle(4)
    dec = dec_of(g)
    mu = TargetStateCandidate(phases=(0.2, 0.2, 0.2, 0.2))
    rep = verify_target_state(g, dec, MatrixKind.ADJACENCY, 0, mu)
    assert not rep.feasible


def test_verify_target_state_quarter_arc_infeasible():
    g = path(4)
    dec = dec_of(g)
    mu = TargetStateCandidate(phases=(0.0, math.pi / 3, 0.0, math.pi / 3))
    rep = verify_target_state(g, dec, MatrixKind.ADJACENCY, 0, mu)
    assert not rep.feasible
    assert rep.infeasible_rule in ("edge-cosine-sum", "quarter-arc", "level-set-balance",
                                   "projection-norms", "support-equality")


def test_verify_recovered_states_feasible():
    # states recovered at genuine mixing times satisfy every necessary rule
    from qmix import scan_local
    for g, u in ((complete(2), 0), (path(3), 1), (star(4), 1)):
        dec = dec_of(g)
        rep = scan_local(dec, u, 2.0)
        assert rep.detections
        for det in rep.detections:
            fr = verify_target_state(g, dec, MatrixKind.ADJACENCY, u, det.target_state)
            assert fr.feasible, (fr.infeasible_rule, fr.residuals)


def test_verify_dimension_mismatch():
    g = path(3)
    with pytest.raises(ValueError):
        verify_target_state(g, dec_of(g), MatrixKind.ADJACENCY, 0,
                            TargetStateCandidate(phases=(0.0, 0.0)))


# ---------------------------------------------------------------------------
# regular equivalence

def test_regular_equivalence():
    ts = np.linspace(0.0, 10.0, 100)
    assert regular_equivalence_check(cycle(4), ts)
    assert regular_equivalence_check(complete(4), ts)
    with pytest.raises(ValueError):
        regular_equivalence_check(star(4), ts)


def test_regular_equivalence_weighted(rng):
    import networkx as nx
    gnx = nx.random_regular_graph(3, 8, seed=7)
    g = WeightedGraph.build(8, [(u, v, 1) for u, v in gnx.edges()])
    assert regular_equivalence_check(g, np.linspace(0.0, 5.0, 50))


def test_verify_target_state_laplacian_and_signless():
    # C4 is regular, so its Laplacian walk mixes at pi/4 too; the recovered
    # states must satisfy the matching cosine-sum equations
    from qmix import scan_local
    g = cycle(4)
    for kind, rule in ((MatrixKind.LAPLACIAN, "edge-cosine-sum-laplacian"),
                       (MatrixKind.SIGNLESS_LAPLACIAN, "edge-cosine-sum-signless")):
        dec = dec_of(g, kind)
        rep = scan_local(dec, 0, 2.0)
        assert rep.detections
        fr = verify_target_state(g, dec, kind, 0, rep.detections[0].target_state)
        assert fr.feasible, (kind, fr.infeasible_rule)
        assert fr.residual(rule) < 1e-6
