import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (MatrixKind, SpectrumKind, WeightClass, WeightedGraph, classify_spectrum,
                  decompose, decompose_graph, exact_kernel, matrix_of,
                  signed_kernel_vectors, support, vertex_support)
from qmix.graphs import is_tree
from qmix.spectral import _GATE_MIN_N, _full_rank_mod_p, classify_values, leaf_peel_order

from conftest import (complete, complete_projectors, cycle, path, projectors_of,
                      random_connected_graph, random_tree, reference_exact_kernel,
                      reference_signed_vectors, star, star_projectors)


def test_decompose_k2():
    dec = decompose_graph(complete(2), MatrixKind.ADJACENCY)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    assert dec.multiplicities == (1, 1)
    assert np.allclose(projectors_of(dec)[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert np.allclose(projectors_of(dec)[1], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_decompose_star_matches_closed_form():
    dec = decompose_graph(star(4), MatrixKind.ADJACENCY)
    oracle = star_projectors(4)
    root = math.sqrt(3)
    assert np.allclose(dec.eigenvalues, [-root, 0.0, root], atol=1e-10)
    assert dec.multiplicities == (1, 2, 1)
    for lam, proj in zip(dec.eigenvalues, projectors_of(dec)):
        key = min(oracle, key=lambda k: abs(k - lam))
        assert np.abs(proj - oracle[key]).max() < 1e-10


def test_decompose_k4_matches_closed_form():
    dec = decompose_graph(complete(4), MatrixKind.ADJACENCY)
    oracle = complete_projectors(4)
    assert np.allclose(dec.eigenvalues, [-1.0, 3.0], atol=1e-12)
    assert dec.multiplicities == (3, 1)
    assert np.abs(projectors_of(dec)[1] - oracle[3.0]).max() < 1e-12
    assert np.abs(projectors_of(dec)[0] - oracle[-1.0]).max() < 1e-12


def test_decompose_rejects_nonsymmetric(rng):
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
    m = matrix_of(random_connected_graph(rng, 12, WeightClass.REAL), MatrixKind.LAPLACIAN)
    m[3, 7] += 1e-3  # the graph path skips this check; the public entry point keeps it
    with pytest.raises(ValueError, match="symmetric"):
        decompose(m)


def test_decompose_graph_equals_decompose_bitwise(rng):
    graphs = [random_connected_graph(rng, int(rng.integers(2, 30)), wc)
              for wc in (WeightClass.UNIT, WeightClass.INTEGER, WeightClass.REAL)
              for _ in range(4)]
    for g in graphs:
        for kind in MatrixKind:
            got, want = decompose_graph(g, kind), decompose(matrix_of(g, kind))
            assert got.multiplicities == want.multiplicities
            for name in ("matrix", "eigenvalues", "vectors"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g, kind, name)


def test_projector_algebra_random(rng):
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 20)), WeightClass.REAL)
        m = matrix_of(g, MatrixKind.ADJACENCY)
        dec = decompose(m)
        tol = 1e-9 * g.n
        total = sum(projectors_of(dec))
        assert np.abs(total - np.eye(g.n)).max() < tol
        assert np.abs(dec.reconstruct() - m).max() < tol
        for i, p in enumerate(projectors_of(dec)):
            assert np.abs(p @ p - p).max() < tol
            assert abs(np.trace(p) - dec.multiplicities[i]) < tol
            for q in projectors_of(dec)[i + 1:]:
                assert np.abs(p @ q).max() < tol
        assert sum(dec.multiplicities) == g.n


# ---------------------------------------------------------------------------
# supports

def test_support_star_center_and_leaf():
    dec = decompose_graph(star(4), MatrixKind.ADJACENCY)
    center = vertex_support(dec, 0)
    assert center.eigenvalues == (pytest.approx(-math.sqrt(3)), pytest.approx(math.sqrt(3)))
    leaf = vertex_support(dec, 1)
    assert len(leaf.indices) == 3


def test_support_of_eigenvector_is_singleton(rng):
    g = random_connected_graph(rng, 8, WeightClass.REAL)
    dec = decompose_graph(g, MatrixKind.ADJACENCY)
    vec = dec.vectors[:, 0]  # a column of the first eigenvalue group
    s = support(dec, vec)
    assert s.indices == (0,)


def test_support_partition_of_unity(rng):
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 15)))
        dec = decompose_graph(g, MatrixKind.ADJACENCY)
        for u in range(g.n):
            s = vertex_support(dec, u)
            assert abs(sum(w * w for w in s.weights) - 1.0) < 1e-9 * g.n


# ---------------------------------------------------------------------------
# exact kernels

def test_exact_kernel_p3():
    basis = exact_kernel(path(3))
    assert basis == [(1, 0, -1)]


def test_exact_kernel_star4():
    basis = exact_kernel(star(4))
    assert len(basis) == 2
    a = matrix_of(star(4), MatrixKind.ADJACENCY)
    for vec in basis:
        assert all(x in (-1, 0, 1) for x in vec)
        assert vec[0] == 0  # kernel lives on the leaves
        assert np.abs(a @ np.array(vec)).max() == 0


def test_exact_kernel_k2_empty():
    assert exact_kernel(complete(2)) == []


def test_exact_kernel_weighted():
    g = WeightedGraph.build(3, [(0, 1, 2), (1, 2, 3)])
    basis = exact_kernel(g)
    assert basis == [(3, 0, -2)]


def test_exact_kernel_is_exact(rng):
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), WeightClass.INTEGER)
        m = np.array([[Fraction(int(x)) for x in row]
                      for row in matrix_of(g, MatrixKind.ADJACENCY).astype(int)])
        for vec in exact_kernel(g):
            prod = m @ np.array([Fraction(x) for x in vec])
            assert all(x == 0 for x in prod)


def test_exact_kernel_rejects_real_weights():
    g = WeightedGraph.build(2, [(0, 1, 0.5)])
    with pytest.raises(ValueError):
        exact_kernel(g)


def test_singular_tree_bases_are_signed(rng):
    # leaf-peeling elimination keeps unit-weight tree kernels in {-1, 0, 1}
    seen_singular = 0
    for _ in range(40):
        g = random_tree(rng, int(rng.integers(2, 14)))
        basis = exact_kernel(g)
        if basis:
            seen_singular += 1
            assert all(x in (-1, 0, 1) for vec in basis for x in vec)
    assert seen_singular >= 5


def _random_union(rng):
    """A seeded graph of up to four components under a random relabelling:
    isolated vertices, trees, and trees with extra (often odd-cycle) edges,
    with weights 1-4."""
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, 6))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, size)]
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)
                 if (i, j) not in edges]
        rng.shuffle(pairs)
        parts.append((size, edges + pairs[:int(rng.integers(0, 3))]))
    n = sum(size for size, _ in parts)
    label = [int(x) for x in rng.permutation(n)]
    edges, base = [], 0
    for size, part in parts:
        edges += [(label[base + i], label[base + j], int(rng.integers(1, 5))) for i, j in part]
        base += size
    return WeightedGraph.build(n, edges)


def _with_false_twin(g, v):
    """g plus a new vertex with the neighbours and weights of v, so that
    its adjacency row repeats row v and the matrix is singular."""
    twin = [(g.n, b if a == v else a, w) for a, b, w in g.edges if v in (a, b)]
    return WeightedGraph.build(g.n + 1, list(g.edges) + twin)


def _disjoint_union(graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(base + u, base + v, w) for u, v, w in h.edges]
        base += h.n
    return WeightedGraph.build(base, edges)


def test_exact_kernel_matches_elimination(rng):
    # integer elimination and the mod-p gate give the rationally eliminated
    # basis, vector for vector and in order
    cases = [star(5), path(6), cycle(5), WeightedGraph.build(4, [(0, 3, 2)])]
    cases += [_random_union(rng) for _ in range(150)]
    cases += [random_tree(rng, int(rng.integers(2, 12))) for _ in range(20)]
    # singular non-trees on both sides of the gate's size switch
    singular = []
    for n in list(range(_GATE_MIN_N - 2, _GATE_MIN_N + 3)) + [24, 32, 40]:
        base = random_connected_graph(rng, n - 1, WeightClass.INTEGER, extra_edges=n // 2)
        singular.append(_with_false_twin(base, int(rng.integers(0, n - 1))))
    singular += [_disjoint_union([_random_union(rng), _random_union(rng)]) for _ in range(6)]
    # weights above 2^63, below and above the switch
    for n in (_GATE_MIN_N - 1, _GATE_MIN_N + 4):
        base = random_connected_graph(rng, n - 1, WeightClass.INTEGER, extra_edges=n)
        big = WeightedGraph.build(base.n, [(u, v, w * 2 ** 64 + 1) for u, v, w in base.edges])
        cases.append(big)
        singular.append(_with_false_twin(big, 0))
    assert min(g.n for g in singular) < _GATE_MIN_N <= max(g.n for g in singular)
    assert max(w for g in cases for _, _, w in g.edges) > 2 ** 63
    disconnected = 0
    for g in cases + singular:
        disconnected += not is_tree(g) and g.edge_count < g.n - 1
        assert exact_kernel(g) == reference_exact_kernel(g, MatrixKind.ADJACENCY), g
    assert all(not is_tree(g) and exact_kernel(g) for g in singular)
    assert disconnected >= 50


def test_modular_gate_falls_back_at_the_prime(monkeypatch):
    # every weight is 0 mod 2^31 - 1, so only exact elimination can decide
    p = 2 ** 31 - 1
    k2 = WeightedGraph.build(2, [(0, 1, p)])
    p3 = WeightedGraph.build(3, [(0, 1, p), (1, 2, p)])
    # from _GATE_MIN_N vertices the gate runs first and must fall back:
    # disjoint K2 are nonsingular over Q, and one P3 among them is not
    pairs = _disjoint_union([k2] * ((_GATE_MIN_N + 1) // 2))
    below = _disjoint_union([p3] + [k2] * ((_GATE_MIN_N - 4) // 2))
    above = _disjoint_union([p3] + [k2] * ((_GATE_MIN_N + 1) // 2))
    assert below.n < _GATE_MIN_N <= pairs.n < above.n
    gated = []

    def gate(g):
        gated.append(g.n)
        return _full_rank_mod_p(g)

    monkeypatch.setattr("qmix.spectral._full_rank_mod_p", gate)
    for g in (k2, p3, below, pairs, above):
        kernel = [] if g in (k2, pairs) else [(1, 0, -1) + (0,) * (g.n - 3)]
        assert not _full_rank_mod_p(g)
        assert exact_kernel(g) == kernel == reference_exact_kernel(g, MatrixKind.ADJACENCY)
    assert gated == [pairs.n, above.n]


def test_leaf_peel_order_covers_tree():
    g = star(6)
    order = leaf_peel_order(g)
    assert sorted(order) == list(range(6))
    assert order[-1] == 0  # the center goes last


# ---------------------------------------------------------------------------
# signed kernel vectors

def test_signed_vectors_star():
    basis = exact_kernel(star(4))
    res = signed_kernel_vectors(basis)
    assert not res.truncated
    rows = [r for r in res.vectors.tolist() if r[1] != 0]
    assert [0, 1, -1, 0] in rows
    assert res.vectors.dtype == np.int8 and not res.vectors.flags.writeable


def test_signed_vectors_p3_center_empty():
    basis = exact_kernel(path(3))
    assert not signed_kernel_vectors(basis).vectors[:, 1].any()


def test_signed_vectors_nonsingular_empty():
    assert len(signed_kernel_vectors([]).vectors) == 0


@pytest.mark.parametrize("dim", range(10))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_signed_vectors_match_reference_property(dim, data):
    n = data.draw(st.integers(max(dim, 1), dim + 5), label="n")
    entry = st.sampled_from((0, 0, 0, 1, -1, 2))
    basis = [tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(dim)]
    max_dim = data.draw(st.sampled_from((12, max(dim - 1, 0))), label="max_dim")
    res = signed_kernel_vectors(basis, max_dim=max_dim)
    assert res.truncated is (dim > max_dim)
    assert [tuple(r) for r in res.vectors.tolist()] == \
        sorted(reference_signed_vectors(basis, max_dim=max_dim))


def test_signed_vectors_of_kernels_match_reference(rng):
    dims = set()
    for _ in range(60):
        g = _random_union(rng)
        for kind in MatrixKind:
            basis = reference_exact_kernel(g, kind)
            dims.add(len(basis))
            got = signed_kernel_vectors(basis).vectors.tolist()
            assert [tuple(r) for r in got] == sorted(reference_signed_vectors(basis)), (g, kind)
    assert {0, 1, 2, 3} <= dims


def test_signed_vectors_exact_beyond_int64():
    # (1, 1, 1, 1) gives first entry 2^64 - 1, which int64 would wrap to -1
    firsts = (2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 - 1)
    basis = [(x,) + tuple(int(i == j) for j in range(4)) for i, x in enumerate(firsts)]
    rows = signed_kernel_vectors(basis).vectors.tolist()
    assert [tuple(r) for r in rows] == sorted(reference_signed_vectors(basis))
    assert [-1, 1, 1, 1, 1] not in rows and [1, -1, -1, -1, -1] not in rows
    g = WeightedGraph.build(3, [(0, 1, 10 ** 30), (1, 2, 1)])
    basis = exact_kernel(g)
    assert basis == [(1, 0, -10 ** 30)]
    assert len(signed_kernel_vectors(basis).vectors) == 0


def test_signed_vectors_truncation():
    basis = [tuple(1 if i == j else 0 for i in range(14)) for j in range(14)]
    res = signed_kernel_vectors(basis, max_dim=12)
    assert res.truncated
    assert len(res.vectors) == 14


# ---------------------------------------------------------------------------
# spectrum classification

def test_classify_all_integer():
    dec = decompose_graph(complete(4), MatrixKind.ADJACENCY)
    assert classify_spectrum(dec).kind is SpectrumKind.ALL_INTEGER


def test_classify_p3_surd():
    dec = decompose_graph(path(3), MatrixKind.ADJACENCY)
    cls = classify_spectrum(dec)
    assert cls.kind is SpectrumKind.QUADRATIC_SURD
    assert cls.delta == 2 and cls.half_offset == 0


def test_classify_c5_golden_pair():
    # the two conjugate eigenvalues (-1 +- sqrt(5)) / 2, oracle: LAPACK spectrum
    eigs = sorted(np.linalg.eigvalsh(matrix_of(cycle(5), MatrixKind.ADJACENCY)))
    golden = [eigs[0], eigs[2]]  # both copies of each value collapse to two values
    cls = classify_values(golden)
    assert cls.kind is SpectrumKind.QUADRATIC_SURD
    assert cls.delta == 5 and cls.half_offset == -1
    # the full spectrum (with the Perron value 2) does not fit one surd family
    full = [eigs[0], eigs[2], eigs[4]]
    assert classify_values(full).kind is SpectrumKind.IRREGULAR


def test_classify_star_surd():
    dec = decompose_graph(star(4), MatrixKind.ADJACENCY)
    cls = classify_spectrum(dec)
    assert cls.kind is SpectrumKind.QUADRATIC_SURD and cls.delta == 3


def test_classify_restricted_support():
    dec = decompose_graph(cycle(5), MatrixKind.ADJACENCY)
    golden_only = [i for i in range(len(dec.eigenvalues))
                   if abs(dec.eigenvalues[i] - 2.0) > 1e-6]
    from qmix.spectral import EigenvalueSupport
    sup = EigenvalueSupport(indices=tuple(golden_only),
                            eigenvalues=tuple(float(dec.eigenvalues[i]) for i in golden_only),
                            weights=(1.0,) * len(golden_only))
    cls = classify_spectrum(dec, restrict_to=sup)
    assert cls.kind is SpectrumKind.QUADRATIC_SURD and cls.delta == 5


def test_reconstruction_at_fifty_vertices(rng):
    g = random_connected_graph(rng, 50, WeightClass.REAL)
    m = matrix_of(g, MatrixKind.ADJACENCY)
    dec = decompose(m)
    assert np.abs(dec.reconstruct() - m).max() < 1e-9 * 50
    assert np.abs(sum(projectors_of(dec)) - np.eye(50)).max() < 1e-9 * 50
