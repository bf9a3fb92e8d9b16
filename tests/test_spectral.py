import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (MatrixKind, SpectrumKind, WeightClass, WeightedGraph, classify_spectrum,
                  decompose, decompose_graph, exact_kernel, matrix_of,
                  signed_kernel_vectors, support, vertex_support)
import qmix.spectral
from qmix import DEFAULT_TOLERANCES
from qmix.tolerances import Tolerances
from qmix.graphs import is_tree
from qmix.spectral import (SpectralError, _surd_offsets, classify_values, decompose_graphs,
                           leaf_peel_order, nonsingular_by_spectrum)

from conftest import (cartesian_product, complete, complete_projectors, cycle,
                      grouped_reconstruction, hypercube, path, projectors_of,
                      random_connected_graph, random_tree, reference_exact_kernel,
                      reference_inequality_tables, reference_signed_vectors,
                      reference_surd_offsets, star, star_projectors)


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
            m = matrix_of(g, kind)
            got, want = decompose_graph(g, kind), decompose(m)
            assert _same((m + m.T) / 2.0, m)  # decompose's symmetrisation is exact here
            assert got.multiplicities == want.multiplicities and got.group_gap == want.group_gap
            for name in ("eigenvalues", "vectors", "column_eigenvalues"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g, kind, name)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_decompose_graphs_equals_decompose_graph_bitwise(rng):
    # every atlas graph, then seeded graphs of a few orders from 8 to 100
    # with unit, integer and real weights, so that stacks mix weightings
    graphs = [WeightedGraph.build(g.number_of_nodes(), [(u, v, 1) for u, v in g.edges()])
              for g in nx.graph_atlas_g()[1:]]
    graphs += [random_connected_graph(rng, int(rng.choice((8, 13, 40, 100))), wc)
               for _ in range(8) for wc in WeightClass]
    for kind in MatrixKind:
        got = dict(decompose_graphs(graphs, kind))
        assert sorted(got) == list(range(len(graphs)))
        for i, g in enumerate(graphs):
            a, b = got[i], decompose_graph(g, kind)
            assert a.multiplicities == b.multiplicities and a.group_gap == b.group_gap
            for name in ("eigenvalues", "vectors", "column_eigenvalues"):
                assert _same(getattr(a, name), getattr(b, name)), (i, kind, name)
            assert all(map(_same, a.projector_row_norms(), b.projector_row_norms())), (i, kind)


def test_decompose_graphs_stacks_fit_the_work_budget(rng, monkeypatch):
    # 8 * 100^2 bytes fit 13 times in WORK_BYTES, 8 * 363^2 bytes not once
    budget = qmix.spectral.WORK_BYTES
    assert 8 * 363 ** 2 > budget >= 13 * 8 * 100 ** 2
    eigh, shapes = np.linalg.eigh, []

    def recording_eigh(m):
        shapes.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    graphs = [random_tree(rng, n) for n in [100] * 30 + [5] * 40 + [363, 100, 363]]
    assert sorted(i for i, _ in decompose_graphs(graphs, MatrixKind.ADJACENCY)) == \
        list(range(len(graphs)))
    assert sorted(shapes) == sorted([(40, 5, 5), (13, 100, 100), (13, 100, 100),
                                     (5, 100, 100), (1, 363, 363), (1, 363, 363)])
    for shape in shapes:
        assert shape[0] == 1 or shape[0] * 8 * shape[1] ** 2 <= budget


def test_decompose_graphs_yields_the_error_of_a_graph_it_cannot_decompose():
    huge = WeightedGraph.build(3, [(0, 1, 1e308), (1, 2, 1e308)])  # degree 2e308 = inf
    got = dict(decompose_graphs([path(3), huge, star(3)], MatrixKind.LAPLACIAN))
    assert isinstance(got[1], SpectralError) and "non-finite" in str(got[1])
    for i, g in ((0, path(3)), (2, star(3))):
        assert _same(got[i].vectors, decompose_graph(g, MatrixKind.LAPLACIAN).vectors)


def test_an_eigenvalue_that_overflows_is_a_spectral_error():
    # two eigenvalue pairs +-1.7e308 whose group means overflow to +-inf, and a
    # finite signless Laplacian whose eigenvalues eigh returns infinite
    pairs = WeightedGraph.build(6, [(0, 4, 1.7e308), (2, 5, 1.7e308)])
    big = 2 ** 53
    spike = WeightedGraph.build(4, [(0, 1, big), (0, 2, big), (0, 3, 1.7e308)])
    for g, kind in ((pairs, MatrixKind.ADJACENCY), (spike, MatrixKind.SIGNLESS_LAPLACIAN)):
        assert np.isfinite(matrix_of(g, kind)).all()
        with pytest.raises(SpectralError, match="an eigenvalue overflows"):
            decompose_graph(g, kind)
    # in a stack, only the graph at fault gets the error
    got = dict(decompose_graphs([path(6), pairs, star(6)], MatrixKind.ADJACENCY))
    assert isinstance(got[1], SpectralError) and "overflows" in str(got[1])
    for i, g in ((0, path(6)), (2, star(6))):
        assert _same(got[i].vectors, decompose_graph(g, MatrixKind.ADJACENCY).vectors)


def test_group_means_are_np_mean_bitwise(rng):
    # clusters of up to 13 eigenvalues within the grouping tolerance
    large = 0
    for _ in range(200):
        sizes = rng.integers(1, 14, size=int(rng.integers(1, 5)))
        centres = np.cumsum(rng.uniform(0.5, 3.0, size=len(sizes))) - 4.0
        values = np.concatenate([c + rng.uniform(-1e-10, 1e-10, size=k)
                                 for c, k in zip(centres, sizes)])
        q, _ = np.linalg.qr(rng.normal(size=(len(values), len(values))))
        m = (q * values) @ q.T
        dec = decompose(m)
        w = np.linalg.eigh((m + m.T) / 2.0)[0]  # the matrix decompose solves
        stops = np.cumsum(dec.multiplicities)
        assert dec.multiplicities == tuple(sizes)
        for value, a, b in zip(dec.eigenvalues.tolist(), stops - dec.multiplicities, stops):
            assert value == float(np.mean(w[a:b]))
        large += int(max(sizes) >= 8)
    assert large > 50


def test_projector_algebra_random(rng):
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 20)), WeightClass.REAL)
        m = matrix_of(g, MatrixKind.ADJACENCY)
        dec = decompose(m)
        tol = 1e-9 * g.n
        total = sum(projectors_of(dec))
        assert np.abs(total - np.eye(g.n)).max() < tol
        assert np.abs(grouped_reconstruction(dec) - m).max() < tol
        for i, p in enumerate(projectors_of(dec)):
            assert np.abs(p @ p - p).max() < tol
            assert abs(np.trace(p) - dec.multiplicities[i]) < tol
            for q in projectors_of(dec)[i + 1:]:
                assert np.abs(p @ q).max() < tol
        assert sum(dec.multiplicities) == g.n


# ---------------------------------------------------------------------------
# supports

def _clustered(rng, n):
    """A random symmetric n x n matrix whose spectrum holds clusters of up to
    five eigenvalues within 1e-10, which decompose groups."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 6)), n - sum(sizes)))
    centres = np.cumsum(rng.uniform(0.5, 3.0, size=len(sizes))) - 2.0 * len(sizes)
    values = np.concatenate([c + rng.uniform(-1e-10, 1e-10, size=k)
                             for c, k in zip(centres, sizes)])
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * values) @ q.T


def _inequality_hits(lhs, rhs, n):
    breaks = lhs > rhs + DEFAULT_TOLERANCES.safety(n)
    return breaks.any(axis=1).tolist(), breaks.argmax(axis=1).tolist()


def _table_cases(rng):
    for n in (2, 5, 12, 40):
        yield decompose(_clustered(rng, n))
    for n in (6, 9, 17, 30):  # graphs give eigenvectors that break the inequality
        g = random_connected_graph(rng, n, extra_edges=n // 3)
        for kind in MatrixKind:
            yield decompose_graph(g, kind)
    yield decompose_graph(star(7), MatrixKind.LAPLACIAN)


def _check_tables(dec):
    """Both sides of the eigenvector inequality from projector_row_norms
    against `reference_inequality_tables`; returns the vertices that break
    it."""
    n = dec.n
    norms, sums = dec.projector_row_norms()
    assert norms.shape == sums.shape == (n, len(dec.multiplicities))
    rhs = np.full_like(norms, math.inf)
    np.divide(sums, norms, out=rhs, where=norms > DEFAULT_TOLERANCES.supp)
    lhs = math.sqrt(n) * norms
    want_lhs, want_rhs = reference_inequality_tables(dec, DEFAULT_TOLERANCES)
    np.testing.assert_allclose(lhs, want_lhs, rtol=0, atol=1e-12)
    assert (np.isinf(rhs) == np.isinf(want_rhs)).all()
    finite = np.isfinite(rhs)
    np.testing.assert_allclose(rhs[finite], want_rhs[finite], rtol=0, atol=1e-12)
    got, want = _inequality_hits(lhs, rhs, n), _inequality_hits(want_lhs, want_rhs, n)
    assert got == want, n
    return sum(got[0])


def test_projector_row_norms_match_the_per_group_table(rng, monkeypatch):
    # at the budget every matrix here is one block of rows; at the smaller
    # budget each group of multiplicity >= 2 of the 200 x 200 matrix is
    # summed 16 rows at a time, a row of the block holding one row of
    # B_k B_k^T and its absolute value, 2 * 8 * 200 bytes
    clustered = decompose(_clustered(rng, 200))
    assert max(clustered.multiplicities) >= 2
    small = 16 * 16 * 200
    assert qmix.spectral.WORK_BYTES // (16 * 200) >= 200 and small // (16 * 200) == 16
    hits = 0
    for work_bytes in (qmix.spectral.WORK_BYTES, small):
        monkeypatch.setattr(qmix.spectral, "WORK_BYTES", work_bytes)
        for dec in list(_table_cases(rng)) + [clustered]:
            hits += _check_tables(dec)
    assert hits > 50


def test_projector_row_norms_split_a_repeated_group_across_row_blocks(monkeypatch):
    # Q7 has eigenvalues of multiplicity up to 35; budgets of 10 rows, of
    # one row and of less than one row split each such group into 13, 128
    # and 128 blocks, and every split gives the one-block tables
    dec = decompose_graph(hypercube(7), MatrixKind.ADJACENCY)
    assert max(dec.multiplicities) == 35
    norms, sums = dec.projector_row_norms()
    for work_bytes in (16 * 128 * 10, 16 * 128, 1):
        monkeypatch.setattr(qmix.spectral, "WORK_BYTES", work_bytes)
        got_norms, got_sums = dec.projector_row_norms()
        assert _same(got_norms, norms)
        np.testing.assert_allclose(got_sums, sums, rtol=1e-14, atol=0)
        _check_tables(dec)


def test_projector_row_norms_at_a_few_hundred_vertices():
    # G(300, 0.03) has almost only simple eigenvalues, each summed in O(n);
    # the 20 x 20 grid and Q7 have groups of multiplicity up to 20 and 35
    sparse = nx.gnp_random_graph(300, 0.03, seed=3)
    decs = [decompose_graph(WeightedGraph.build(300, [(u, v, 1) for u, v in sparse.edges()]),
                            kind) for kind in MatrixKind]
    assert sum(m == 1 for m in decs[0].multiplicities) >= 250
    decs += [decompose_graph(g, MatrixKind.ADJACENCY)
             for g in (cartesian_product(path(20), path(20)), hypercube(7))]
    assert [max(d.multiplicities) for d in decs[-2:]] == [20, 35]
    for dec in decs:
        _check_tables(dec)


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
    # integer elimination gives the rationally eliminated basis, vector for
    # vector and in order
    cases = [star(5), path(6), cycle(5), WeightedGraph.build(4, [(0, 3, 2)])]
    cases += [_random_union(rng) for _ in range(150)]
    cases += [random_tree(rng, int(rng.integers(2, 12))) for _ in range(20)]
    # singular non-trees
    singular = []
    for n in list(range(14, 19)) + [24, 32, 40]:
        base = random_connected_graph(rng, n - 1, WeightClass.INTEGER, extra_edges=n // 2)
        singular.append(_with_false_twin(base, int(rng.integers(0, n - 1))))
    singular += [_disjoint_union([_random_union(rng), _random_union(rng)]) for _ in range(6)]
    # weights above 2^63
    for n in (15, 20):
        base = random_connected_graph(rng, n - 1, WeightClass.INTEGER, extra_edges=n)
        big = WeightedGraph.build(base.n, [(u, v, w * 2 ** 64 + 1) for u, v, w in base.edges])
        cases.append(big)
        singular.append(_with_false_twin(big, 0))
    assert max(w for g in cases for _, _, w in g.edges) > 2 ** 63
    disconnected = 0
    for g in cases + singular:
        disconnected += not is_tree(g) and g.edge_count < g.n - 1
        assert exact_kernel(g) == reference_exact_kernel(g, MatrixKind.ADJACENCY), g
    assert all(not is_tree(g) and exact_kernel(g) for g in singular)
    assert disconnected >= 50


def test_exact_kernel_of_weights_divisible_by_a_prime():
    # every weight is 0 mod 2^31 - 1, so a rank test mod that prime would
    # see a zero matrix: disjoint K2 are nonsingular over Q, and one P3
    # among them is not
    p = 2 ** 31 - 1
    k2 = WeightedGraph.build(2, [(0, 1, p)])
    p3 = WeightedGraph.build(3, [(0, 1, p), (1, 2, p)])
    pairs = _disjoint_union([k2] * 8)
    mixed = [_disjoint_union([p3] + [k2] * k) for k in (6, 8)]  # 15 and 19 vertices
    for g in (k2, p3, pairs, *mixed):
        kernel = [] if g in (k2, pairs) else [(1, 0, -1) + (0,) * (g.n - 3)]
        assert exact_kernel(g) == kernel == reference_exact_kernel(g, MatrixKind.ADJACENCY)


def test_spectral_gate_proves_only_nonsingular_matrices(rng):
    # whenever the spectrum proves A nonsingular, the exact kernel is empty;
    # the cases hold singular graphs (a false twin, unequal bipartite parts)
    # and weights up to and above 2^53, where floats round them
    proved = singular = 0
    for i in range(60):
        n = int(rng.integers(2, 41))
        top = (3, 2 ** 53 - 1, 2 ** 53 + 7, 2 ** 70)[i % 4]
        base = random_connected_graph(rng, n, WeightClass.INTEGER, extra_edges=2 * n)
        weights = rng.integers(1, 4, size=base.edge_count).tolist()
        g = WeightedGraph.build(n, [(u, v, top - w if top > 3 else w)
                                    for (u, v, _), w in zip(base.edges, weights)])
        for h in (g, _with_false_twin(g, int(rng.integers(0, n)))):
            kernel = exact_kernel(h)
            singular += bool(kernel)
            if nonsingular_by_spectrum(decompose_graph(h, MatrixKind.ADJACENCY)):
                proved += 1
                assert kernel == [], (h.n, top)
    assert singular >= 60 and proved >= 30


def test_spectral_gate_is_one_sided():
    # a tiny nonzero eigenvalue, or a zero one, proves nothing
    small = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 10 ** 9)])  # singular: x = (10^9, 0, -1)
    assert not nonsingular_by_spectrum(decompose_graph(small, MatrixKind.ADJACENCY))
    assert nonsingular_by_spectrum(decompose_graph(complete(4), MatrixKind.ADJACENCY))
    near = np.diag([1.0, 2.0, 1e-9])  # |lambda| = 1e-9 is within the gap 2e-8
    assert not nonsingular_by_spectrum(decompose(near))


def test_spectral_gate_does_not_read_the_grouping_tolerance():
    # P3 is singular, its zero eigenvalue computed to about 1e-16: a tiny
    # grouping gap must not let it pass, nor a wide one that merges it with
    # a nonzero eigenvalue into a group whose mean lies away from zero
    p3 = path(3)
    for scale in (1e-20, 1e-8):
        assert not nonsingular_by_spectrum(
            decompose_graph(p3, MatrixKind.ADJACENCY, Tolerances(group_scale=scale)))
    wide = decompose(np.diag([0.0, 0.5, 3.0]), Tolerances(group_scale=0.2))
    assert wide.multiplicities == (2, 1) and wide.eigenvalues[0] == 0.25
    assert not nonsingular_by_spectrum(wide)
    assert nonsingular_by_spectrum(decompose(np.diag([1.0, 1.5, 3.0]), Tolerances(group_scale=0.2)))


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


@settings(max_examples=200, deadline=None)
@given(row=st.lists(st.sampled_from((0, 1, -1, 2, -2, 2 ** 70, -(2 ** 70))),
                    min_size=1, max_size=8),
       max_dim=st.sampled_from((0, 1, 12)))
def test_one_dimensional_pool_is_closed_form(row, max_dim):
    # any basis vector, zero, with a negative lead or with entries beyond int64
    res = signed_kernel_vectors([tuple(row)], max_dim=max_dim)
    assert res.truncated is (max_dim == 0)
    assert res.vectors.dtype == np.int8 and not res.vectors.flags.writeable
    assert res.vectors.shape[1] == len(row)
    assert [tuple(r) for r in res.vectors.tolist()] == \
        reference_signed_vectors([tuple(row)], max_dim=max_dim)


def test_signed_vectors_of_kernels_match_reference(rng, monkeypatch):
    bases = [reference_exact_kernel(g, kind)
             for g in (_random_union(rng) for _ in range(60)) for kind in MatrixKind]
    assert {0, 1, 2, 3} <= {len(b) for b in bases}
    # a comb: a path on 4 vertices with 3 leaves on each, of kernel dimension 8
    comb = WeightedGraph.build(16, [(s, s + 1, 1) for s in range(3)]
                               + [(s, 4 + 3 * s + t, 1) for s in range(4) for t in range(3)])
    bases.append(reference_exact_kernel(comb, MatrixKind.ADJACENCY))
    assert len(bases[-1]) == 8
    want = [sorted(reference_signed_vectors(b)) for b in bases]
    # the default budget, chunks of a few coefficient vectors, and one a chunk
    for work_bytes in (qmix.spectral.WORK_BYTES, 1024, 1):
        monkeypatch.setattr(qmix.spectral, "WORK_BYTES", work_bytes)
        for basis, pool in zip(bases, want):
            got = signed_kernel_vectors(basis).vectors.tolist()
            assert [tuple(r) for r in got] == pool, (basis, work_bytes)


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


def test_surd_offsets_match_the_pair_loop(rng, monkeypatch):
    # halves (whose sums round half to even), surds of a few discriminants,
    # offsets near the cap, and noise; the default budget takes each list in
    # one block, a budget of 1 byte one row a block
    cases = []
    for _ in range(300):
        values = []
        for _ in range(int(rng.integers(1, 40))):
            kind = int(rng.integers(4))
            if kind == 0:
                values.append(int(rng.integers(-20, 21)) / 2)
            elif kind == 1:
                root = math.sqrt(int(rng.choice((2, 3, 5, 7))))
                values.append((int(rng.integers(-10, 11)) + int(rng.integers(-5, 6)) * root) / 2)
            elif kind == 2:
                values.append(float(rng.uniform(-1001.0, 1001.0)))
            else:
                values.append(float(rng.uniform(-5.0, 5.0)))
        cases.append(values)
    want = [reference_surd_offsets(v, DEFAULT_TOLERANCES) for v in cases]
    assert sum(map(len, want)) > 1000
    for work_bytes in (qmix.spectral.WORK_BYTES, 1):
        monkeypatch.setattr(qmix.spectral, "WORK_BYTES", work_bytes)
        assert [_surd_offsets(v, DEFAULT_TOLERANCES) for v in cases] == want


def test_classify_star_surd():
    dec = decompose_graph(star(4), MatrixKind.ADJACENCY)
    cls = classify_spectrum(dec)
    assert cls.kind is SpectrumKind.QUADRATIC_SURD and cls.delta == 3


@pytest.mark.parametrize("kind", [MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN])
def test_surd_fit_of_an_eigenvalue_whose_square_overflows_is_no_fit(kind):
    # an eigenvalue near 1e155 gives y = 2x - a near 2e155, and y * y is inf
    g = WeightedGraph.build(3, [(0, 1, 1e155), (1, 2, 1)])
    dec = decompose_graph(g, kind)
    assert np.isfinite(dec.eigenvalues).all() and dec.spectral_radius > 1.3e154
    assert classify_spectrum(dec).kind is SpectrumKind.IRREGULAR


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
    assert np.abs(grouped_reconstruction(dec) - m).max() < 1e-9 * 50
    assert np.abs(sum(projectors_of(dec)) - np.eye(50)).max() < 1e-9 * 50
