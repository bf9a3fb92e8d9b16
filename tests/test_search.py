import math
import tracemalloc

import numpy as np
import pytest

from qmix import (MatrixKind, WeightedGraph, decompose_graph, empirical_inf, golden_section,
                  matrix_uniform_deviation, mixing_deviation, scan_local, scan_uniform,
                  states_proportional)
from qmix.search import MAX_GRID_POINTS, GridError, default_step

from conftest import complete, cube_q3, cycle, path, star


def dec_of(g, kind=MatrixKind.ADJACENCY):
    return decompose_graph(g, kind)


def test_golden_section_quadratic():
    x, fx = golden_section(lambda x: (x - 1.3) ** 2, 0.0, 2.0, tol=1e-12)
    assert abs(x - 1.3) < 1e-11 and fx < 1e-20


def test_scan_k2():
    rep = scan_uniform(dec_of(complete(2)), 2.0)
    assert len(rep.detections) == 1
    det = rep.detections[0]
    assert abs(det.time - math.pi / 4) < 1e-9
    assert det.delta < 1e-10


def test_scan_local_p3_center():
    rep = scan_local(dec_of(path(3)), 1, 2.0)
    assert len(rep.detections) == 2
    tau1 = math.atan(math.sqrt(2)) / math.sqrt(2)
    tau2 = (math.pi - math.atan(math.sqrt(2))) / math.sqrt(2)
    assert abs(rep.detections[0].time - tau1) < 1e-9
    assert abs(rep.detections[1].time - tau2) < 1e-9
    # the state at the first time conjugates into the state at the second
    s1 = rep.detections[0].target_state.entries
    s2 = rep.detections[1].target_state.entries
    target = np.array([1j, -1.0, 1j])
    assert states_proportional(s2, target, 1e-6)
    assert states_proportional(s1, target, 1e-6, up_to_conjugation=True)


def test_scan_local_p3_endpoint_no_detection():
    rep = scan_local(dec_of(path(3)), 0, 50.0)
    assert rep.detections == ()
    # frozen from a dense-grid run: the endpoint deviation stays well above zero
    assert rep.empirical_inf > 0.05


def test_scan_uniform_star():
    rep = scan_uniform(dec_of(star(4)), 2.0)
    assert len(rep.detections) == 1
    assert abs(rep.detections[0].time - 2 * math.pi / (3 * math.sqrt(3))) < 1e-9
    assert rep.detections[0].hadamard.kind.value == "turyn"


def test_scan_uniform_q3():
    rep = scan_uniform(dec_of(cube_q3()), 2.0)
    assert any(abs(d.time - math.pi / 4) < 1e-8 and d.delta < 1e-8
               for d in rep.detections)


def test_scan_rejects_bad_window():
    dec = dec_of(complete(2))
    with pytest.raises(ValueError):
        scan_uniform(dec, -1.0)
    with pytest.raises(ValueError):
        scan_local(dec, 5, 1.0)


def test_minima_sorted_and_reevaluated():
    dec = dec_of(cycle(5))
    rep = scan_local(dec, 0, 10.0)
    deltas = [d for _, d in rep.minima]
    assert deltas == sorted(deltas)
    for t, d in rep.minima:
        assert abs(mixing_deviation(dec, 0, t) - d) < 1e-10


def test_detection_dedupe_and_threshold():
    rep = scan_uniform(dec_of(complete(4)), 10.0)
    times = [d.time for d in rep.detections]
    assert all(t2 - t1 > 1e-6 for t1, t2 in zip(times, times[1:]))
    for d in rep.detections:
        assert matrix_uniform_deviation(dec_of(complete(4)), d.time) < 1e-8


def test_empirical_inf_nonincreasing():
    dec = dec_of(cycle(5))
    vals = empirical_inf(dec, None, (10.0, 100.0, 1000.0))
    infs = [v for _, v in vals]
    assert infs == sorted(infs, reverse=True)
    assert len(vals) == 3


def test_empirical_inf_k2_hits_zero_in_both_windows():
    dec = dec_of(complete(2))
    vals = empirical_inf(dec, None, (1.0, 2.0))
    # pi/4 < 1, so the grid already sees the mixing basin in the first window
    assert vals[0][1] < 1e-2 and vals[1][1] <= vals[0][1]


def test_empirical_inf_grid_refinement(rng):
    # halving the step never increases the infimum
    dec = dec_of(path(4))
    coarse = empirical_inf(dec, 0, (20.0,), step=0.02)[0][1]
    fine = empirical_inf(dec, 0, (20.0,), step=0.01)[0][1]
    assert fine <= coarse + 1e-15


def test_empirical_inf_validates_windows():
    dec = dec_of(complete(2))
    with pytest.raises(ValueError):
        empirical_inf(dec, None, (2.0, 1.0))


def test_empirical_inf_rejects_unusable_grids():
    dec = dec_of(complete(2))
    cases = [dict(windows=(1.0,), step=0.0), dict(windows=(1.0,), step=math.nan),
             dict(windows=(math.nan,), step=None), dict(windows=(1e12,), step=0.01)]
    for case in cases:
        tracemalloc.start()
        try:
            with pytest.raises(GridError):
                empirical_inf(dec, None, case["windows"], step=case["step"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, case


def test_default_step_stays_positive_at_a_huge_spectral_radius():
    # rho = sqrt(2) 1e308, so 8 rho overflows to inf and pi / (8 rho) is 0;
    # the step is positive and its grid hits the cap, not the step check
    dec = dec_of(WeightedGraph.build(3, [(0, 1, 1e308), (1, 2, 1e308)]))
    step = default_step(dec)
    assert math.isinf(8.0 * dec.spectral_radius) and step == math.pi / 8.0 / dec.spectral_radius
    assert 0.0 < step < 1e-300
    with pytest.raises(GridError, match=f"above the cap of {MAX_GRID_POINTS}"):
        scan_uniform(dec, 1.0)
    # wherever 8 rho is finite the step is the float it always was
    for rho in (1e-3, 0.5, 3.0, 1e300, 2.2e307):
        dec = dec_of(WeightedGraph.build(2, [(0, 1, rho)]))
        assert default_step(dec) == min(0.01, math.pi / (8.0 * dec.spectral_radius))
