import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmix.cli
import qmix.graphs
from qmix import DEFAULT_TOLERANCES, MatrixKind, Tolerances, decompose_graph, parse_graph6
from qmix.graphs import MAX_VERTICES
from qmix.cli import _batch_chunk, main
from qmix.walk import deviation_profile

from conftest import star


def write_star_g6(tmp_path, n=4, name="star.g6"):
    gnx = nx.star_graph(n - 1)
    p = tmp_path / name
    p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
    return p


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_command(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    code, doc = run_json(capsys, ["spectrum", str(p), "--matrix", "adjacency"])
    assert code == 0
    eigs = doc["spectrum"]["distinct_eigenvalues"]
    root = math.sqrt(3)
    assert abs(eigs[0] + root) < 1e-9 and abs(eigs[-1] - root) < 1e-9
    assert doc["spectrum"]["multiplicities"] == [1, 2, 1]
    assert doc["spectrum"]["classification"]["kind"] == "quadratic-surd"
    assert doc["schema"] == 1 and "tolerances" in doc


def test_spectrum_laplacian_k2(tmp_path, capsys):
    p = tmp_path / "k2.g6"
    p.write_text("A_\n")
    code, doc = run_json(capsys, ["spectrum", str(p), "--matrix", "laplacian"])
    assert code == 0
    assert doc["spectrum"]["distinct_eigenvalues"] == [0, 2]


def test_certify_command_star5_laplacian(tmp_path, capsys):
    p = tmp_path / "star5.wel"
    p.write_text("0 1 1\n0 2 1\n0 3 1\n0 4 1\n")
    code, doc = run_json(capsys, ["certify", str(p), "--matrix", "laplacian",
                                  "--vertex", "0"])
    assert code == 0
    cert = doc["certificates"]
    assert "degree-vs-average-LQ" in cert["fired_rules"]
    assert len(cert["vertex_verdicts"]) == 1
    assert cert["vertex_verdicts"][0]["vertex"] == 0


def test_certify_graph_level_p7(tmp_path, capsys):
    gnx = nx.path_graph(7)
    p = tmp_path / "p7.g6"
    p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
    code, doc = run_json(capsys, ["certify", str(p)])
    assert code == 0
    assert doc["certificates"]["graph_ruled_out"] is True


def test_search_command(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    code, doc = run_json(capsys, ["search", str(p), "--tmax", "2"])
    assert code == 0
    det = doc["mixing"]["detections"]
    assert len(det) == 1
    assert abs(det[0]["time"] - 2 * math.pi / (3 * math.sqrt(3))) < 1e-8
    assert det[0]["hadamard"]["kind"] == "turyn"


def test_search_vertex_and_csv(tmp_path, capsys):
    gnx = nx.path_graph(3)
    p = tmp_path / "p3.g6"
    p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
    csv = tmp_path / "out.csv"
    code, doc = run_json(capsys, ["search", str(p), "--vertex", "1", "--tmax", "2",
                                  "--csv", str(csv)])
    assert code == 0
    assert any(abs(d["time"] - math.atan(math.sqrt(2)) / math.sqrt(2)) < 1e-8
               for d in doc["mixing"]["detections"])
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,delta"
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert ts == sorted(ts)


def test_search_csv_reuses_scan_profile(tmp_path, capsys, monkeypatch):
    text = nx.to_graph6_bytes(nx.path_graph(5), header=False).decode().strip()
    p = tmp_path / "p5.g6"
    p.write_text(text + "\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return deviation_profile(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # every module that looks it up
        if name.startswith("qmix") and getattr(module, "deviation_profile", None) \
                is deviation_profile:
            monkeypatch.setattr(module, "deviation_profile", counted)
    csv = tmp_path / "out.csv"
    code, doc = run_json(capsys, ["search", str(p), "--vertex", "2", "--tmax", "3",
                                  "--csv", str(csv)])
    assert code == 0
    assert len(calls) == 1
    step = doc["mixing"]["step"]
    ts = np.arange(0.0, 3.0 + step / 2.0, step)
    want = deviation_profile(decompose_graph(parse_graph6(text), MatrixKind.ADJACENCY), ts, 2)
    rows = csv.read_text().splitlines()
    assert rows[0] == "t,delta"
    assert rows[1:] == [f"{format(float(t), '.15g')},{format(float(d), '.15g')}"
                        for t, d in zip(ts, want)]


# Two weighted inputs on which the grouping gap 1e-8 rho merges the exact
# eigenvalues 0 and 3 (input A), or 0 and 4 (input B), into one group.  The
# walk must still give each computed eigenvalue its own phase.
WIDE_WEIGHTS = {
    # a triangle: L(-1, -1, 2) = 3(-1, -1, 2), so vertex 2 mixes at t = 2 pi / 9
    "A": "0 1 1000000000000\n0 2 1\n1 2 1\n",
    # K3 of weight 10^9 and vertex 3 joined to it by unit edges:
    # L(-1, -1, -1, 3) = 4(-1, -1, -1, 3), so vertex 3 mixes at t = pi / 4
    "B": "0 1 1000000000\n0 2 1000000000\n1 2 1000000000\n0 3 1\n1 3 1\n2 3 1\n",
}


def _wide_weight_search(tmp_path, capsys, name, vertex):
    p = tmp_path / f"{name}.wel"
    p.write_text(WIDE_WEIGHTS[name])
    code, doc = run_json(capsys, ["search", str(p), "--matrix", "laplacian", "--tmax", "1",
                                  "--step", "0.01", "--vertex", str(vertex)])
    assert code == 0
    return doc["mixing"]


def test_search_detects_mixing_under_a_merged_group(tmp_path, capsys):
    """Input A at vertex 2: every entry of U(2 pi / 9) e_2 has modulus
    1/sqrt(3).  From the group means the deviation never fell below 0.8165."""
    mixing = _wide_weight_search(tmp_path, capsys, "A", 2)
    assert [d["time"] for d in mixing["detections"]] == [pytest.approx(2 * math.pi / 9, abs=1e-9)]
    assert mixing["empirical_inf"] < 1e-9


def test_search_finds_the_flat_column_under_a_merged_group(tmp_path, capsys):
    """Input B at vertex 3: the column is flat at t = pi / 4, and the grid's
    minimum lies there (0.866 from the group means).  It is no detection:
    the threshold is 1e-8, and the eigensolver's error at rho ~ 3e9 is
    about 1e-7."""
    mixing = _wide_weight_search(tmp_path, capsys, "B", 3)
    assert mixing["empirical_inf"] <= 1e-6
    best = min(mixing["minima"], key=lambda m: m["deviation"])
    assert best["deviation"] == mixing["empirical_inf"]
    assert abs(best["time"] - math.pi / 4) <= 1e-6
    assert mixing["detections"] == []


@pytest.mark.xfail(strict=True, reason="spectral._groups merges the exact eigenvalues 0 and 3 "
                   "(A) or 0 and 4 (B) into one group, and the strict eigenvector-inequality "
                   "rule reads that group's projector as one eigenprojector")
@pytest.mark.parametrize("name, vertex", [("A", 2), ("B", 3)])
def test_certify_keeps_the_mixing_vertex_under_a_merged_group(tmp_path, capsys, name, vertex):
    """The mixing vertex of each wide-weight input must survive the strict
    tier under L; today `eigenvector-inequality` (route `canonical-float`)
    rules it out."""
    p = tmp_path / f"{name}.wel"
    p.write_text(WIDE_WEIGHTS[name])
    code, doc = run_json(capsys, ["certify", str(p), "--matrix", "laplacian"])
    assert code == 0
    assert vertex in doc["certificates"]["surviving_vertices"]


def test_exit_codes(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "missing.g6")]) == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("A\x01\n")
    assert main(["certify", str(bad)]) == 2
    assert main(["search", str(bad), "--tmax", "-1"]) == 1
    assert main([]) == 1  # missing subcommand is a usage error
    capsys.readouterr()


def _assert_input_error(capsys, argv):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err, argv
    return err


def test_unreadable_or_undecodable_input_is_an_input_error(tmp_path, capsys):
    for name in ("x.g6", "x.wel"):
        bad = tmp_path / "files" / name
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(b"\xff\n")
        for command in ("spectrum", "certify", "search"):
            assert str(bad) in _assert_input_error(capsys, [command, str(bad)])
    (tmp_path / "dirs" / "d.g6").mkdir(parents=True)
    assert "d.g6" in _assert_input_error(capsys, ["certify", str(tmp_path / "dirs" / "d.g6")])
    # batch gives the file one error entry at line 0 instead
    for directory, name in ((bad.parent, "x.g6"), (tmp_path / "dirs", "d.g6")):
        code, entries, aggregate = _batch_documents(capsys, ["batch", str(directory)])
        assert code == 0
        assert [(e["file"], e["line"]) for e in entries] == [(str(directory / name), 0)]
        assert str(directory / name) in entries[0]["error"]
        assert aggregate["errors"] == 1


def _batch_documents(capsys, argv):
    """Exit code, entries and aggregate of one `qmix batch` run."""
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.out.splitlines()
    start = lines.index("{")  # entries are single-line; the aggregate is pretty-printed
    return (code, [json.loads(line) for line in lines[:start]],
            json.loads("\n".join(lines[start:]))["aggregate"])


def test_batch_keeps_going_past_unreadable_files(tmp_path, capsys):
    (tmp_path / "a.g6").write_text("A_\n")
    (tmp_path / "b.g6").write_bytes(b"\xff\n")
    (tmp_path / "c.g6").mkdir()
    (tmp_path / "d.g6").write_text("Bw\nA\x01\n")
    outputs = []
    for jobs in ("1", "2"):
        assert main(["batch", str(tmp_path), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    code, entries, aggregate = _batch_documents(capsys, ["batch", str(tmp_path)])
    assert code == 0
    assert [(Path(e["file"]).name, e["line"], "error" in e) for e in entries] == [
        ("a.g6", 1, False), ("b.g6", 0, True), ("c.g6", 0, True),
        ("d.g6", 1, False), ("d.g6", 2, True)]
    assert aggregate["graphs"] == 5 and aggregate["errors"] == 3


def test_tolerance_flags_must_be_positive_and_finite(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    for command in ("spectrum", "certify", "search", "batch"):
        target = str(tmp_path if command == "batch" else p)
        for flag in ("--tol-group", "--tol-supp", "--tol-detect"):
            for value in ("nan", "inf", "0", "-1"):
                assert main([command, target, flag, value]) == 1, (command, flag, value)
                err = capsys.readouterr().err
                assert err.startswith("qmix: usage error:") and flag in err, (command, flag)
                assert "Traceback" not in err
    assert main(["certify", str(p), "--tol-group", "1e-6"]) == 0
    capsys.readouterr()


_TOLERANCE = st.floats(-300, 300).map(lambda e: 10.0 ** e)  # log-uniform in 1e-300..1e300


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(supp=_TOLERANCE, group=_TOLERANCE, detect=_TOLERANCE)
def test_tolerance_flags_keep_the_exit_code_contract(tmp_path_factory, capsys,
                                                      supp, group, detect):
    # a support cut above every ||E_k e_u|| leaves a vertex an empty support
    directory = tmp_path_factory.mktemp("graphs")
    flags = ["--tol-supp", repr(supp), "--tol-group", repr(group), "--tol-detect", repr(detect)]
    commands = (["spectrum"], ["certify"], ["search", "--tmax", "2"],
                ["search", "--tmax", "2", "--vertex", "0"])
    for name, gnx in (("k4", nx.complete_graph(4)), ("p3", nx.path_graph(3)),
                      ("star4", nx.star_graph(3)), ("e2", nx.empty_graph(2))):
        p = directory / f"{name}.g6"
        p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
        for command, *options in commands:
            for matrix in ("adjacency", "laplacian"):
                argv = [command, str(p), "--matrix", matrix, *options, *flags]
                assert main(argv) in (0, 1, 2), argv
                assert "Traceback" not in capsys.readouterr().err, argv


_EXTREME_WEIGHT = st.one_of(
    st.just("1"), st.integers(2, 9).map(str),
    st.floats(-300, 308.23).map(lambda e: repr(10.0 ** e)),  # log-uniform in 1e-300..1.7e308
    st.sampled_from((str(2 ** 53), str(10 ** 30))))
_PAIRS = list(combinations(range(8), 2))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=st.lists(st.tuples(st.sampled_from(_PAIRS), _EXTREME_WEIGHT),
                      min_size=1, max_size=12, unique_by=lambda e: e[0]))
# a group mean of two 1.7e308 eigenvalues overflows; eigh returns an
# infinite eigenvalue of a finite signless Laplacian; a surd fit squares 2e155
@example(edges=[((0, 4), "1.7e308"), ((2, 5), "1.7e308")])
@example(edges=[((0, 1), str(2 ** 53)), ((0, 2), str(2 ** 53)), ((0, 3), "1.7e308")])
@example(edges=[((0, 1), "1e155"), ((1, 2), "1")])
def test_extreme_weights_keep_the_exit_code_contract(tmp_path_factory, capsys, edges):
    p = tmp_path_factory.mktemp("graphs") / "g.wel"
    p.write_text("".join(f"{u} {v} {w}\n" for (u, v), w in edges))
    commands = (["spectrum"], ["certify"], ["search", "--tmax", "1"],
                ["search", "--tmax", "1", "--vertex", "0"])
    for command, *options in commands:
        for matrix in ("adjacency", "laplacian", "signless"):
            argv = [command, str(p), "--matrix", matrix, *options]
            assert main(argv) in (0, 1, 2), argv
            assert "Traceback" not in capsys.readouterr().err, argv


def test_search_detects_only_below_one_over_n(tmp_path, capsys):
    # the two isolated vertices never mix; a loose --tol-detect once took
    # their minima for detections and failed on the zero column entries
    p = tmp_path / "e2.g6"
    p.write_text("A?\n")
    for scope in ([], ["--vertex", "0"]):
        code, doc = run_json(capsys, ["search", str(p), "--tol-detect", "10", *scope])
        assert code == 0, scope
        assert doc["mixing"]["detections"] == [] and doc["mixing"]["minima"], scope
    # K2 mixes at pi/4, and its detection stays
    p.write_text("A_\n")
    code, doc = run_json(capsys, ["search", str(p), "--tol-detect", "10", "--tmax", "1"])
    assert code == 0
    assert [round(d["time"], 12) for d in doc["mixing"]["detections"]] == \
        [round(math.pi / 4, 12)]


def test_assert_planar_is_a_usage_error(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    for command in ("certify", "batch"):
        target = str(tmp_path if command == "batch" else p)
        assert main([command, target, "--assert-planar"]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("qmix: usage error:") and "--assert-planar" in err, command
        assert "Traceback" not in err


def test_tier_is_a_usage_error(tmp_path, capsys):
    # every rule is strict; the asserted tier and its flag are gone
    p = write_star_g6(tmp_path)
    for argv in (["certify", str(p), "--tier", "paper"], ["batch", str(tmp_path), "--tier", "strict"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("qmix: usage error:") and "--tier" in err, argv
        assert "Traceback" not in err


def test_tiny_group_tolerance_still_builds_the_exact_kernel(tmp_path, capsys):
    # a computed zero eigenvalue (about 1e-16) lies above a grouping gap of
    # 1e-20, so the spectral gate must not read its threshold off the gap.
    # Vertex 0 of P3 and P9 lies in the kernel's support, so only a built
    # kernel gives it a verdict other than "no kernel component"
    for name, gnx, want in (("p3", nx.path_graph(3), ("ruled-out", "not-a-square")),
                            ("p9", nx.path_graph(9), ("inconclusive", None))):
        p = tmp_path / f"{name}.g6"
        p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
        docs = [run_json(capsys, ["certify", str(p), *flags])
                for flags in ([], ["--tol-group", "1e-20"])]
        assert [code for code, _ in docs] == [0, 0]
        default, tiny = (doc["certificates"] for _, doc in docs)
        assert tiny == default, name
        [v] = [v for v in default["vertex_verdicts"][0]["verdicts"]
               if v["rule"] == "bipartite-kernel-square"]
        assert (v["verdict"], v["witness"].get("route")) == want, name


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_grid_arguments_are_usage_errors(tmp_path, capsys):
    k2 = tmp_path / "k2.g6"
    k2.write_text("A_\n")
    heavy = tmp_path / "heavy.wel"  # the default step pi / (8 rho) collapses
    heavy.write_text("0 1 1e300\n")
    cases = [(k2, ["--step", "0"]), (k2, ["--step", "-1"]), (k2, ["--step", "nan"]),
             (k2, ["--tmax", "nan"]), (k2, ["--tmax", "inf"]), (k2, ["--tmax", "1e300"]),
             (k2, ["--step", "1e-12"]), (heavy, [])]
    for path, flags in cases:
        code, peak = _peak_bytes(lambda: main(["search", str(path), *flags]))
        err = capsys.readouterr().err
        assert code == 1, flags
        assert err.startswith("qmix: usage error:") and "Traceback" not in err, flags
        assert "--tmax" in err or "--step" in err, flags
        assert peak < 10 * 2 ** 20, flags


def test_vertex_cap_is_an_input_error(tmp_path, capsys):
    n = MAX_VERTICES + 1  # graph6 writes 63 <= n < 2^18 as "~" and three 6-bit digits
    header = "~" + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))
    g6 = tmp_path / "big.g6"
    g6.write_text(header + "\n")
    wel = tmp_path / "big.wel"
    wel.write_text(f"0 1 1\n1 {MAX_VERTICES} 1\n")
    for path in (g6, wel):
        for command in ("spectrum", "certify", "search"):
            code, peak = _peak_bytes(lambda: main([command, str(path)]))
            err = capsys.readouterr().err
            assert code == 2 and "cap" in err, (path.name, command)
            assert peak < 10 * 2 ** 20
    assert main(["batch", str(tmp_path)]) == 0
    entry = json.loads(capsys.readouterr().out.splitlines()[0])
    assert "cap" in entry["error"]


def test_usage_error_unknown_flag(capsys):
    code = main(["certify", "x.g6", "--bogus"])
    assert code == 1
    capsys.readouterr()


def test_determinism_byte_identical(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    main(["certify", str(p)])
    first = capsys.readouterr().out
    main(["certify", str(p)])
    second = capsys.readouterr().out
    assert first == second


def test_batch_outputs_and_jobs_equivalence(tmp_path, capsys):
    lines = []
    for n in (4, 5, 6):
        lines.append(nx.to_graph6_bytes(nx.path_graph(n), header=False).decode().strip())
    (tmp_path / "paths.g6").write_text("\n".join(lines) + "\n")
    (tmp_path / "bad.g6").write_text("A\x01\n")
    code = main(["batch", str(tmp_path)])
    seq = capsys.readouterr().out
    assert code == 0
    code = main(["batch", str(tmp_path), "--jobs", "3"])
    par = capsys.readouterr().out
    assert code == 0
    assert seq == par
    lines = seq.strip().splitlines()
    agg_start = lines.index("{")  # entries are single-line; the aggregate is pretty-printed
    entries = [json.loads(line) for line in lines[:agg_start]]
    aggregate = json.loads("\n".join(lines[agg_start:]))
    assert len(entries) == 4
    assert sum(1 for e in entries if "error" in e) == 1
    assert aggregate["aggregate"]["graphs"] == 4
    assert aggregate["aggregate"]["errors"] == 1
    assert aggregate["aggregate"]["ruled_out"] == 3


_ATLAS_LINES = [nx.to_graph6_bytes(g, header=False).decode().strip()
                for g in nx.graph_atlas_g()[1:60]]


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=st.lists(st.lists(st.sampled_from(_ATLAS_LINES + ["A\x01", "?"]), max_size=6),
                      min_size=1, max_size=3),
       matrix=st.sampled_from(("adjacency", "laplacian", "signless")))
def test_batch_jobs_2_matches_jobs_1(tmp_path_factory, capsys, files, matrix):
    directory = tmp_path_factory.mktemp("batch")
    for i, lines in enumerate(files):
        (directory / f"{i}.g6").write_text("".join(line + "\n" for line in lines))
    outputs = []
    for jobs in ("1", "2"):
        assert main(["batch", str(directory), "--jobs", jobs, "--matrix", matrix]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_batch_empty_dir(tmp_path, capsys):
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["aggregate"]["graphs"] == 0


def test_batch_jobs_capped_by_tasks_and_cores(tmp_path, capsys, monkeypatch):
    # a pool starts max_workers processes at once; this fake starts none
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    assert main(["batch", str(tmp_path), "--jobs", "100000"]) == 0
    assert json.loads(capsys.readouterr().out)["aggregate"]["graphs"] == 0
    assert started == []
    for n in (3, 4, 5):  # three files, so three chunks
        line = nx.to_graph6_bytes(nx.path_graph(n), header=False).decode().strip()
        (tmp_path / f"path{n}.g6").write_text(line + "\n")
    assert main(["batch", str(tmp_path)]) == 0
    sequential = capsys.readouterr().out
    for cores, expected in ((64, 3), (2, 2)):
        monkeypatch.setattr("qmix.cli.os.cpu_count", lambda: cores)
        assert main(["batch", str(tmp_path), "--jobs", "100000"]) == 0
        assert capsys.readouterr().out == sequential
        assert started[-1] == expected
    assert len(started) == 2


def test_batch_writes_each_chunk_once_it_is_certified(tmp_path, monkeypatch):
    # memory must not grow with the corpus: the first write comes after
    # exactly one chunk of graphs, not after the last graph
    per_write = qmix.cli._LINES_PER_WRITE
    line = nx.to_graph6_bytes(nx.path_graph(3), header=False).decode().strip()
    (tmp_path / "p3.g6").write_text((line + "\n") * (per_write + 5))
    calls, writes = [], []
    certify_graph = qmix.cli.certify_graph

    def counted(*args):
        calls.append(args)
        return certify_graph(*args)

    class Stdout:
        def write(self, text):
            writes.append((len(calls), text.count("\n")))

        def flush(self):
            pass

    class InlinePool:  # --jobs > 1 reads pool.map's results the same way
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(qmix.cli, "certify_graph", counted)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("qmix.cli.os.cpu_count", lambda: 2)
    monkeypatch.setattr(sys, "stdout", Stdout())
    for jobs in ("1", "2"):
        calls.clear()
        writes.clear()
        assert main(["batch", str(tmp_path), "--jobs", jobs]) == 0
        assert writes[0] == (per_write, per_write), jobs
        assert len(calls) == per_write + 5


def test_import_loads_every_span_module_and_no_process_pool():
    # the pool module is imported only for --jobs > 1; the benchmark's tracer
    # wraps functions in every span module as soon as qmix.cli is imported
    root = Path(__file__).resolve().parent.parent
    script = "\n".join((
        "import sys",
        "import qmix.cli",
        "pool = 'concurrent.futures' in sys.modules",
        f"sys.path.insert(0, {str(root / 'perfbench')!r})",
        "from tracing import SPANS",
        "print(pool, sorted({home for _, home, _, _ in SPANS} - set(sys.modules)))"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True).stdout
    assert out.split() == ["False", "[]"]


def _qmix_process(argv, **kwargs):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
    return subprocess.Popen([sys.executable, "-m", "qmix.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_batch_into_a_closed_pipe_exits_quietly(tmp_path):
    # `qmix batch DIR | head -n 1`: the reader takes one line of more than a
    # pipe's buffer and leaves, or leaves before the first write
    line = nx.to_graph6_bytes(nx.path_graph(3), header=False).decode().strip()
    (tmp_path / ("x" * 200 + ".g6")).write_text((line + "\n") * 400)
    for lines_read in (1, 0):
        proc = _qmix_process(["batch", str(tmp_path)])
        if lines_read:
            assert proc.stdout.readline().startswith(b'{ "file": ')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
        assert err == b"", err
    proc = _qmix_process(["batch", str(tmp_path)])
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b"" and len(out) > 1 << 17


def test_bad_weights_are_input_errors(tmp_path, capsys):
    for weight in ("1e400", "1e-400"):
        p = tmp_path / "bad.wel"
        p.write_text(f"0 1 {weight}\n1 2 1\n")
        assert main(["spectrum", str(p)]) == 2
        assert main(["certify", str(p)]) == 2
    capsys.readouterr()


def test_certify_takes_integer_weights_beyond_int64(tmp_path, capsys):
    p = tmp_path / "heavy.wel"
    p.write_text("0 1 1e300\n1 2 1\n")  # the adjacency kernel holds 10^300
    assert main(["certify", str(p)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_weights_above_2_53_are_not_rounded_into_twins(tmp_path, capsys):
    # 2^53 + 1 and 2^70 + k have no float64 value of their own
    big = 2 ** 70
    k2 = tmp_path / "k2.wel"
    k2.write_text(f"0 1 {2 ** 53 + 1}\n")
    star = tmp_path / "star.wel"
    star.write_text("".join(f"0 {i} {big + k}\n" for i, k in ((1, 1), (2, 0), (3, 2), (4, 3))))
    for matrix in ("adjacency", "laplacian", "signless"):
        code, doc = run_json(capsys, ["certify", str(k2), "--matrix", matrix])
        assert code == 0 and doc["certificates"]["surviving_vertices"] == [0, 1], matrix
        code, doc = run_json(capsys, ["certify", str(star), "--matrix", matrix])
        assert code == 0, matrix
        assert not any(v["rule"] == "twin-vertex" and v["verdict"] == "ruled-out"
                       for e in doc["certificates"]["vertex_verdicts"]
                       for v in e["verdicts"]), matrix


def test_eigensolver_failure_is_an_input_error(tmp_path, capsys, monkeypatch):
    def failing_eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    p = write_star_g6(tmp_path)
    assert main(["spectrum", str(p)]) == 2
    assert "eigensolver failed" in capsys.readouterr().err
    assert main(["batch", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    agg_start = lines.index("{")
    entries = [json.loads(line) for line in lines[:agg_start]]
    assert len(entries) == 1 and "eigensolver failed" in entries[0]["error"]
    assert json.loads("\n".join(lines[agg_start:]))["aggregate"]["errors"] == 1


def test_overflowing_weighted_degree_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "huge.wel"
    p.write_text("0 1 1e308\n1 2 1e308\n")  # the middle vertex has degree 2e308 = inf
    assert main(["spectrum", str(p), "--matrix", "adjacency"]) == 0
    capsys.readouterr()
    for matrix in ("laplacian", "signless"):
        with warnings.catch_warnings():  # the input error is the only report
            warnings.simplefilter("error")
            assert main(["spectrum", str(p), "--matrix", matrix]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err, matrix


def test_certify_derives_structure_once(tmp_path, capsys, monkeypatch):
    gnx = nx.gnp_random_graph(64, 0.15, seed=64)
    p = tmp_path / "gnp-64.g6"
    p.write_text(nx.to_graph6_bytes(gnx, header=False).decode())
    calls = Counter()
    for name in ("degree_stats", "bipartition", "cycle_flags"):
        original = getattr(qmix.graphs, name)

        def counted(g, _name=name, _original=original):
            calls[_name] += 1
            return _original(g)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "qmix"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for matrix in ("adjacency", "laplacian"):
        calls.clear()
        assert main(["certify", str(p), "--matrix", matrix]) == 0
        assert calls == {"degree_stats": 1, "bipartition": 1, "cycle_flags": 1}, matrix
    capsys.readouterr()


def test_batch_entry_reports_truncation(monkeypatch):
    line = nx.to_graph6_bytes(nx.path_graph(8), header=False).decode().strip()
    task = ("paths.g6", [(1, line)], MatrixKind.ADJACENCY, DEFAULT_TOLERANCES)
    [entry] = _batch_chunk(task)
    assert entry["twin_search_truncated"] is False
    assert entry["signed_enumeration_truncated"] is False
    monkeypatch.setattr(Tolerances, "subset_budget", 3)
    [entry] = _batch_chunk(task)
    assert entry["twin_search_truncated"] is True


def test_batch_stack_keeps_going_past_a_failing_graph(tmp_path, capsys, monkeypatch):
    # the four graphs of order 5 are one stack; eigh fails on K5 alone
    graphs = [nx.path_graph(5), nx.complete_graph(5), nx.cycle_graph(5), nx.star_graph(4)]
    lines = [nx.to_graph6_bytes(g, header=False).decode().strip() for g in graphs]
    solo = []
    for i, line in enumerate(lines):
        directory = tmp_path / f"solo{i}"
        directory.mkdir()
        (directory / "g.g6").write_text(line + "\n")
        solo.append(_batch_documents(capsys, ["batch", str(directory)])[1][0])
    marked = np.ones((5, 5)) - np.eye(5)
    eigh, shapes = np.linalg.eigh, []

    def failing_eigh(m):
        shapes.append(m.shape)
        if any(np.array_equal(x, marked) for x in np.reshape(m, (-1, 5, 5))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    (tmp_path / "all.g6").write_text("".join(line + "\n" for line in lines))
    code, entries, aggregate = _batch_documents(capsys, ["batch", str(tmp_path)])
    assert code == 0 and aggregate["errors"] == 1
    assert shapes == [(4, 5, 5)] + [(1, 5, 5)] * 4
    assert entries[1] == {"file": str(tmp_path / "all.g6"), "line": 2,
                          "error": "eigensolver failed: Eigenvalues did not converge"}
    for i in (0, 2, 3):
        assert entries[i] == dict(solo[i], file=str(tmp_path / "all.g6"), line=i + 1)


ATLAS6_PIN = Path(__file__).parent / "data" / "atlas6_batch.jsonl"


def atlas6_entries(directory: Path) -> list[dict]:
    """`batch` entries on every atlas graph with 2 <= n <= 6, written to a
    corpus in directory, under each walk matrix: each without `file` and
    tagged with its matrix first, as the pin holds them."""
    lines = [nx.to_graph6_bytes(g, header=False).decode().strip()
             for g in nx.graph_atlas_g() if 2 <= g.number_of_nodes() <= 6]
    (directory / "atlas6.g6").write_text("\n".join(lines) + "\n")
    entries = []
    for matrix in ("adjacency", "laplacian", "signless"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["batch", str(directory), "--matrix", matrix]) == 0
        docs = out.getvalue().splitlines()
        for line in docs[:docs.index("{")]:
            entry = json.loads(line)
            del entry["file"]
            entries.append({"matrix": matrix, **entry})
    return entries


def test_batch_matches_pinned_atlas6(tmp_path):
    """Batch verdicts on the atlas graphs with 2 <= n <= 6 against the
    committed entries.  Run this file as a script to regenerate the pin
    after a deliberate verdict change: `PYTHONPATH=src python
    tests/test_cli.py`."""
    pinned = [json.loads(line) for line in ATLAS6_PIN.read_text().splitlines()]
    got = atlas6_entries(tmp_path)
    for matrix in ("adjacency", "laplacian", "signless"):
        assert [e for e in got if e["matrix"] == matrix] == \
            [e for e in pinned if e["matrix"] == matrix], matrix


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = atlas6_entries(Path(tmp))
    ATLAS6_PIN.write_text("".join(json.dumps(e) + "\n" for e in rows))
    print(f"wrote {len(rows)} entries to {ATLAS6_PIN}", file=sys.stderr)


def test_readme_command_line_names_every_flag_and_no_other():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    [commands] = [a for a in qmix.cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    flags = {s for parser in commands.choices.values() for action in parser._actions
             for s in action.option_strings if s.startswith("--")}
    assert documented == flags - {"--help"}  # argparse adds --help to each command
