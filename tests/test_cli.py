import json
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qmix.graphs
from qmix import CertifyOptions, DEFAULT_TOLERANCES, MatrixKind, decompose_graph, parse_graph6
from qmix.graphs import MAX_VERTICES
from qmix.cli import _batch_one, main
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


def test_certify_paper_tier_flag(tmp_path, capsys):
    p = write_star_g6(tmp_path)
    code, doc = run_json(capsys, ["certify", str(p), "--tier", "paper"])
    assert code == 0
    tiers = {v["tier"] for v in doc["certificates"]["graph_verdicts"]}
    assert "asserted" in tiers


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
    main(["certify", str(p), "--tier", "paper"])
    first = capsys.readouterr().out
    main(["certify", str(p), "--tier", "paper"])
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

    monkeypatch.setattr("qmix.cli.ProcessPoolExecutor", InlinePool)
    assert main(["batch", str(tmp_path), "--jobs", "100000"]) == 0
    assert json.loads(capsys.readouterr().out)["aggregate"]["graphs"] == 0
    assert started == []
    lines = [nx.to_graph6_bytes(nx.path_graph(n), header=False).decode().strip()
             for n in (3, 4, 5)]
    (tmp_path / "paths.g6").write_text("\n".join(lines) + "\n")
    assert main(["batch", str(tmp_path)]) == 0
    sequential = capsys.readouterr().out
    for cores, expected in ((64, 3), (2, 2)):
        monkeypatch.setattr("qmix.cli.os.cpu_count", lambda: cores)
        assert main(["batch", str(tmp_path), "--jobs", "100000"]) == 0
        assert capsys.readouterr().out == sequential
        assert started[-1] == expected
    assert len(started) == 2


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_weighted_degree_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "huge.wel"
    p.write_text("0 1 1e308\n1 2 1e308\n")  # the middle vertex has degree 2e308 = inf
    assert main(["spectrum", str(p), "--matrix", "adjacency"]) == 0
    capsys.readouterr()
    for matrix in ("laplacian", "signless"):
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


def test_batch_entry_reports_truncation():
    line = nx.to_graph6_bytes(nx.path_graph(8), header=False).decode().strip()
    task = ("paths.g6", 1, line, MatrixKind.ADJACENCY, CertifyOptions(), DEFAULT_TOLERANCES)
    entry = _batch_one(task)
    assert entry["twin_search_truncated"] is False
    assert entry["signed_enumeration_truncated"] is False
    small = replace(DEFAULT_TOLERANCES, subset_budget=3)
    entry = _batch_one(task[:-1] + (small,))
    assert entry["twin_search_truncated"] is True


ATLAS6_PIN = Path(__file__).parent / "data" / "atlas6_batch.jsonl"


def test_batch_matches_pinned_atlas6(tmp_path, capsys):
    """Batch verdicts on every atlas graph with 2 <= n <= 6, under each walk
    matrix, against the committed entries (each without `file`, tagged with
    its matrix).  A deliberate verdict change regenerates the pin from the
    corpus written here."""
    lines = [nx.to_graph6_bytes(g, header=False).decode().strip()
             for g in nx.graph_atlas_g() if 2 <= g.number_of_nodes() <= 6]
    (tmp_path / "atlas6.g6").write_text("\n".join(lines) + "\n")
    pinned = [json.loads(line) for line in ATLAS6_PIN.read_text().splitlines()]
    for matrix in ("adjacency", "laplacian", "signless"):
        assert main(["batch", str(tmp_path), "--matrix", matrix]) == 0
        out = capsys.readouterr().out.splitlines()
        got = [json.loads(line) for line in out[:out.index("{")]]
        for entry in got:
            del entry["file"]
            entry["matrix"] = matrix
        assert got == [e for e in pinned if e["matrix"] == matrix], matrix
