"""The summary of tools/ab_bench.py on canned benchmark results."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab_bench  # noqa: E402
from ab_bench import report, summarize  # noqa: E402


def _result(wall, setup=0.3, rss=35.0, correct=True, failed=0):
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {"correct": correct, "attempted": 1251, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


def test_summary_of_alternating_pairs():
    walls = [(1.6, 1.1), (1.8, 1.2), (1.5, 1.6), (1.7, 1.0)]
    summary = summarize([(_result(p), _result(c, setup=0.31)) for p, c in walls])
    wall = summary["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(1.65)
    assert wall["change_median"] == pytest.approx(1.15)
    assert wall["ratio_of_medians"] == pytest.approx(1.15 / 1.65)
    # quartiles of 1.5, 1.6, 1.7, 1.8 by the inclusive method: 1.575 and 1.725
    assert wall["parent_iqr"] == pytest.approx(0.15)
    assert summary["paired_wall_ratios"] == pytest.approx([c / p for p, c in walls])
    assert summary["median_paired_ratio"] == pytest.approx((1.1 / 1.6 + 1.2 / 1.8) / 2)
    assert summary["pairs_won"] == 3
    assert summary["metrics"]["setup_s"]["ratio_of_medians"] == pytest.approx(0.31 / 0.3)
    assert summary["ok"]
    text = report(summary)
    assert "change won 3 of 4 pairs" in text and "every run correct" in text


def test_summary_flags_incorrect_or_failed_runs():
    good = _result(1.0)
    assert not summarize([(good, _result(0.9, correct=False))])["ok"]
    assert not summarize([(_result(1.0, failed=2), good)])["ok"]
    one = summarize([(good, good)])
    assert one["ok"] and one["metrics"]["wall_s"]["parent_iqr"] == 0.0
    assert one["pairs_won"] == 0  # a tie is not a win


def test_each_side_compiles_into_its_own_fresh_cache(tmp_path, monkeypatch, capsys):
    roots = (tmp_path / "parent", tmp_path / "change")
    for root in roots:
        (root / "src" / "__pycache__").mkdir(parents=True)
    seen = {root: set() for root in roots}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        if not seen[cwd]:
            assert prefix.is_dir() and not any(prefix.iterdir())  # fresh at the side's first run
        assert "PYTHONDONTWRITEBYTECODE" not in env  # the cache fills on the first start-up
        seen[cwd].add(prefix)
        (prefix / "qmix.cpython.pyc").touch()
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(_result(1.0)) + "\n")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    assert ab_bench.main([str(r) for r in roots] + ["--workload", "atlas-batch", "--pairs", "3"]) == 0
    assert "change won 0 of 3 pairs" in capsys.readouterr().out
    assert all(len(prefixes) == 1 for prefixes in seen.values())  # one per side for all pairs
    (parent_cache,), (change_cache,) = seen.values()
    assert parent_cache != change_cache
    for cache in (parent_cache, change_cache):
        assert not any(cache.resolve().is_relative_to(root.resolve()) for root in roots)
        assert not cache.exists()
