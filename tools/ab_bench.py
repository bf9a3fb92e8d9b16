"""Alternating A/B runs of the benchmark in two checkouts.

    python3 tools/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload atlas-batch --pairs 10

Each pair runs `perfbench/run.py --trace 0` once in each checkout, one
process at a time, so both runs of a pair see the same phase of the
machine.  The parent runs first in the first pair, and the side that runs
first alternates from pair to pair, so that neither side always runs
second.  Pair i uses seed SEED + i in both.  Each side compiles into its
own bytecode cache (PYTHONPYCACHEPREFIX), made empty at start and removed
at exit, so neither reads the `__pycache__` directories left in its tree.
The runs may write there even under PYTHONDONTWRITEBYTECODE, or every
process would compile numpy and the standard library too; the benchmark's
first, untimed start-up fills the cache.
Prints each pair's wall_s, setup_s and peak_rss_mb, the median of each
metric per side with the parent's interquartile range, the change/parent
ratio of the medians, the median of the paired wall_s ratios and the pairs
the change won (lower wall_s).  Exits 1 if any run is incorrect or has
failed operations, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_once(root: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """The last stdout line of one benchmark run in a checkout, with its
    bytecode cache under pycache, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, env=_env(pycache), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env(pycache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPYCACHEPREFIX=str(pycache))


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians, the parent's IQR and the paired ratios of (parent, change)
    results, each a parsed `perfbench/run.py` line."""
    value = [{m: (p["metrics"][m]["value"], c["metrics"][m]["value"]) for m in METRICS}
             for p, c in pairs]
    out = {"pairs": value, "metrics": {}}
    for m in METRICS:
        before = [v[m][0] for v in value]
        after = [v[m][1] for v in value]
        out["metrics"][m] = {
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_iqr": _iqr(before),
            "ratio_of_medians": statistics.median(after) / statistics.median(before),
        }
    ratios = [v["wall_s"][1] / v["wall_s"][0] for v in value]
    out["paired_wall_ratios"] = ratios
    out["median_paired_ratio"] = statistics.median(ratios)
    out["pairs_won"] = sum(r < 1.0 for r in ratios)
    out["ok"] = all(r["correct"] and r["failed"] == 0 for pair in pairs for r in pair)
    return out


def report(summary: dict) -> str:
    lines = ["pair  " + "  ".join(f"{m + ' parent':>18}{m + ' change':>18}" for m in METRICS)]
    for i, v in enumerate(summary["pairs"]):
        lines.append(f"{i:4d}  " + "  ".join(f"{v[m][0]:18.3f}{v[m][1]:18.3f}" for m in METRICS))
    for m, s in summary["metrics"].items():
        lines.append(f"{m}: median {s['parent_median']:.3f} -> {s['change_median']:.3f} "
                     f"(ratio {s['ratio_of_medians']:.3f}), parent IQR {s['parent_iqr']:.3f}")
    ratios = ", ".join(f"{r:.3f}" for r in summary["paired_wall_ratios"])
    lines.append(f"paired wall_s ratios: {ratios}")
    lines.append(f"median paired ratio {summary['median_paired_ratio']:.3f}, "
                 f"change won {summary['pairs_won']} of {len(summary['pairs'])} pairs")
    lines.append("every run correct with 0 failed operations" if summary["ok"]
                 else "SOME RUN WAS INCORRECT OR HAD FAILED OPERATIONS")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=50, help="seed of the first pair")
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    caches = (Path(tempfile.mkdtemp(prefix="ab_bench_parent_")),
              Path(tempfile.mkdtemp(prefix="ab_bench_change_")))
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            runs = {side: run_once(roots[side], args.workload, seed, args.seconds, caches[side])
                    for side in ((0, 1) if i % 2 == 0 else (1, 0))}
            pair = (runs[0], runs[1])
            pairs.append(pair)
            print(f"pair {i} (seed {seed}): wall_s {pair[0]['metrics']['wall_s']['value']:.3f} "
                  f"-> {pair[1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    finally:
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)
    summary = summarize(pairs)
    print(report(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
