"""qmix benchmark: run one workload through the qmix command line.

    python3 perfbench/run.py --workload atlas-batch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; qmix is imported from ./src.  The
inputs are generated from --seed under .perfbench-work/.  Rounds of the
workload's commands repeat until --seconds have passed; every round runs the
same commands, so each run attempts whole rounds.

--trace 0: every command is its own `python -m qmix.cli` process.  Prints the
end-to-end metrics: setup_s, wall_s and peak_rss_mb.
--trace 1: the same commands run in this process through qmix.cli.main, in
pairs of an untraced and a traced round.  Prints the per-layer metrics and
writes every span to .perfbench-work/trace-<workload>-seed<seed>.json.

Every output is checked by perfbench/checks.py.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread for qmix and the checkers alike; set before numpy loads.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
from tracing import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("atlas-batch", "search-small", "search-large", "analyze-midsize")
SETUP_REPEATS = 7  # fewest start-ups timed per run
COMMAND_TIMEOUT_S = 150.0


def commands(manifest: dict) -> list[tuple[str, list[str], int]]:
    """(label, qmix argv, operations it counts) for one round."""
    if "atlas" in manifest:
        return [("batch", ["batch", manifest["atlas"]["dir"], "--jobs", "1",
                           "--matrix", "adjacency"], manifest["atlas"]["lines"])]
    if "ladder" in manifest:
        out = []
        for item in manifest["ladder"]:
            argv = ["search", item["file"], "--tmax", repr(item["tmax"])]
            if item["vertex"] is not None:
                argv += ["--vertex", str(item["vertex"])]
            out.append((checks.op_label(item), argv, 1))
        return out
    out = []
    for item in manifest["midsize"]:
        out.append((f"spectrum {item['name']}", ["spectrum", item["file"]], 1))
        for matrix in ("adjacency", "laplacian"):
            out.append((f"certify {item['name']} {matrix}",
                        ["certify", item["file"], "--matrix", matrix], 1))
    return out


def run_process(argv: list[str], env: dict, tmp: Path) -> tuple[float, float, int, str, str]:
    """Run argv through launch.py; return (wall s, peak RSS MB, exit code,
    stdout, stderr)."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    report = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(out_path), str(err_path),
         str(COMMAND_TIMEOUT_S), *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=COMMAND_TIMEOUT_S + 20)
    res = json.loads(report.stdout)
    return (res["wall_s"], res["maxrss_kb"] / 1024.0, res["code"],
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def run_in_process(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Round:
    """Outputs and failure counts of one round."""

    def __init__(self):
        self.outputs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0  # sum of the commands' wall times

    def record(self, label: str, ops: int, wall: float, code, stdout: str, stderr: str) -> None:
        self.wall += wall
        self.attempted += ops
        if code != 0 or "Traceback (most recent call last)" in stderr:
            self.failed += ops
            sys.stderr.write(f"perfbench: {label} failed (exit {code}): {stderr[-2000:]}\n")
            return
        if ops > 1:  # batch: one operation per graph line, an error entry fails it
            try:
                self.failed += sum(1 for doc in checks.documents(stdout)[:-1] if "error" in doc)
            except ValueError:
                pass  # not JSON: the checker reports it
        self.outputs[label] = stdout


class Checker:
    """Runs the workload's checker once per distinct set of outputs."""

    def __init__(self, workload: str, manifest: dict):
        self.check = checks.CHECKERS[workload]
        self.manifest = manifest
        self.seen: dict[str, list] = {}

    def __call__(self, rnd: Round) -> list:
        key = hashlib.sha256(json.dumps(rnd.outputs, sort_keys=True).encode()).hexdigest()
        if key not in self.seen:
            try:
                self.seen[key] = self.check(self.manifest, rnd.outputs)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                self.seen[key] = [f"output not in the expected form: {exc!r}"]
        return self.seen[key]


def time_import(env: dict, tmp: Path) -> float:
    wall, _, code, _, err = run_process([sys.executable, "-c", "import qmix.cli"], env, tmp)
    if code != 0:
        raise SystemExit(f"perfbench: importing qmix.cli failed: {err}")
    return wall


def run_untraced(ops, seconds: float, check: Checker, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    time_import(env, tmp)  # the first start-up also writes the bytecode caches
    # start-ups are timed between commands, so setup_s spans the run like wall_s
    stride = max(1, len(ops) // 4)
    setup, rounds, rss = [], [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = Round()
        for i, (label, argv, n_ops) in enumerate(ops):
            if i % stride == 0:
                setup.append(time_import(env, tmp))
            wall, peak, code, out, err = run_process(
                [sys.executable, "-m", "qmix.cli", *argv], env, tmp)
            rss = max(rss, peak)
            rnd.record(label, n_ops, wall, code, out, err)
        rounds.append(rnd)
    while len(setup) < SETUP_REPEATS:
        setup.append(time_import(env, tmp))
    errors = [e for rnd in rounds for e in check(rnd)]
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "wall_s": (statistics.median(r.wall for r in rounds), "s"),
               "peak_rss_mb": (rss, "MB")}
    return {"rounds": rounds, "errors": errors, "metrics": metrics}


def run_traced(ops, seconds: float, check: Checker, trace_file: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import qmix.cli
    if Path(qmix.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: qmix was imported from {qmix.cli.__file__}, not {SRC}")

    tracer = Tracer()
    rounds, pairs, snapshots = [], [], []

    def one_round(traced: bool) -> float:
        if traced:
            tracer.reset()
            tracer.install()
        rnd = Round()
        try:
            for label, argv, n_ops in ops:
                rnd.record(label, n_ops, *run_in_process(qmix.cli.main, argv))
        finally:
            tracer.uninstall()
        rounds.append(rnd)
        return rnd.wall

    one_round(traced=False)  # warms up lazy imports and caches
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        untraced = one_round(traced=False)
        pairs.append({"untraced_s": untraced, "traced_s": one_round(traced=True)})
        snapshots.append(tracer.snapshot())
    overhead = statistics.median(p["traced_s"] - p["untraced_s"] for p in pairs)
    metrics = {name: (statistics.median(s["metrics"][name] for s in snapshots),
                      "s" if name.endswith("_s") else "count") for name in METRICS}
    metrics["trace.overhead_s"] = (overhead, "s")
    trace_file.write_text(json.dumps({
        "pairs": pairs, "overhead_s": overhead, "rounds": snapshots,
        "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1), encoding="utf-8")
    print(f"perfbench: tracing overhead {overhead:.3f} s per round "
          f"(traced minus untraced, median of {len(pairs)}); spans in {trace_file}")
    errors = [e for rnd in rounds for e in check(rnd)]
    return {"rounds": rounds, "errors": errors, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmix" / "cli.py").is_file():
        print(f"perfbench: no qmix sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        manifest = inputs.generate(tmp, args.workload, args.seed)
        ops = commands(manifest)
        check = Checker(args.workload, manifest)
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            result = run_traced(ops, args.seconds, check, trace_file)
        else:
            result = run_untraced(ops, args.seconds, check, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for err in result["errors"][:20]:
        print(f"perfbench: CHECK FAILED: {err}")
    rounds = result["rounds"]
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
