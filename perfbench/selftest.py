"""Self-test of the benchmark's output checkers.

    python3 perfbench/selftest.py

Runs qmix on small inputs from each workload's generator, checks that each
checker accepts the genuine outputs, then corrupts one value at a time and
checks that the checker rejects it: a verified mixing instance marked ruled
out, a perturbed minimum, a moved detection and a wrong eigenvalue.  Exits 1
if a checker accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import networkx as nx

import checks
import inputs
import run


def outputs_of(manifest: dict, tmp: Path) -> dict:
    env = dict(run.os.environ, PYTHONPATH=str(run.SRC))
    rnd = run.Round()
    for label, argv, n_ops in run.commands(manifest):
        wall, _, code, out, err = run.run_process(
            [sys.executable, "-m", "qmix.cli", *argv], env, tmp)
        rnd.record(label, n_ops, wall, code, out, err)
    if rnd.failed:
        raise SystemExit("selftest: qmix failed on the self-test inputs")
    return rnd.outputs


def corrupt_verified(manifest, outputs):
    """Mark the K4 line of the batch ruled out."""
    lines = Path(manifest["atlas"]["file"]).read_text(encoding="utf-8").split()
    docs = checks.documents(outputs["batch"])
    for doc in docs[:-1]:
        g = nx.from_graph6_bytes(lines[doc["line"] - 1].encode())
        if g.number_of_nodes() == 4 and g.number_of_edges() == 6:
            doc["graph_ruled_out"] = True
            doc["surviving_vertices"] = []
    return {"batch": "\n".join(json.dumps(d) for d in docs)}


def corrupt_minimum(manifest, outputs):
    """Move the first reported minimum of a random graph's local search."""
    label = checks.op_label(manifest["ladder"][0])
    doc = json.loads(outputs[label])
    doc["mixing"]["minima"][0]["deviation"] += 1e-6
    return {**outputs, label: json.dumps(doc)}


def corrupt_detection(manifest, outputs):
    """Shift the detection on K1,3 by 1e-6 in time."""
    item = next(i for i in manifest["ladder"] if i.get("instance") == "K1,3")
    doc = json.loads(outputs[checks.op_label(item)])
    doc["mixing"]["detections"][0]["time"] += 1e-6
    return {**outputs, checks.op_label(item): json.dumps(doc)}


def corrupt_eigenvalue(manifest, outputs):
    """Raise the smallest eigenvalue of the first spectrum by 1e-3."""
    label = f"spectrum {manifest['midsize'][0]['name']}"
    doc = json.loads(outputs[label])
    doc["spectrum"]["distinct_eigenvalues"][0] += 1e-3
    return {**outputs, label: json.dumps(doc)}


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    failures = []
    try:
        cases = []
        m = {"atlas": inputs.make_atlas(tmp, seed=11, max_n=5)}
        cases.append(("atlas-batch", m, corrupt_verified, "verified mixing instance"))
        m = {"ladder": inputs.make_ladder(tmp, 12, ((8, 0.5, 4.0),), verified=True)}
        cases.append(("search-small", m, corrupt_minimum, "!= expm"))
        cases.append(("search-small", m, corrupt_detection, "detections"))
        m = {"midsize": [i for i in inputs.make_midsize(tmp, 13)
                         if i["kind"] in ("subdivided-tree", "hypercube", "real-weighted")
                         and i["n"] < 40]}
        cases.append(("analyze-midsize", m, corrupt_eigenvalue, "eigvalsh"))
        genuine = {}
        for workload, manifest, corrupt, phrase in cases:
            key = id(manifest)
            if key not in genuine:
                genuine[key] = outputs_of(manifest, tmp)
                errs = checks.CHECKERS[workload](manifest, genuine[key])
                print(f"{workload}: genuine outputs -> {errs or 'accepted'}")
                if errs:
                    failures.append(f"{workload} rejects genuine outputs")
            bad = corrupt(manifest, copy.deepcopy(genuine[key]))
            errs = checks.CHECKERS[workload](manifest, bad)
            hit = next((e for e in errs if phrase in e), None)
            print(f"{workload}: {corrupt.__doc__.strip()} -> "
                  f"{'rejected: ' + hit if hit else 'NOT REJECTED'}")
            if not hit:
                failures.append(f"{workload} accepts: {corrupt.__doc__.strip()}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for f in failures:
        print(f"selftest FAILED: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
