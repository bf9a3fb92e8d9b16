"""Check that two qmix checkouts print byte-identical output.

    python3 tools/same_output.py PARENT_ROOT CHANGE_ROOT

Each root is a source checkout; its qmix is run from ROOT/src.  The inputs
are made once, with perfbench/inputs.py of this checkout, in a temporary
directory that both runs read, so the paths that `batch` prints agree.  The
matrix of commands:

- `batch` over the atlas corpus (every atlas graph with 2-7 vertices) under
  each walk matrix, and once with `--jobs 2`;
- `batch` over the mid-size graph6 inputs (five graphs, 23-64 vertices)
  under each walk matrix;
- `certify` on each mid-size input under each walk matrix;
- `spectrum` on each mid-size input under each walk matrix;
- `spectrum` under each walk matrix on three edge lists that this tool
  writes (see `own_inputs`), `certify --matrix adjacency` on the first two
  and on a fourth, where only `degree-unicyclic-c4-A` rules out the hub,
  and `certify` under the adjacency matrix and the Laplacian on the third,
  whose eigenvalues are all simple, so the projector tables run at n = 256,
  and on a fifth, where the twin-subgraph search is cut inside its part
  size 2 block after a witness;
- `search` on each input of the search-small and search-large workloads,
  graph-wide and at the local vertex, with the benchmark's flags.

Every command whose stdout or exit code differs between the roots is
printed, and the exit status is 1 if any does, else 0.  Where both stdouts
parse as JSON (one document, or a sequence of them as `batch` prints), the
line also says whether they are equal apart from their floats, and gives
the largest float gap with the path of the value where it is, such as
`mixing.minima[0].time`, target-state phases compared modulo 2 pi, or else
the path of the first value that differs beyond floats.  Where the
documents hold verdicts (`certify` and `batch`), it also says whether every
`graph_ruled_out` and `surviving_vertices` value is equal, so a change that
moves only witnesses or rule ids shows as such.  None of that changes the
exit status.  Needs networkx, like the benchmark inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402
import networkx as nx  # noqa: E402

SEED = 1
VERDICT_KEYS = ("graph_ruled_out", "surviving_vertices")
MATRICES = ("adjacency", "laplacian", "signless")


def command_matrix(work: Path) -> list[list[str]]:
    atlas = inputs.generate(work, "atlas-batch", SEED)["atlas"]["dir"]
    midsize = inputs.generate(work, "analyze-midsize", SEED)["midsize"]
    argvs = [["batch", atlas, "--matrix", m] for m in MATRICES]
    argvs.append(["batch", atlas, "--jobs", "2"])
    argvs += [["batch", str(Path(midsize[0]["file"]).parent), "--matrix", m] for m in MATRICES]
    for item in midsize:
        argvs += [["certify", item["file"], "--matrix", m] for m in MATRICES]
        argvs += spectra(item["file"])
    dense, twinned, shared, hub, cut = own_inputs(work)
    for path in (dense, twinned):
        argvs += spectra(path) + [["certify", path, "--matrix", "adjacency"]]
    argvs += spectra(shared) + [["certify", shared, "--matrix", m] for m in MATRICES[:2]]
    argvs.append(["certify", hub, "--matrix", "adjacency"])
    argvs += [["certify", cut, "--matrix", m] for m in MATRICES[:2]]
    for workload in ("search-small", "search-large"):
        for item in inputs.generate(work, workload, SEED)["ladder"]:
            argvs.append(["search", item["file"], "--tmax", repr(item["tmax"])])
            if item["vertex"] is not None:
                argvs[-1] += ["--vertex", str(item["vertex"])]
    return argvs


def spectra(path: str) -> list[list[str]]:
    """`spectrum` on one input under each walk matrix, the adjacency matrix
    as the default."""
    return [["spectrum", path]] + [["spectrum", path, "--matrix", m] for m in MATRICES[1:]]


def own_inputs(work: Path) -> list[str]:
    """Five weighted edge lists written to work: K30,30 with a pendant
    triangle, dense and free of 5-cycles; a singular graph on 30 vertices
    with weights 1-3, a subdivided binary tree of depth 3 with a false twin
    of its root; G(256, 0.06) of networkx seed 7 with unit weights, at
    whose vertices every walk matrix has one eigenvalue support; C4
    with 12 unit pendants on vertex 0, whose hub only
    `degree-unicyclic-c4-A` rules out under the adjacency walk; and a graph
    on 60 vertices, more than the 55 from which the twin-subgraph search is
    cut inside part size 2, with a true pair {0, 1}, {2, 3} of two edges of
    weight 2 and a matching of weight 3, which comes before the cut, and a
    true twin triangle 4, 5, 6 of weight 2^53 + 1 on G(53, 0.1) of networkx
    seed 5, on vertices 7-59."""
    dense = nx.complete_bipartite_graph(30, 30)
    nx.add_cycle(dense, [60, 61, 62])
    dense.add_edge(0, 60)
    nx.set_edge_attributes(dense, 1, "weight")
    tree = nx.balanced_tree(2, 3)
    twinned = nx.Graph()
    for i, (u, v) in enumerate(sorted(tree.edges())):
        mid = tree.number_of_nodes() + i
        twinned.add_edge(u, mid, weight=1 + i % 3)
        twinned.add_edge(mid, v, weight=1 + (i + 1) % 3)
    twin = twinned.number_of_nodes()
    for v, data in list(twinned[0].items()):
        twinned.add_edge(twin, v, weight=data["weight"])
    shared = nx.gnp_random_graph(256, 0.06, seed=7)
    nx.set_edge_attributes(shared, 1, "weight")
    hub = nx.cycle_graph(4)
    hub.add_edges_from((0, v) for v in range(4, 16))
    nx.set_edge_attributes(hub, 1, "weight")
    cut = nx.relabel_nodes(nx.gnp_random_graph(53, 0.1, seed=5), lambda v: v + 7)
    nx.set_edge_attributes(cut, 1, "weight")
    for x, y, near in ((0, 2, (7, 9, 12, 20, 31)), (1, 3, (8, 9, 15, 40, 52))):
        cut.add_weighted_edges_from((u, v, 1) for v in near for u in (x, y))
    cut.add_weighted_edges_from([(0, 1, 2), (2, 3, 2), (0, 2, 3), (1, 3, 3)])
    cut.add_weighted_edges_from((u, v, 2 ** 53 + 1) for u, v in ((4, 5), (4, 6), (5, 6)))
    cut.add_weighted_edges_from((u, v, 1) for u in (4, 5, 6) for v in (10, 33))
    paths = []
    for name, g in (("k30-30-triangle", dense), ("twinned-tree-30", twinned),
                    ("gnp-256", shared), ("c4-hub-16", hub), ("cut-twins-60", cut)):
        path = work / f"{name}.wel"
        path.write_text("".join(f"{u} {v} {d['weight']}\n"
                                for u, v, d in sorted(g.edges(data=True))))
        paths.append(str(path))
    return paths


def run(root: Path, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "qmix.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def documents(out: bytes) -> list:
    """The JSON documents of one stdout, in order; ValueError if it holds
    anything else."""
    text, docs, pos = out.decode(), [], 0
    decoder = json.JSONDecoder()
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def float_gap(a, b, key: str = "") -> float | None:
    """The largest gap between the floats of two JSON values that are equal
    apart from their floats, or None where they differ otherwise."""
    found = largest_gap(a, b, key)
    return None if found is None else found[0]


def largest_gap(a, b, key: str = "", path: str = "") -> tuple[float, str] | None:
    """float_gap with the path, such as `mixing.minima[0].time`, of the
    first value at which the gap is largest.  key is the name of the field
    that holds the values; `target_state_phases` holds angles, whose gap is
    taken modulo 2 pi, so pi and -pi agree."""
    here = path or "(root)"
    if isinstance(a, bool) or isinstance(b, bool):
        return (0.0, here) if a is b else None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, float) or isinstance(b, float):
            gap = a - b
            if key == "target_state_phases":
                gap = math.remainder(gap, 2.0 * math.pi)
            return abs(gap), here
        return (0.0, here) if a == b else None
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return None
        gaps = [largest_gap(a[k], b[k], k, f"{path}.{k}" if path else k) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        gaps = [largest_gap(x, y, key, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (0.0, here) if a == b else None
    return None if None in gaps else max(gaps, key=lambda g: g[0], default=(0.0, here))


def first_difference(a, b, path: str = "") -> str | None:
    """The path, such as `certificates.graph_verdicts[7].rule`, of the first
    value at which two JSON values differ beyond their floats; None where
    float_gap gives a gap."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        pairs = ((f"{path}.{k}" if path else k, a[k], b[k]) for k in a)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b)))
    else:
        return None if float_gap(a, b) is not None else path or "(root)"
    return next(filter(None, (first_difference(x, y, p) for p, x, y in pairs)), None)


def verdict_values(doc) -> list[tuple[str, object]]:
    """Every (key, value) of a JSON value whose key is in VERDICT_KEYS, in
    document order."""
    if isinstance(doc, dict):
        return [kv for k, v in doc.items()
                for kv in ([(k, v)] if k in VERDICT_KEYS else verdict_values(v))]
    if isinstance(doc, list):
        return [kv for x in doc for kv in verdict_values(x)]
    return []


def compare_json(before: bytes, after: bytes) -> str:
    """How two differing stdouts compare as JSON; a document's path starts
    with its index where a stdout holds more than one.  Where either holds
    verdicts, it ends by saying whether they are all equal."""
    try:
        docs = documents(before), documents(after)
    except ValueError:
        return "not JSON"
    verdicts = [verdict_values(d) for d in docs]
    moved = ""
    if verdicts != [[], []]:
        moved = "; verdicts equal" if verdicts[0] == verdicts[1] else "; verdicts differ"
    if len(docs[0]) == len(docs[1]) == 1:
        docs = docs[0][0], docs[1][0]
    found = largest_gap(*docs)
    if found is not None:
        return f"equal apart from floats, largest gap {found[0]:.3g} at {found[1]}{moved}"
    return f"differs beyond floats at {first_difference(*docs)}{moved}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        argvs = command_matrix(Path(tmp))
        for cmd in argvs:
            before, after = run(parent, cmd), run(change, cmd)
            if before != after:
                differ += 1
                print(f"differs: qmix {' '.join(cmd)} (exit {before[0]} -> {after[0]}, "
                      f"{len(before[1])} -> {len(after[1])} bytes; "
                      f"{compare_json(before[1], after[1])})")
    print(f"{len(argvs) - differ} of {len(argvs)} commands byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
