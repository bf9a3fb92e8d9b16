"""`certify` output on a few atlas graphs, under every walk
matrix, against the committed pin in tests/data/certify_witness_pin.json.

The atlas batch pin records only fired rules and survivors.  This one holds
whole reports, so it also pins every witness: the signed kernel vector a
rule quotes under the adjacency walk, which of several qualifying vectors
comes first, and the canonical float vector that rules out the isolated and
small-component vertices of the disconnected graphs under L and Q, where no
exact kernel is built.  The graphs are chosen so that the pin holds each
route in ROUTES, and the test checks that it does.  The float route of
`eigenvector-inequality` runs first, so its exact route is pinned on a
graph where it alone decides.  Strings, integers and
the document structure must be equal; floats within 1e-12, as in
test_search_spectrum_pin.

Run this file as a script to regenerate the pin after a deliberate change:
`PYTHONPATH=src python tests/test_certify_witness_pin.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from qmix.cli import main

from test_search_spectrum_pin import assert_matches

PIN = Path(__file__).parent / "data" / "certify_witness_pin.json"

GRAPHS = {  # name: graph6, all from networkx.graph_atlas_g()
    "atlas-2": "A?",     # two isolated vertices
    "atlas-8": "C?",     # four isolated vertices
    "atlas-13": "CF",    # the star K1,3
    "atlas-29": "D?{",   # the star K1,4
    "atlas-67": "EJA?",  # an edge {0, 5}, a triangle {1, 2, 3} and the isolated vertex 4
    "atlas-173": "ElMg",  # ker A holds e_3 - e_5, and no canonical vector rules out 3 or 5
}
MATRICES = ("adjacency", "laplacian", "signless")

# (graph, matrix, rule, route): a fired vertex verdict the pin must hold
ROUTES = (
    ("atlas-173", "adjacency", "eigenvector-inequality", "exact-kernel"),
    ("atlas-8", "adjacency", "bipartite-kernel-square", "signed-vector-nnz"),
)


def run_cases(directory: Path) -> dict:
    out = {}
    for name, text in GRAPHS.items():
        path = directory / f"{name}.g6"
        path.write_text(text + "\n")
        for matrix in MATRICES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["certify", str(path), "--matrix", matrix])
            assert code == 0, (name, matrix)
            out[f"{name} {matrix}"] = json.loads(buf.getvalue())
    return out


def _fired_routes(doc: dict) -> set[tuple[str, str | None]]:
    return {(v["rule"], v["witness"].get("route"))
            for entry in doc["certificates"]["vertex_verdicts"]
            for v in entry["verdicts"] if v["verdict"] == "ruled-out"}


def test_pin_holds_every_route():
    pinned = json.loads(PIN.read_text())
    for graph, matrix, rule, route in ROUTES:
        assert (rule, route) in _fired_routes(pinned[f"{graph} {matrix}"]), (graph, matrix, rule)


def test_pin_holds_no_exact_kernel_route_under_the_laplacians():
    pinned = json.loads(PIN.read_text())
    for name, doc in pinned.items():
        if not name.endswith(" adjacency"):
            assert all(route != "exact-kernel" for _, route in _fired_routes(doc)), name


def test_certify_matches_witness_pin(tmp_path):
    pinned = json.loads(PIN.read_text())
    got = run_cases(tmp_path)
    assert list(got) == list(pinned)
    for name in pinned:
        assert_matches(got[name], pinned[name], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        docs = run_cases(Path(tmp))
    PIN.write_text(json.dumps(docs, indent=1) + "\n")
    print(f"wrote {len(docs)} cases to {PIN}", file=sys.stderr)
