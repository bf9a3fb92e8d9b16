"""`search` and `spectrum` output on a fixed corpus against the committed
pin in tests/data/search_spectrum_pin.json.

Strings, integers and the document structure must be equal.  Floats are
compared by field: detection and minimum times within 1e-9, because the
refined time sits on the rounding plateau of the objective; target-state
phases within 1e-9 modulo 2 pi; every other float (deviations, eigenvalues,
period hints, overlaps) within 1e-12.

Run this file as a script to regenerate the pin after a deliberate change:
`PYTHONPATH=src python tests/test_search_spectrum_pin.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import networkx as nx

from qmix.cli import main

PIN = Path(__file__).parent / "data" / "search_spectrum_pin.json"


def _seeded_gnp(n: int, p: float, seed: int) -> nx.Graph:
    rnd = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p)
    return g


def _graphs() -> dict[str, nx.Graph]:
    return {
        "K2": nx.complete_graph(2),
        "K4": nx.complete_graph(4),
        "C4": nx.cycle_graph(4),
        "C5": nx.cycle_graph(5),
        "Q3": nx.convert_node_labels_to_integers(nx.hypercube_graph(3), ordering="sorted"),
        "K1,3": nx.star_graph(3),
        "P3": nx.path_graph(3),
        "G32": _seeded_gnp(32, 0.2, 32),
        "G20": _seeded_gnp(20, 0.3, 20),
    }


# (case name, graph, command and flags after the input file)
CASES = (
    ("search K2", "K2", ["search", "--tmax", "1.5"]),
    ("search K4", "K4", ["search", "--tmax", "1.5"]),
    ("search C4", "C4", ["search", "--tmax", "1.5"]),
    ("search Q3", "Q3", ["search", "--tmax", "1.5"]),
    ("search K1,3", "K1,3", ["search", "--tmax", "1.5"]),
    ("search P3 centre", "P3", ["search", "--vertex", "1", "--tmax", "1.2"]),
    ("search G32 vertex 0", "G32", ["search", "--vertex", "0", "--tmax", "4"]),
    ("search G32", "G32", ["search", "--tmax", "4"]),
    ("spectrum C5", "C5", ["spectrum"]),
    ("spectrum Q3", "Q3", ["spectrum"]),
    ("spectrum G20", "G20", ["spectrum"]),
)


def run_cases(directory: Path) -> dict:
    graphs = _graphs()
    out = {}
    for name, graph, argv in CASES:
        path = directory / f"{graph}.g6"
        g = graphs[graph]
        path.write_bytes(nx.to_graph6_bytes(g, nodes=range(g.number_of_nodes()), header=False))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([argv[0], str(path), *argv[1:]])
        assert code == 0, name
        out[name] = json.loads(buf.getvalue())
    return out


def _tolerance(key: str) -> float:
    return 1e-9 if key in ("time", "target_state_phases") else 1e-12


def assert_matches(got, want, path="", key=""):
    """Structure, strings and integers equal; floats by the field tolerance."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for k in want:
            assert_matches(got[k], want[k], f"{path}/{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, f"{path}[{i}]", key)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        diff = got - want
        if key == "target_state_phases":
            diff = math.remainder(diff, 2.0 * math.pi)
        assert abs(diff) <= _tolerance(key), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


def test_search_and_spectrum_match_pin(tmp_path):
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
