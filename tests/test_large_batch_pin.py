"""`batch`-style entries on seeded graphs with 17-36 vertices, under every
walk matrix, against the committed pin in tests/data/large_batch.jsonl.

The atlas pins stop at n = 7.  This corpus reaches the sizes where the
twin-subgraph search examines true pairs of part size 2 (n >= 17), where
fraction-free elimination decides the exact kernels that the spectrum
leaves open on larger matrices, and where square orders 25 and 36 let
`bipartite-kernel-square` rule out through signed kernel vectors.  It holds random trees, G(n, p) with unit
weights and with integer weights 1-3, random bipartite graphs at square n,
and planted true twin pairs.  Each entry holds the fields a `batch` line
prints, without `file` and `line`, tagged with its graph and matrix.

Run this file as a script to regenerate the pin after a deliberate verdict
change: `PYTHONPATH=src python tests/test_large_batch_pin.py`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from qmix import MatrixKind, WeightedGraph, certify_graph, decompose_graph

from conftest import planted_true_pair, random_tree

PIN = Path(__file__).parent / "data" / "large_batch.jsonl"
MATRICES = {"adjacency": MatrixKind.ADJACENCY, "laplacian": MatrixKind.LAPLACIAN,
            "signless": MatrixKind.SIGNLESS_LAPLACIAN}


def _gnp(rng, n, p, weights=(1,)):
    return WeightedGraph.build(n, [(u, v, int(rng.choice(weights)))
                                   for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < p])


def _bipartite(rng, n, p):
    """A random bipartite graph on n vertices with parts of random sizes
    and random labels; unequal parts make the adjacency matrix singular."""
    k = int(rng.integers(n // 4, n // 2 + 1))
    label = rng.permutation(n).tolist()
    return WeightedGraph.build(n, [(label[u], label[v], 1) for u in range(k)
                                   for v in range(k, n) if rng.random() < p])


def corpus(seed: int = 17):
    """(name, graph) for the 150 graphs of the pin, in a fixed order."""
    rng = np.random.default_rng(seed)
    for n in range(17, 37):
        yield f"tree-{n}", random_tree(rng, n)
        yield f"gnp-{n}", _gnp(rng, n, float(rng.choice((0.1, 0.2, 0.35))))
        yield f"gnp-w3-{n}", _gnp(rng, n, float(rng.choice((0.1, 0.2, 0.35))), (1, 2, 3))
        tree = random_tree(rng, n)
        yield f"tree-w3-{n}", WeightedGraph.build(
            n, [(u, v, int(rng.integers(1, 4))) for u, v, _ in tree.edges])
        yield f"planted-{n}", planted_true_pair(rng, n, (1,) if n % 2 else (1, 2, 3))[0]
    for n in (25, 36):
        for i in range(25):
            yield f"bipartite-{n}-{i}", _bipartite(rng, n, float(rng.choice((0.2, 0.3, 0.4))))


def entries() -> list[dict]:
    out = []
    for name, g in corpus():
        for matrix, kind in MATRICES.items():
            report = certify_graph(g, decompose_graph(g, kind), kind)
            out.append({
                "graph": name, "matrix": matrix, "n": g.n, "edge_count": g.edge_count,
                "graph_ruled_out": report.graph_ruled_out,
                "surviving_vertices": list(report.surviving_vertices),
                "fired_rules": list(report.fired_rule_ids),
                "twin_search_truncated": report.twin_search_truncated,
                "signed_enumeration_truncated": report.signed_enumeration_truncated,
            })
    return out


def test_corpus_reaches_the_routes_it_is_for():
    pinned = [json.loads(line) for line in PIN.read_text().splitlines()]
    assert len(pinned) == 3 * 150
    assert {e["n"] for e in pinned} == set(range(17, 37))
    square = [e for e in pinned if e["graph"].startswith("bipartite-") and
              e["matrix"] == "adjacency"]
    assert sum("bipartite-kernel-square" in e["fired_rules"] for e in square) >= 10
    assert sum("twin-subgraph" in e["fired_rules"] for e in pinned
               if e["matrix"] == "laplacian") >= 20


def test_batch_entries_match_the_large_pin():
    pinned = [json.loads(line) for line in PIN.read_text().splitlines()]
    got = entries()
    assert len(got) == len(pinned)
    for g, p in zip(got, pinned):
        assert g == p, (g["graph"], g["matrix"])


if __name__ == "__main__":
    rows = entries()
    PIN.write_text("".join(json.dumps(e) + "\n" for e in rows))
    print(f"wrote {len(rows)} entries to {PIN}", file=sys.stderr)
