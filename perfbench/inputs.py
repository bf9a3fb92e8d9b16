"""Seeded input generation for the qmix benchmark.

Every input is made from the benchmark seed with networkx and the standard
library only; nothing is downloaded.  The same seed gives byte-identical
files.  Each graph is relabelled by a seeded permutation, so the checkers find
the verified instances by isomorphism and not by their position or labels.

The random graphs themselves are drawn once from a fixed generator (FIXED),
and only their labels depend on the seed.  qmix's work depends on the graph,
not its labels: a search at n = 128 costs about 0.45 s per refined minimum,
and different G(n, p) draws have from 0 to 7 minima.  Drawing per seed made
the run-to-run spread a property of the draws rather than of the program.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import networkx as nx

FIXED = 20260317  # generator seed of the random graphs; the benchmark seed relabels them

# Search ladder: (n, edge probability, --tmax).  The probabilities keep the
# spectral radius well under 39, so qmix's default grid step is 0.01 on every
# seed and the grid size does not depend on the seed.  qmix decomposes
# n <= 64 with its own Jacobi solver and n = 128 with LAPACK, so the ladder is
# split there into two workloads.
LADDER_SMALL = ((8, 0.5, 4.0), (32, 0.2, 4.0), (64, 0.1, 4.0))
LADDER_LARGE = ((128, 0.06, 2.0),)

# Verified mixing instances: (name, constructor, vertex or None, --tmax, mixing time).
# Each window holds exactly one mixing time, given in closed form.
_P3_TIME = math.atan(math.sqrt(2.0)) / math.sqrt(2.0)
VERIFIED = (
    ("K2", lambda: nx.complete_graph(2), None, 1.5, math.pi / 4),
    ("K4", lambda: nx.complete_graph(4), None, 1.5, math.pi / 4),
    ("C4", lambda: nx.cycle_graph(4), None, 1.5, math.pi / 4),
    ("Q3", lambda: nx.hypercube_graph(3), None, 1.5, math.pi / 4),
    ("K1,3", lambda: nx.star_graph(3), None, 1.5, 2 * math.pi / (3 * math.sqrt(3))),
    ("P3", lambda: nx.path_graph(3), 1, 1.2, _P3_TIME),
)


def relabel(g: nx.Graph, rng: random.Random) -> tuple[nx.Graph, dict]:
    """Copy of g on vertices 0..n-1 under a random permutation; returns the
    copy and the map from g's vertices to the new labels."""
    nodes = list(g.nodes())
    perm = list(range(len(nodes)))
    rng.shuffle(perm)
    mapping = {v: perm[i] for i, v in enumerate(nodes)}
    h = nx.Graph()
    h.add_nodes_from(range(len(nodes)))
    for u, v, data in g.edges(data=True):
        h.add_edge(mapping[u], mapping[v], **data)
    return h, mapping


def graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, nodes=range(g.number_of_nodes()),
                              header=False).decode().strip()


def connected_gnp(n: int, p: float, rng: random.Random) -> nx.Graph:
    while True:
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2 ** 32))
        if nx.is_connected(g):
            return g


def random_tree(m: int, rng: random.Random) -> nx.Graph:
    prufer = [rng.randrange(m) for _ in range(m - 2)]
    return nx.from_prufer_sequence(prufer)


def subdivided(g: nx.Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    nxt = max(g.nodes()) + 1
    for u, v in g.edges():
        h.add_edge(u, nxt)
        h.add_edge(nxt, v)
        nxt += 1
    return h


def comb(spine: int, teeth: int) -> nx.Graph:
    """A path on `spine` vertices with `teeth` leaves on each: a tree whose
    adjacency kernel has dimension spine * (teeth - 1)."""
    g = nx.path_graph(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(teeth):
            g.add_edge(s, nxt)
            nxt += 1
    return g


def _write_wel(path: Path, g: nx.Graph, fmt) -> None:
    lines = [f"# {g.number_of_nodes()} vertices, weighted edge list"]
    lines += [f"{u} {v} {fmt(d['weight'])}" for u, v, d in sorted(g.edges(data=True))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_g6(path: Path, g: nx.Graph) -> None:
    path.write_text(graph6(g) + "\n", encoding="utf-8")


def make_atlas(root: Path, seed: int, max_n: int = 7) -> dict:
    """Every networkx atlas graph with 2 <= n <= max_n (1251 graphs for the
    whole atlas), relabelled and shuffled by the seed, as one graph6 file."""
    rng = random.Random(seed)
    graphs = [g for g in nx.graph_atlas_g() if 2 <= g.number_of_nodes() <= max_n]
    lines = [graph6(relabel(g, rng)[0]) for g in graphs]
    rng.shuffle(lines)
    corpus = root / "atlas"
    corpus.mkdir(parents=True, exist_ok=True)
    (corpus / "atlas.g6").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"dir": str(corpus), "file": str(corpus / "atlas.g6"), "lines": len(lines)}


def make_ladder(root: Path, seed: int, ladder, verified: bool) -> list[dict]:
    """Fixed connected random graphs from the ladder, each searched at (the
    image of) vertex 0 and graph-wide, then (if asked) the verified mixing
    instances."""
    rng = random.Random(seed * 7919 + len(ladder))
    out = []
    for n, p, tmax in ladder:
        g, mapping = relabel(connected_gnp(n, p, random.Random(FIXED + n)), rng)
        path = root / f"gnp{n}.g6"
        _write_g6(path, g)
        for vertex in (mapping[0], None):
            out.append({"file": str(path), "n": n, "vertex": vertex, "tmax": tmax})
    for name, build, vertex, tmax, t_mix in VERIFIED if verified else ():
        g, mapping = relabel(build(), rng)
        path = root / f"{name.replace(',', '_')}.g6"
        _write_g6(path, g)
        out.append({"file": str(path), "n": g.number_of_nodes(),
                    "vertex": None if vertex is None else mapping[vertex],
                    "tmax": tmax, "instance": name,
                    "mixing_time": t_mix})
    return out


def make_midsize(root: Path, seed: int) -> list[dict]:
    """Mid-size graphs for spectrum and certify: subdivided random trees,
    random graphs that reach the twin-search budget, a hypercube, a comb
    with an 11-dimensional adjacency kernel and two weighted edge lists."""
    rng = random.Random(seed * 104729 + 2)
    fixed = random.Random(FIXED)
    items = []

    def add(name, g, kind, fmt=None):
        g, _ = relabel(g, rng)
        if fmt is None:
            path = root / f"{name}.g6"
            _write_g6(path, g)
        else:
            path = root / f"{name}.wel"
            _write_wel(path, g, fmt)
        items.append({"file": str(path), "name": name, "kind": kind,
                      "n": g.number_of_nodes()})

    for m in (12, 18):
        add(f"subdiv-tree-{2 * m - 1}", subdivided(random_tree(m, fixed)), "subdivided-tree")
    add("gnp-64", connected_gnp(64, 0.15, fixed), "random-budget")
    add("hypercube-Q5", nx.hypercube_graph(5), "hypercube")
    add("comb-33", comb(11, 2), "comb")
    wg = connected_gnp(24, 0.25, fixed)
    for u, v in wg.edges():
        wg[u][v]["weight"] = fixed.randint(1, 3)
    add("int-weighted-24", wg, "int-weighted", fmt=str)
    rg = random_tree(20, fixed)
    for u, v in rg.edges():
        rg[u][v]["weight"] = round(fixed.uniform(0.5, 2.0), 6)
    add("real-weighted-20", rg, "real-weighted", fmt=repr)
    return items


def generate(workdir: Path, workload: str, seed: int) -> dict:
    """Write the inputs of one workload under workdir and return a manifest
    that the runner and the checkers share."""
    root = workdir / "inputs" / workload
    root.mkdir(parents=True, exist_ok=True)
    if workload == "atlas-batch":
        manifest = {"atlas": make_atlas(root, seed)}
    elif workload == "search-small":
        manifest = {"ladder": make_ladder(root, seed, LADDER_SMALL, verified=True)}
    elif workload == "search-large":
        manifest = {"ladder": make_ladder(root, seed, LADDER_LARGE, verified=False)}
    elif workload == "analyze-midsize":
        manifest = {"midsize": make_midsize(root, seed)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
