"""Output checkers for the qmix benchmark, one per workload.

They import nothing from qmix.  Every expected value is recomputed with
networkx, numpy and scipy from the input files, or is a property that the
paper's method must have.  Each checker returns a list of error strings; an
empty list means the outputs passed.  A command that failed has no output
and is skipped: failures are counted apart from correctness.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.linalg

MIX_SET = {"K2": nx.complete_graph(2), "K3": nx.complete_graph(3), "K4": nx.complete_graph(4),
           "C4": nx.cycle_graph(4), "K1,3": nx.star_graph(3), "C5": nx.cycle_graph(5)}
EIG_SLACK = 1e-9   # float disagreement allowed on top of qmix's own safety margin


def documents(text: str) -> list:
    """Every JSON document in a stream, in order."""
    dec = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


def load_graph(path: str) -> nx.Graph:
    """The input file as a networkx graph on 0..n-1, weights in 'weight'."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".g6":
        return nx.from_graph6_bytes(text.split()[0].encode())
    g = nx.Graph()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            g.add_edge(int(line[0]), int(line[1]), weight=float(line[2]))
    g.add_nodes_from(range(max(g.nodes()) + 1))
    return g


def walk_matrix(g: nx.Graph, matrix: str) -> np.ndarray:
    a = nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), weight="weight")
    return a if matrix == "adjacency" else np.diag(a.sum(axis=1)) - a  # Laplacian


def twin_vertices(g: nx.Graph) -> set:
    """Vertices with a twin: equal weighted neighbourhoods off the pair."""
    a = nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), weight="weight")
    out = set()
    for u in range(len(a)):
        for v in range(u + 1, len(a)):
            ru, rv = a[u].copy(), a[v].copy()
            ru[[u, v]] = 0.0
            rv[[u, v]] = 0.0
            if np.array_equal(ru, rv):
                out.update((u, v))
    return out


def eigvec_breakers(m: np.ndarray, margin: float) -> set:
    """Vertices u with a canonical eigenvector E_lambda e_u that breaks
    sqrt(n)|v_u| <= sum_j |v_j| by more than margin."""
    n = len(m)
    w, v = np.linalg.eigh(m)
    gap = 1e-8 * max(1.0, float(np.abs(w).max()))
    groups, start = [], 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > gap:
            groups.append(v[:, start:i])
            start = i
    out = set()
    for block in groups:
        proj = block @ block.T
        norms = np.linalg.norm(proj, axis=0)
        for u in range(n):
            if norms[u] <= 1e-8:
                continue
            vec = proj[:, u] / norms[u]
            if math.sqrt(n) * abs(vec[u]) - np.abs(vec).sum() > margin + EIG_SLACK:
                out.add(u)
    return out


def mixing_instance(g: nx.Graph) -> str | None:
    """Name of the verified mixing instance isomorphic to g, if any."""
    for name, h in MIX_SET.items():
        if g.number_of_nodes() == h.number_of_nodes() \
                and g.number_of_edges() == h.number_of_edges() and nx.is_isomorphic(g, h):
            return name
    return None


def certificate_errors(tag: str, g: nx.Graph, matrix: str, cert: dict, tol: dict) -> list:
    """Properties every certify or batch result must have."""
    errs = []
    n = g.number_of_nodes()
    surv = set(cert["surviving_vertices"])
    if not surv <= set(range(n)):
        errs.append(f"{tag}: survivors outside 0..{n - 1}")
    if len(surv) < n and not cert["graph_ruled_out"]:
        errs.append(f"{tag}: {n - len(surv)} vertices ruled out but graph_ruled_out is false")
    if not nx.is_connected(g):
        if surv or not cert["graph_ruled_out"] or "connectivity" not in cert["fired_rules"]:
            errs.append(f"{tag}: disconnected graph not ruled out by connectivity")
    twinned = surv & twin_vertices(g) if n >= 5 else set()
    if twinned:
        errs.append(f"{tag}: vertices with a twin survive: {sorted(twinned)}")
    margin = tol["safety_scale"] * math.sqrt(n)
    bad = surv & eigvec_breakers(walk_matrix(g, matrix), margin)
    if bad:
        errs.append(f"{tag}: survivors break the eigenvector inequality: {sorted(bad)}")
    name = mixing_instance(g) if matrix == "adjacency" else None
    if name and (cert["graph_ruled_out"] or surv != set(range(n))):
        errs.append(f"{tag}: verified mixing instance {name} ruled out")
    return errs


# ---------------------------------------------------------------------------
# atlas-batch

def check_atlas(manifest: dict, outputs: dict) -> list:
    if "batch" not in outputs:
        return []
    docs = documents(outputs["batch"])
    entries, agg = docs[:-1], docs[-1].get("aggregate", {})
    lines = Path(manifest["atlas"]["file"]).read_text(encoding="utf-8").split()
    errs = []
    if sorted(e.get("line", -1) for e in entries) != list(range(1, len(lines) + 1)):
        errs.append("batch: entries do not cover every input line exactly once")
        return errs
    tol = {"safety_scale": 1e-6}
    found = Counter()
    rule_counts = Counter()
    for e in entries:
        tag = f"batch line {e['line']}"
        if "error" in e:
            continue
        g = nx.from_graph6_bytes(lines[e["line"] - 1].encode())
        if e["n"] != g.number_of_nodes() or e["edge_count"] != g.number_of_edges():
            errs.append(f"{tag}: n/edge_count {e['n']}/{e['edge_count']} != networkx "
                        f"{g.number_of_nodes()}/{g.number_of_edges()}")
            continue
        errs += certificate_errors(tag, g, "adjacency", e, tol)
        found[mixing_instance(g)] += 1
        rule_counts.update(e["fired_rules"])
    missing = [k for k in MIX_SET if found[k] != 1]
    if missing:
        errs.append(f"batch: verified instances not found exactly once: {missing}")
    ok = [e for e in entries if "error" not in e]
    ruled = sum(1 for e in ok if e["graph_ruled_out"])
    want = {"graphs": len(entries), "errors": len(entries) - len(ok), "ruled_out": ruled,
            "survivors": len(ok) - ruled, "rule_counts": dict(sorted(rule_counts.items()))}
    if agg != want:
        errs.append(f"batch: aggregate {agg} != counts over the entries {want}")
    return errs


# ---------------------------------------------------------------------------
# search-small / search-large

def deviation_expm(a: np.ndarray, t: float, vertex) -> float:
    u = scipy.linalg.expm(1j * t * a)
    prob = np.abs(u) ** 2 - 1.0 / len(a)
    cols = np.sqrt((prob ** 2).sum(axis=0))
    return float(cols[vertex] if vertex is not None else cols.max())


def grid_min(a: np.ndarray, t_max: float, vertex, points: int = 41) -> float:
    w, v = np.linalg.eigh(a)
    best = math.inf
    for t in np.linspace(0.0, t_max, points):
        u = (v * np.exp(1j * t * w)) @ v.T
        prob = np.abs(u) ** 2 - 1.0 / len(a)
        cols = np.sqrt((prob ** 2).sum(axis=0))
        best = min(best, float(cols[vertex] if vertex is not None else cols.max()))
    return best


def check_search(manifest: dict, outputs: dict) -> list:
    errs = []
    for item in manifest["ladder"]:
        tag = f"search {Path(item['file']).name} vertex={item['vertex']}"
        if op_label(item) not in outputs:
            continue
        mix = json.loads(outputs[op_label(item)])["mixing"]
        a = walk_matrix(load_graph(item["file"]), "adjacency")
        want_target = {"kind": "graph" if item["vertex"] is None else "vertex",
                       "vertex": item["vertex"]}
        if mix["target"] != want_target:
            errs.append(f"{tag}: target {mix['target']} != {want_target}")
        for m in mix["minima"] + mix["detections"]:
            ref = deviation_expm(a, m["time"], item["vertex"])
            if abs(ref - m["deviation"]) > 1e-9:
                errs.append(f"{tag}: deviation {m['deviation']:.3e} at t={m['time']:.12f} "
                            f"!= expm {ref:.3e}")
        inf = mix["empirical_inf"]
        if any(inf > m["deviation"] for m in mix["minima"]):
            errs.append(f"{tag}: empirical_inf {inf} exceeds a reported minimum")
        own = grid_min(a, mix["t_max"], item["vertex"])
        if inf > own + 1e-9:
            errs.append(f"{tag}: empirical_inf {inf} exceeds the checker's grid minimum {own}")
        if "mixing_time" in item:
            dets = mix["detections"]
            if not dets or any(abs(d["time"] - item["mixing_time"]) > 1e-8
                               or d["deviation"] >= 1e-8 for d in dets):
                errs.append(f"{tag}: {item['instance']} detections "
                            f"{[(d['time'], d['deviation']) for d in dets]} != "
                            f"one at t={item['mixing_time']:.12f}")
    return errs


def op_label(item: dict) -> str:
    v = "graph" if item["vertex"] is None else f"v{item['vertex']}"
    return f"search {Path(item['file']).name} {v}"


# ---------------------------------------------------------------------------
# analyze-midsize

def twin_candidates(n: int) -> int:
    """Subset pairs the twin-subgraph search must examine for part sizes 1, 2."""
    return math.comb(n, 2) + math.comb(n, 2) * math.comb(n - 2, 2) // 2


def check_midsize(manifest: dict, outputs: dict) -> list:
    errs = []
    for item in manifest["midsize"]:
        name = item["name"]
        g = load_graph(item["file"])
        n = g.number_of_nodes()
        weights = {d.get("weight", 1) for _, _, d in g.edges(data=True)}
        unit = weights == {1} or weights == {1.0}
        integral = all(float(w).is_integer() for w in weights)

        tags = [f"spectrum {name}"] + [f"certify {name} {m}" for m in ("adjacency", "laplacian")]
        if any(t not in outputs for t in tags):
            continue
        doc = json.loads(outputs[tags[0]])
        summ = doc["graph"]
        if summ["n"] != n or summ["edge_count"] != g.number_of_edges() \
                or summ["connected"] != nx.is_connected(g):
            errs.append(f"spectrum {name}: graph summary disagrees with networkx")
        a = walk_matrix(g, "adjacency")
        spec = doc["spectrum"]
        got = np.repeat(spec["distinct_eigenvalues"], spec["multiplicities"])
        ref = np.linalg.eigvalsh(a)
        scale = 1e-7 * max(1.0, float(np.abs(ref).max()))
        if got.shape != ref.shape or np.abs(np.sort(got) - ref).max() > scale:
            errs.append(f"spectrum {name}: eigenvalues with multiplicities != eigvalsh")
        hints = {}
        for p in doc["periodicity"]:
            if p["status"] == "periodic":
                t = p["period_hint"]
                if t not in hints:
                    hints[t] = scipy.linalg.expm(1j * t * a)
                if abs(hints[t][p["vertex"], p["vertex"]]) <= 1 - 1e-8:
                    errs.append(f"spectrum {name}: vertex {p['vertex']} is not periodic "
                                f"at its hint {t}")
        if item["kind"] == "hypercube" and any(p["status"] != "periodic"
                                               for p in doc["periodicity"]):
            errs.append(f"spectrum {name}: hypercube vertex not reported periodic")

        for matrix in ("adjacency", "laplacian"):
            tag = f"certify {name} {matrix}"
            doc = json.loads(outputs[tag])
            cert = doc["certificates"]
            tol = doc["tolerances"]
            errs += certificate_errors(tag, g, matrix, cert, tol)
            if item["kind"] == "subdivided-tree" and matrix == "adjacency":
                if not cert["graph_ruled_out"] or "bipartite-order-mod4" not in cert["fired_rules"]:
                    errs.append(f"{tag}: subdivided tree not ruled out by bipartite-order-mod4")
            if matrix == "laplacian" and unit:
                bound = 4 * g.number_of_edges() / n
                big = {u for u in cert["surviving_vertices"] if g.degree(u) > bound}
                if big:
                    errs.append(f"{tag}: survivors with degree above 4|E|/n: {sorted(big)}")
            cut = twin_candidates(n) > tol["subset_budget"]
            if cert["twin_search_truncated"] != cut:
                errs.append(f"{tag}: twin_search_truncated={cert['twin_search_truncated']}, "
                            f"but the search has {twin_candidates(n)} candidates")
            if integral:
                dim = n - np.linalg.matrix_rank(walk_matrix(g, matrix))
                if cert["signed_enumeration_truncated"] != (dim > tol["signed_budget"]):
                    errs.append(f"{tag}: signed_enumeration_truncated disagrees with "
                                f"kernel dimension {dim}")
    return errs


CHECKERS = {"atlas-batch": check_atlas, "search-small": check_search,
            "search-large": check_search, "analyze-midsize": check_midsize}
