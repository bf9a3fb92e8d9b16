"""In-process tracing of qmix for the benchmark's per-layer run.

The tracer replaces public qmix functions by timing wrappers in every qmix
module that holds them, because callers look a function up in their own
module's namespace (`from .graphs import search_twin_subgraphs`).  Nothing
in src/ is edited, and `uninstall` puts every original back.

A span's self time is its duration minus the time of the spans it called.
Counters are read from arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, name, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _twin_search(c, fn, args, kwargs, res):
    c["graphs.twin_search_truncated"] += int(res.truncated)
    c["graphs.twin_witnesses"] += len(res.witnesses)


def _exact_kernel(c, fn, args, kwargs, res):
    c["spectral.kernel_dim"] += len(res)


def _signed_enum(c, fn, args, kwargs, res):
    dim = len(_arg(fn, "kernel_basis", args, kwargs))
    # above max_dim only the basis rows themselves are tried
    c["spectral.signed_combinations"] += 3 ** dim - 1 if dim <= _arg(
        fn, "max_dim", args, kwargs) else dim
    c["spectral.signed_vectors"] += len(res.vectors)


def _profile(c, fn, args, kwargs, res):
    c["walk.grid_points"] += len(res)


def _scan(c, fn, args, kwargs, res):
    c["search.detections"] += len(res.detections)


def _certify(c, fn, args, kwargs, res):
    if fn.__name__ == "certify_vertex":
        c["certificates.vertices_certified"] += 1
        return
    c["certificates.rules_fired"] += sum(v.fired for v in res.graph_verdicts) + sum(
        v.fired for _, vs in res.vertex_verdicts for v in vs)


def _render(c, fn, args, kwargs, res):
    if fn.__name__ == "render_json":
        c["report.bytes"] += len(res.encode("utf-8"))


# (span, defining module, functions, counter hook)
SPANS = (
    ("cli", "qmix.cli", ("main",), None),
    ("graphs.parse", "qmix.graphs", ("parse_graph6", "parse_weighted_edgelist"), None),
    ("graphs.twin_search", "qmix.graphs", ("search_twin_subgraphs",), _twin_search),
    ("spectral.decompose", "qmix.spectral", ("decompose_graph",), None),
    ("spectral.exact_kernel", "qmix.spectral", ("exact_kernel",), _exact_kernel),
    ("spectral.signed_enum", "qmix.spectral", ("signed_kernel_vectors",), _signed_enum),
    ("spectral.classify", "qmix.spectral", ("classify_spectrum",), None),
    ("periodicity.periodic_vertex", "qmix.periodicity", ("is_periodic_vertex",), None),
    ("walk.profile", "qmix.walk", ("deviation_profile",), _profile),
    ("walk.transition_matrix", "qmix.walk", ("transition_matrix",), None),
    ("walk.hadamard", "qmix.walk", ("hadamard_classify",), None),
    ("search.objective", "qmix.walk", ("mixing_deviation", "matrix_uniform_deviation"), None),
    ("search.golden_section", "qmix.search", ("golden_section",), None),
    ("search.scan", "qmix.search", ("scan_local", "scan_uniform"), _scan),
    ("certificates.facts", "qmix.certificates", ("collect_facts",), None),
    ("certificates.rules", "qmix.certificates", ("certify_graph", "certify_vertex"), _certify),
    ("report.render", "qmix.report", ("render_json", "report_header", "graph_summary",
                                      "spectrum_summary", "periodicity_summary",
                                      "certificate_report_dict", "mixing_report_dict"), _render),
)

# per-layer metric -> (span, field); field is "self_s", "calls" or a counter name
METRICS = {
    "graphs.parse_s": ("graphs.parse", "self_s"),
    "report.render_s": ("report.render", "self_s"),
    "report.bytes": (None, "report.bytes"),
    "cli.self_s": ("cli", "self_s"),
    "graphs.twin_search_s": ("graphs.twin_search", "self_s"),
    "graphs.twin_searches": ("graphs.twin_search", "calls"),
    "graphs.twin_search_truncated": (None, "graphs.twin_search_truncated"),
    "graphs.twin_witnesses": (None, "graphs.twin_witnesses"),
    "spectral.decompose_s": ("spectral.decompose", "self_s"),
    "spectral.decompose_calls": ("spectral.decompose", "calls"),
    "spectral.exact_kernel_s": ("spectral.exact_kernel", "self_s"),
    "spectral.kernel_dim": (None, "spectral.kernel_dim"),
    "spectral.signed_enum_s": ("spectral.signed_enum", "self_s"),
    "spectral.signed_enum_calls": ("spectral.signed_enum", "calls"),
    "spectral.signed_combinations": (None, "spectral.signed_combinations"),
    "spectral.signed_vectors": (None, "spectral.signed_vectors"),
    "spectral.classify_s": ("spectral.classify", "self_s"),
    "periodicity.periodic_vertex_s": ("periodicity.periodic_vertex", "self_s"),
    "periodicity.periodic_vertex_calls": ("periodicity.periodic_vertex", "calls"),
    "walk.profile_s": ("walk.profile", "self_s"),
    "walk.grid_points": (None, "walk.grid_points"),
    "walk.transition_matrix_s": ("walk.transition_matrix", "self_s"),
    "walk.transition_matrix_calls": ("walk.transition_matrix", "calls"),
    "walk.hadamard_s": ("walk.hadamard", "self_s"),
    "search.objective_evals": ("search.objective", "calls"),
    "search.golden_sections": ("search.golden_section", "calls"),
    "search.scan_self_s": ("search.scan", "self_s"),
    "search.detections": (None, "search.detections"),
    "certificates.facts_self_s": ("certificates.facts", "self_s"),
    "certificates.rules_self_s": ("certificates.rules", "self_s"),
    "certificates.vertices_certified": (None, "certificates.vertices_certified"),
    "certificates.rules_fired": (None, "certificates.rules_fired"),
}


class Tracer:
    """Span recorder over the qmix modules loaded in this process."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []

    def _wrap(self, span, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - self._stack.pop()
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qmix" or name.startswith("qmix.")]
        for span, home, names, hook in SPANS:
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(span, original, hook)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """This round's spans and the per-layer metrics read from them."""
        spans = {s: {"self_s": self.self_s[s], "calls": self.calls[s]}
                 for s in sorted(self.calls)}
        metrics = {}
        for name, (span, field) in METRICS.items():
            if span is None:
                metrics[name] = self.counts[field]
            elif field == "self_s":
                metrics[name] = self.self_s[span]
            else:
                metrics[name] = self.calls[span]
        return {"spans": spans, "counters": dict(self.counts), "metrics": metrics}
