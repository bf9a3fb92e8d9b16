"""The JSON comparison of tools/same_output.py, which reports whether two
differing stdouts are equal apart from their floats."""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from same_output import (compare_json, documents, first_difference, float_gap,  # noqa: E402
                         largest_gap, own_inputs, verdict_values)

from qmix import (MatrixKind, TwinKind, WeightClass, bipartition,  # noqa: E402
                  decompose_graph, exact_kernel, has_c5, is_connected,
                  parse_weighted_edgelist, search_twin_subgraphs, twin_classes,
                  vertex_support)


def test_documents_reads_one_document_or_a_sequence():
    assert documents(b'{"a": 1}\n') == [{"a": 1}]
    batch = b'{"file": "x", "line": 1}\n{"file": "x", "line": 2}\n{\n  "aggregate": {}\n}\n'
    assert documents(batch) == [{"file": "x", "line": 1}, {"file": "x", "line": 2},
                                {"aggregate": {}}]


def test_float_gap_separates_float_digits_from_real_differences():
    a = {"verdict": "ruled-out", "lhs": 2.23606797749979, "n": 5, "ok": True}
    assert float_gap(a, dict(a, lhs=2.236067977499789)) < 1e-14
    assert float_gap([1.0, 2], [1, 2]) == 0.0  # "1" renders as an int
    assert float_gap(a, dict(a, verdict="inconclusive")) is None
    assert float_gap(a, dict(a, n=6)) is None
    assert float_gap(a, dict(a, ok=1)) is None
    assert float_gap([1.0], [1.0, 2.0]) is None
    assert float_gap({"a": 1, "b": 2}, {"b": 2, "a": 1}) is None  # key order is output


def test_float_gap_takes_target_state_phases_modulo_two_pi():
    a = {"time": 1.0, "target_state_phases": [3.141592653589793, 0.5]}
    flipped = {"time": 1.0, "target_state_phases": [-3.1415926535897927, 0.5]}
    assert float_gap(a, flipped) < 1e-15
    assert float_gap({"time": math.pi}, {"time": -math.pi}) == 2 * math.pi  # not a phase
    assert float_gap(a, dict(a, target_state_phases=[3.0, 0.5])) == \
        3.141592653589793 - 3.0


def test_compare_json_reports_both_cases():
    assert compare_json(b'{"x": 0.5}', b'{"x": 0.5000000000000107}') == \
        "equal apart from floats, largest gap 1.07e-14 at x"
    assert compare_json(b'{"x": "a"}', b'{"x": "b"}') == "differs beyond floats at x"
    assert compare_json(b'{"x": 1}', b'not json') == "not JSON"


def test_compare_json_names_where_the_largest_float_gap_is():
    before = {"mixing": {"empirical_inf": 0.1, "minima": [{"time": 1.0, "deviation": 0.1}]}}
    after = {"mixing": {"empirical_inf": 0.1 + 1e-9,
                        "minima": [{"time": 1.0 + 2e-6, "deviation": 0.1 + 1e-9}]}}
    gap, path = largest_gap(before, after)
    assert path == "mixing.minima[0].time" and abs(gap - 2e-6) < 1e-12
    assert compare_json(*(json.dumps(d).encode() for d in (before, after))) == \
        "equal apart from floats, largest gap 2e-06 at mixing.minima[0].time"
    batch = b'{"t": 0.5}\n{"t": 0.25}\n'  # a sequence: the path starts with its index
    assert compare_json(batch, batch.replace(b"0.25", b"0.5")) == \
        "equal apart from floats, largest gap 0.25 at [1].t"
    assert largest_gap(before, before) == (0.0, "mixing.empirical_inf")  # the first of ties
    assert largest_gap(1.0, 1.5) == (0.5, "(root)")
    assert largest_gap({"a": 1}, {"a": 2}) is None


def test_compare_json_names_the_first_value_that_differs_beyond_floats():
    before = {"certificates": {"graph_verdicts": [{"rule": "a", "lhs": 1.0}] * 8}}
    after = {"certificates": {"graph_verdicts": [{"rule": "a", "lhs": 1.0 + 1e-15}] * 7
                              + [{"rule": "b", "lhs": 2.0}]}}
    assert first_difference(before, after) == "certificates.graph_verdicts[7].rule"
    assert first_difference(before, before) is None
    assert first_difference([1, {"a": 1}], [1, {"b": 1}]) == "[1]"  # the keys differ
    assert first_difference([1.0], [1.0, 2.0]) == "(root)"
    assert first_difference({"p": [0.5, "x"]}, {"p": [0.7, "y"]}) == "p[1]"
    batch = b'{"line": 1, "fired": ["a"]}\n{"line": 2, "fired": ["a"]}\n'
    assert compare_json(batch, batch.replace(b'2, "fired": ["a"]', b'2, "fired": ["c"]')) == \
        "differs beyond floats at [1].fired[0]"


def test_compare_json_says_whether_the_verdicts_moved():
    cert = {"certificates": {"graph_ruled_out": True, "surviving_vertices": [2],
                             "fired_rules": ["a", "b"]}}
    fewer = {"certificates": dict(cert["certificates"], fired_rules=["a"])}
    assert verdict_values(cert) == [("graph_ruled_out", True), ("surviving_vertices", [2])]
    dumps = [json.dumps(d).encode() for d in (cert, fewer)]
    assert compare_json(*dumps) == \
        "differs beyond floats at certificates.fired_rules; verdicts equal"
    moved = {"certificates": dict(fewer["certificates"], surviving_vertices=[])}
    assert compare_json(dumps[0], json.dumps(moved).encode()) == \
        "differs beyond floats at certificates.surviving_vertices; verdicts differ"
    # batch: one entry per line, then the aggregate, which holds no verdicts
    batch = b'{"line": 1, "graph_ruled_out": false, "surviving_vertices": [0, 1], ' \
            b'"fired_rules": []}\n{"aggregate": {"ruled_out": 0}}\n'
    assert compare_json(batch, batch.replace(b'"fired_rules": []', b'"fired_rules": ["x"]')) \
        == "differs beyond floats at [0].fired_rules; verdicts equal"
    assert compare_json(batch, batch.replace(b"false", b"true")).endswith("; verdicts differ")
    assert compare_json(batch, batch.replace(b"}\n{", b"}\n" + batch[:-1] + b"\n{")) \
        .endswith("; verdicts differ")  # one more entry
    assert compare_json(b'{"x": 0.5}', b'{"x": 0.25}') == \
        "equal apart from floats, largest gap 0.25 at x"  # no verdicts, nothing said of them


def test_own_inputs_are_the_graphs_described(tmp_path):
    dense, twinned, shared, hub, cut = (parse_weighted_edgelist(Path(p).read_text())
                                        for p in own_inputs(tmp_path))
    assert (dense.n, dense.edge_count) == (63, 904)
    assert not bipartition(dense).present and not has_c5(dense)
    assert twinned.n == 30 and {w for _, _, w in twinned.edges} == {1, 2, 3}
    assert exact_kernel(twinned)  # the false twin makes it singular
    assert (shared.n, shared.edge_count, shared.weight_class) == (256, 1974, WeightClass.UNIT)
    for kind in MatrixKind:  # every vertex has one support, of every eigenvalue
        dec = decompose_graph(shared, kind)
        assert {vertex_support(dec, u).indices for u in range(shared.n)} == \
            {tuple(range(len(dec.eigenvalues)))}
    assert (hub.n, hub.edge_count) == (16, 16)
    assert sorted(len(row) for row in hub.neighbourhoods) == [1] * 12 + [2] * 3 + [14]
    # the search is cut inside part size 2 (n >= 55), after the planted pair
    assert cut.n == 60 and is_connected(cut)
    search = search_twin_subgraphs(cut, a_max=2)
    assert search.truncated
    assert ((0, 1), (2, 3)) in [(w.g_vertices, w.h_vertices) for w in search.witnesses]
    assert twin_classes(cut) == [((4, 5, 6), TwinKind.TRUE)]
    assert cut.neighbourhoods[4][5] == 2 ** 53 + 1
