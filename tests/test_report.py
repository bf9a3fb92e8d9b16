from hypothesis import given, settings
from hypothesis import strategies as st

from qmix.report import render_json


def test_render_json_escapes_strings():
    text = 'q" b\\ n\n r\r t\t nul\x00 us\x1f del\x7f é \U0001f600 \ud800'
    expected = ('{\n  "k\\"\\u0001": "q\\" b\\\\ n\\n r\\r t\\t nul\\u0000 us\\u001f '
                'del\x7f é \U0001f600 \ud800"\n}')
    assert render_json({'k"\x01': text}) == expected


_LEAVES = (st.text() | st.integers() | st.booleans() | st.none()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.fractions() | st.complex_numbers(allow_nan=False,
                                                                allow_infinity=False))
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                       | st.tuples(inner, inner)
                       | st.dictionaries(st.text(max_size=5), inner, max_size=4),
                       max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_line_form_is_render_json_at_indent_0_on_one_line(obj):
    assert render_json(obj, 0, " ") == render_json(obj, indent=0).replace("\n", " ")


def test_line_form_of_a_batch_entry():
    entry = {"file": "a\nb\x08\x0c\u00e9.g6", "line": 3, "n": 4, "graph_ruled_out": True,
             "surviving_vertices": [], "fired_rules": ["twin-vertex", "connectivity"],
             "twin_search_truncated": False}
    assert render_json(entry, 0, " ") == (
        '{ "file": "a\\nb\\u0008\\u000c\u00e9.g6", "line": 3, "n": 4, '
        '"graph_ruled_out": true, "surviving_vertices": [], '
        '"fired_rules": [ "twin-vertex", "connectivity" ], "twin_search_truncated": false }')
