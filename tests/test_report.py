from qmix.report import render_json


def test_render_json_escapes_strings():
    text = 'q" b\\ n\n r\r t\t nul\x00 us\x1f del\x7f é \U0001f600 \ud800'
    expected = ('{\n  "k\\"\\u0001": "q\\" b\\\\ n\\n r\\r t\\t nul\\u0000 us\\u001f '
                'del\x7f é \U0001f600 \ud800"\n}')
    assert render_json({'k"\x01': text}) == expected
