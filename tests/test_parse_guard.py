"""The fast paths of the parsers and what they must decline.

The int64 fast path of parse_instance:

A table takes numpy's int64 inference only when every cell is exactly an
int; every other cell kind (bools, floats, ints past int64, strings, null,
lists, objects) sends the table down the cell-by-cell path as before.  Each
document below changes one cell of an all-int instance; the expected exit
codes and stderr lines are the ones the cell-by-cell parser printed before
the fast path existed, and the same errors must come from
instance_from_dict and from the text passed as UTF-16 bytes.  Documents
that parse are compared with the Instance constructor.

The decoder of parse_instance and parse_partial_matrix: for every document
below, and every input type, each parser must give what json.loads and the
same builder give, the same arrays or the same exception and message.  The
reference is the parser with its orjson decode switched off, which leaves
json.loads; for an instance, instance_from_dict(json.loads(text)) too."""

import contextlib
import io
import json
import operator
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import zfree.instance
from zfree import (Instance, ParseError, instance_from_dict, parse_instance,
                   parse_partial_matrix)
from zfree.cli import main

BASE = {"r": 3, "domains": [2, 2, 3],
        "unary": [[0, 1], [2, 0], [1, 0, 3]],
        "binary": [{"i": 1, "j": 2, "table": [[0, 1], [1, 1]]},
                   {"i": 1, "j": 3, "table": [[0, 1, 1], [1, 2, 1]]},
                   {"i": 2, "j": 3, "table": [[1, 1, 1], [1, 1, 2]]}]}

_TABLE = "[[0, 1, 1], [1, 2, 1]]"
_UNARY = '"unary": [[0, 1], [2, 0], [1, 0, 3]]'
_CELL = "error: binary[1].table[2][2]: "
_KIND = "expected int, 'p/q', or 'inf', got "


def _with_cell(cell: str) -> str:
    """BASE as text with cell (JSON text) as cell (2, 2) of table (1, 3)."""
    return json.dumps(BASE).replace(_TABLE, f"[[0, 1, 1], [1, {cell}, 1]]")


def _with_unary(rows: str) -> str:
    return json.dumps(BASE).replace(_UNARY, f'"unary": {rows}')


# (label, document, stderr of solve --json, which exits 1 on each)
REJECTED = [
    ("true", _with_cell("true"), f"{_CELL}booleans are not values\n"),
    ("false", _with_cell("false"), f"{_CELL}booleans are not values\n"),
    ("1.0", _with_cell("1.0"),
     f"{_CELL}floats are not exact; write integers, 'p/q', or 'inf'\n"),
    ("1.5", _with_cell("1.5"),
     f"{_CELL}floats are not exact; write integers, 'p/q', or 'inf'\n"),
    ("-2**63-1", _with_cell(str(-2**63 - 1)),
     f"{_CELL}negative value {-2**63 - 1}\n"),
    ("-2**63", _with_cell(str(-2**63)), f"{_CELL}negative value {-2**63}\n"),
    ("[1]", _with_cell("[1]"), f"{_CELL}{_KIND}list\n"),
    ("null", _with_cell("null"), f"{_CELL}{_KIND}NoneType\n"),
    ("{}", _with_cell("{}"), f"{_CELL}{_KIND}dict\n"),
    ('"true"', _with_cell('"true"'),
     f"{_CELL}malformed value string 'true'; expected 'p/q' or 'inf'\n"),
    ("every cell [1]",
     json.dumps(BASE).replace(_TABLE, "[[[0], [1], [1]], [[1], [2], [1]]]"),
     f"error: binary[1].table[1][1]: {_KIND}list\n"),
    ("unary bool after a bad row", _with_unary("[[0, 1], [2], [true, 0, 3]]"),
     "error: unary row 2 must list 2 values\n"),
    ("unary bad string before a bool", _with_unary('[[0, "x"], [true, 0], [1, 0, 3]]'),
     "error: unary[1][2]: malformed value string 'x'; expected 'p/q' or 'inf'\n"),
    ("unary bool", _with_unary("[[0, 1], [2, 0], [false, 0, 3]]"),
     "error: unary[3][1]: booleans are not values\n"),
    ("unary inf", _with_unary('[[0, 1], [2, 0], [1, "inf", 3]]'),
     "error: unary[3][2]: unary costs must be finite\n"),
]

ACCEPTED = [
    ("2**63", _with_cell(str(2**63)), 2**63),
    ('"inf"', _with_cell('"inf"'), "inf"),
    ('"3"', _with_cell('"3"'), "3"),
    ("unchanged", json.dumps(BASE), 2),
]


def _solve(tmp_path, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--json", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("label, text, stderr", REJECTED, ids=[c[0] for c in REJECTED])
def test_a_defect_declines_the_fast_path_with_the_same_error(tmp_path, label, text,
                                                            stderr):
    assert _solve(tmp_path, text) == (1, "", stderr)
    for parse in (lambda: instance_from_dict(json.loads(text)),
                  lambda: parse_instance(text.encode("utf-16"))):
        with pytest.raises(ParseError) as exc:
            parse()
        assert f"error: {exc.value}\n" == stderr


@pytest.mark.parametrize("label, text, cell", ACCEPTED, ids=[c[0] for c in ACCEPTED])
def test_a_parsed_document_matches_the_constructor(tmp_path, label, text, cell):
    tables = {(e["i"] - 1, e["j"] - 1): e["table"] for e in BASE["binary"]}
    tables[(0, 2)] = [[0, 1, 1], [1, cell, 1]]
    built = Instance(BASE["domains"], BASE["unary"], tables)
    for inst in (parse_instance(text), instance_from_dict(json.loads(text))):
        assert np.array_equal(inst.ranks, built.ranks)
        assert inst.pool == built.pool
        assert [type(v.raw) for v in inst.pool] == [type(v.raw) for v in built.pool]
        assert inst.unary == built.unary
    code, out, err = _solve(tmp_path, text)
    assert code in (0, 2) and err == ""


@pytest.mark.parametrize("cell, message", [
    (True, "booleans are not values"),
    (np.int64(1), f"{_KIND}int64"),
])
def test_the_api_checks_every_int_cell_type(cell, message):
    # numpy infers int64 for both cells, so the dtype alone is not trusted.
    doc = json.loads(json.dumps(BASE))
    doc["binary"][1]["table"][1][1] = cell
    with pytest.raises(ParseError, match=r"^binary\[1\]\.table\[2\]\[2\]: ") as exc:
        instance_from_dict(doc)
    assert str(exc.value).endswith(message)
    doc = json.loads(json.dumps(BASE))
    doc["unary"][2][0] = cell
    with pytest.raises(ParseError, match=r"^unary\[3\]\[1\]: ") as exc:
        instance_from_dict(doc)
    assert str(exc.value).endswith(message)


def test_a_long_string_cell_is_not_widened_across_its_table():
    # One space-padded "inf" of 4000 characters in a 60 x 60 table of ints.
    # Had the table gone to numpy before its cell types were read, numpy
    # would have stored every cell as 4000-character text: 57 MB.
    table = [[1] * 60 for _ in range(60)]
    table[59][59] = " " * 3997 + "inf"
    doc = {"r": 2, "domains": [60, 60], "unary": [[0] * 60, [0] * 60],
           "binary": [{"i": 1, "j": 2, "table": table}]}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert [format(v) for v in inst.pool] == ["1", "inf"]
    built = Instance([60, 60], doc["unary"], {(0, 1): table})
    assert np.array_equal(inst.ranks, built.ranks) and inst.pool == built.pool


# ---------------------------------------------------------------------------
# The int-text screen: a document orjson decodes whose text holds no number
# but integer tokens, and no true, false or null, has its tables checked
# for int cells by their sums instead of by each cell's type.

_UNARY_HALVES = '"unary": [[0, "1/2"], [2, 0], ["1/2", 0, 3]]'
# (cell, whether the text passes the screen)
SCREENED_CELLS = [("true", False), ("false", False), ("null", False), ("1.0", False),
                  ("1e2", False), ("1E2", False), ("-0", True), (str(2**64), True),
                  ('"5"', True), ('"inf"', True)]


def _screen_texts(cell: str) -> list:
    """The document with cell, as is and beside unary "1/2" strings."""
    text = _with_cell(cell)
    return [text, text.replace(_UNARY, _UNARY_HALVES)]


@pytest.mark.parametrize("cell, screened", SCREENED_CELLS, ids=[c[0] for c in SCREENED_CELLS])
def test_the_screen_gives_what_json_loads_gives(cell, screened):
    for text in _screen_texts(cell):
        assert zfree.instance._int_text(text) is screened
        got = _outcome(parse_instance, text)
        assert got == _outcome(instance_from_dict, json.loads(text))
        for data in (text.encode(), bytearray(text.encode())):
            assert zfree.instance._int_text(data) is screened
            assert _outcome(parse_instance, data) == got


def test_int_tables_of_a_screened_document_skip_the_type_count(monkeypatch):
    counted = []
    monkeypatch.setattr(zfree.instance, "countOf",
                        lambda cells, kind: counted.append(kind) or operator.countOf(cells, kind))
    half_cell = json.dumps(BASE).replace(_TABLE, '[[0, 1, 1], [1, "1/2", 1]]')
    for text in (json.dumps(BASE), json.dumps(BASE).replace(_UNARY, _UNARY_HALVES),
                 half_cell, half_cell.replace(_UNARY, _UNARY_HALVES)):
        assert zfree.instance._int_text(text)
        inst = parse_instance(text)
        assert counted == []
        assert _outcome(lambda t: inst, text) == _outcome(instance_from_dict, json.loads(text))
        assert counted == [int] * len(BASE["binary"])
        counted.clear()


def test_the_api_still_refuses_a_true_cell():
    # True sums as 1, so only a screened text may take a table's sum.
    doc = json.loads(json.dumps(BASE))
    doc["binary"][1]["table"][1][1] = True
    with pytest.raises(ParseError, match=r"^binary\[1\]\.table\[2\]\[2\]: booleans are not "):
        instance_from_dict(doc)
    tables = {(e["i"] - 1, e["j"] - 1): e["table"] for e in doc["binary"]}
    with pytest.raises(TypeError, match="^bool is not a valid cost value$"):
        Instance(BASE["domains"], BASE["unary"], tables)


# ---------------------------------------------------------------------------
# The decoder against json.loads

_INSTANCE = ('{"r": R, "domains": [2, D], "unary": [[0, U], [1, 0]], '
             '"binary": [{"i": I, "j": J, "table": [[0, C], [1, 1]]}]}')
_INSTANCE_AT = {"R": "2", "D": "2", "U": "1", "I": "1", "J": "2", "C": "1"}
_MATRIX = '{"n": N, "entries": [{"i": I, "j": J, "value": V}, {"i": 1, "j": 3, "value": 2}]}'
_MATRIX_AT = {"N": "3", "I": "1", "J": "2", "V": "1"}
_TOKENS = [str(v) for v in (2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -2**63 - 1)] + [
    "1e400", "NaN", "Infinity", "-0", "1.0", '"\\ud800"']


def _fill(template: str, defaults: dict, slot: str, token: str) -> str:
    for name, value in defaults.items():
        template = template.replace(name, token if name == slot else value)
    return template


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


_VALID = _fill(_INSTANCE, _INSTANCE_AT, None, None)
_TABLE_ENTRY = '{"i": 1, "j": 2, "table": [[0, 1], [1, 1]]}'
INSTANCE_TEXTS = [
    *(_fill(_INSTANCE, _INSTANCE_AT, slot, token) for slot in _INSTANCE_AT for token in _TOKENS),
    _VALID,
    # repeated keys: the last one wins
    _VALID.replace(_TABLE_ENTRY, _TABLE_ENTRY[:-1] + ', "table": 0}'),
    _VALID.replace(_TABLE_ENTRY, '{"i": 1, "j": 2, "table": 0, "table": [[0, 1], [1, 1]]}'),
    _VALID.replace(_TABLE_ENTRY, '{"i": 1, "j": 2, "table": [[0, 1e400], [1, 1]], '
                                 '"table": [[0, 1], [1, 1]]}'),
    *(_VALID.replace('{"r": 2', '{"r": %s, "r": 2' % token) for token in _TOKENS),
    _VALID.replace('{"r": 2', '{"r": 2, "r": 3'),
    # nesting: the whole document, a cell, and a value a repeated key drops
    *(_nested(depth) for depth in (990, 1000, 1023, 1024, 1025, 1100)),
    *('{"r": ' * depth + "1" + "}" * depth for depth in (990, 1024, 1100)),
    *(_VALID.replace('{"r": 2', '{"r": %s, "r": 2' % _nested(depth))
      for depth in (4, 990, 1000, 1023, 1024, 1025, 1100)),
    *(_fill(_INSTANCE, _INSTANCE_AT, "C", _nested(depth)) for depth in (990, 1100)),
    # strings the orjson path cannot tell apart from brackets
    _fill(_INSTANCE, _INSTANCE_AT, "C", '"\\u0031/2"'),
    _fill(_INSTANCE, _INSTANCE_AT, "C", '"[1]"'),
    _VALID.replace('{"r": 2', '{"r": "]]]]]]", "r": 2'),
    "", "null", "[]", '"x"', "1",
]

_MATRIX_VALID = _fill(_MATRIX, _MATRIX_AT, None, None)
MATRIX_TEXTS = [
    *(_fill(_MATRIX, _MATRIX_AT, slot, token) for slot in _MATRIX_AT for token in _TOKENS),
    _MATRIX_VALID,
    _MATRIX_VALID.replace('"value": 1', '"value": 1, "value": "inf"'),
    _MATRIX_VALID.replace('"value": 1', '"value": NaN, "value": 1'),
    _MATRIX_VALID.replace('"value": 1', '"value": 1, "value": 2e400'),
    *(_MATRIX_VALID.replace('{"n": 3', '{"n": %s, "n": 3' % token) for token in _TOKENS),
    *(_MATRIX_VALID.replace('{"n": 3', '{"n": %s, "n": 3' % _nested(depth))
      for depth in (990, 1000, 1024, 1100)),
    *(_nested(depth) for depth in (990, 1024, 1100)),
    "", "null", "[]",
]


def _as_inputs(text: str) -> list:
    """text as str and, when it encodes, as UTF-8 bytes, bytearray and
    memoryview, with a UTF-8 BOM and as UTF-16."""
    out = [text, "\ufeff" + text]
    try:
        data = text.encode()
    except UnicodeEncodeError:
        return out
    return out + [data, bytearray(data), memoryview(data), b"\xef\xbb\xbf" + data,
                  text.encode("utf-16")]


def _outcome(parse, text):
    """What parse(text) gives: its arrays, or its exception type and text."""
    try:
        got = parse(text)
    except Exception as exc:   # every exception must match, not only ParseError
        return type(exc), str(exc)
    if isinstance(got, Instance):
        return got.ranks.tobytes(), got.ranks.shape, got.pool, got.unary
    return got.n, got.ranks.tobytes(), got.pool


def _json_path(monkeypatch, parse, text):
    """parse(text) with the orjson decode switched off: json.loads only."""
    with monkeypatch.context() as m:
        m.setattr(zfree.instance, "_fast_loads", lambda text: None, raising=False)
        return _outcome(parse, text)


def _check(monkeypatch, parse, text) -> None:
    got = _outcome(parse, text)
    assert got == _json_path(monkeypatch, parse, text)
    if parse is parse_instance:
        try:
            doc = json.loads(text)
        except (ValueError, TypeError, RecursionError):
            return
        assert got == _outcome(instance_from_dict, doc)


@pytest.mark.parametrize("k", range(len(INSTANCE_TEXTS)))
def test_parse_instance_decodes_as_json_loads(monkeypatch, k):
    for text in _as_inputs(INSTANCE_TEXTS[k]):
        _check(monkeypatch, parse_instance, text)


@pytest.mark.parametrize("k", range(len(MATRIX_TEXTS)))
def test_parse_partial_matrix_decodes_as_json_loads(monkeypatch, k):
    for text in _as_inputs(MATRIX_TEXTS[k]):
        _check(monkeypatch, parse_partial_matrix, text)


@pytest.mark.parametrize("text", [None, 5, 1.5, ["{}"]])
def test_other_input_types_raise_the_json_loads_type_error(monkeypatch, text):
    for parse in (parse_instance, parse_partial_matrix):
        got = _outcome(parse, text)
        assert got[0] is TypeError and got == _json_path(monkeypatch, parse, text)


def test_the_value_cases_reach_every_outcome():
    # The grid above covers accepted documents, refused values and invalid JSON.
    messages = [_outcome(parse_instance, text) for text in INSTANCE_TEXTS]
    assert any(isinstance(m[0], bytes) for m in messages)
    assert any(m[0] is ParseError and m[1].startswith("invalid JSON") for m in messages)
    assert any(m[1] == "invalid JSON: nested too deeply" for m in messages)
    assert any(m[0] is ParseError and "floats are not exact" in m[1] for m in messages)
    built = _outcome(parse_instance, _fill(_INSTANCE, _INSTANCE_AT, "C", str(2**70)))
    assert built[2][-1].raw == 2**70


def test_the_fast_decode_takes_plain_shallow_documents_only():
    fast = zfree.instance._fast_loads
    for text in (_VALID, _VALID.encode(), bytearray(_VALID.encode()), _MATRIX_VALID):
        assert fast(text) == json.loads(text)
    assert fast(_nested(5)) == json.loads(_nested(5))
    for text in (memoryview(_VALID.encode()), None, 5, _nested(6),
                 _VALID.replace('{"r": 2', '{"r": %s, "r": 2' % _nested(5)),
                 _fill(_INSTANCE, _INSTANCE_AT, "C", '"[1]"'),
                 _fill(_INSTANCE, _INSTANCE_AT, "C", '"\\u0031/2"'),
                 _fill(_INSTANCE, _INSTANCE_AT, "C", "NaN"),
                 _fill(_INSTANCE, _INSTANCE_AT, "C", '"\\ud800"'),
                 "\ufeff" + _VALID, b"\xef\xbb\xbf" + _VALID.encode()):
        assert fast(text) is None
    # orjson makes this int a float, so the document goes to json.loads
    assert fast(_fill(_INSTANCE, _INSTANCE_AT, "C", str(2**64)))["binary"][0]["table"][0][1] \
        == float(2**64)


def test_a_million_nested_lists_fail_cleanly():
    # Decoded by orjson, a document this deep would overflow the C stack.
    code = ("from zfree import parse_instance, parse_partial_matrix, ParseError\n"
            "text = '[' * 10**6 + ']' * 10**6\n"
            "for parse in (parse_instance, parse_partial_matrix):\n"
            "    for t in (text, text.encode()):\n"
            "        try:\n"
            "            parse(t)\n"
            "        except ParseError as exc:\n"
            "            print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "invalid JSON: nested too deeply\n" * 4
