"""The int64 fast path of parse_instance and what it must decline.

A table takes numpy's int64 inference only when every cell is exactly an
int; every other cell kind (bools, floats, ints past int64, strings, null,
lists, objects) sends the table down the cell-by-cell path as before.  Each
document below changes one cell of an all-int instance; the expected exit
codes and stderr lines are the ones the cell-by-cell parser printed before
the fast path existed, and the same errors must come from
instance_from_dict and from the text passed as UTF-16 bytes.  Documents
that parse are compared with the Instance constructor."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from zfree import Instance, ParseError, instance_from_dict, parse_instance
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
