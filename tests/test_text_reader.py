"""The text reader of parse_instance against json.loads.

A document whose pair tables are all arrays of integer tokens has them read
from its text (instance._read_instance): the tables are cut out, orjson
decodes the rest, the skeleton, and numpy reads the cells.  Whatever the
reader takes must give the arrays and pool that instance_from_dict gives on
the json.loads document, and whatever it declines goes to the
whole-document route, so every error is the one json.loads and
instance_from_dict give.  Each case below also pins whether the reader
takes the text."""

import json

import numpy as np
import pytest

import zfree.instance
from zfree import (GenConfig, Instance, ParseError, dump_instance, generate_instance,
                   instance_from_dict, instance_to_dict, parse_instance)

BASE = {"r": 4, "domains": [2, 3, 1, 1],
        "unary": [[0, "1/2"], [2, 0, 1], [3], [0]],
        "binary": [{"i": 1, "j": 2, "table": [[0, 1, 1], [1, 2, 1]]},
                   {"i": 1, "j": 3, "table": [[4], [4]]},
                   {"i": 3, "j": 4, "table": [[7]]}]}

_TABLE = "[[0, 1, 1], [1, 2, 1]]"
_ONE = "[[7]]"


def _outcome(parse, text):
    """What parse(text) gives: its arrays, or its exception type and text."""
    try:
        got = parse(text)
    except Exception as exc:   # every exception must match, not only ParseError
        return type(exc), str(exc)
    return got.ranks.tobytes(), got.ranks.shape, got.pool, got.unary


def _reference(monkeypatch, text):
    """parse_instance(text) with the reader and orjson switched off, and,
    where json.loads reads the text, instance_from_dict on its document,
    which must agree."""
    with monkeypatch.context() as m:
        m.setattr(zfree.instance, "_read_instance", lambda text: None)
        m.setattr(zfree.instance, "_fast_loads", lambda text: None)
        want = _outcome(parse_instance, text)
    try:
        doc = json.loads(text)
    except ValueError:
        return want
    assert _outcome(instance_from_dict, doc) == want
    return want


def _check(monkeypatch, text, taken):
    """text gives its reference as str, bytes and bytearray, and the reader
    takes it or not as taken says; returns the reference of the str."""
    for data in (text, text.encode(), bytearray(text.encode())):
        assert (zfree.instance._read_instance(data) is not None) is taken
        assert _outcome(parse_instance, data) == _reference(monkeypatch, data)
    return _reference(monkeypatch, text)


def _texts(doc):
    """doc as compact, default and indent=2 JSON, and with other
    whitespace mixed into its tables."""
    default = json.dumps(doc)
    mixed = default.replace(", ", " ,\t").replace("[[", "[ \r\n[").replace("]]", "]\n ]")
    return [json.dumps(doc, separators=(",", ":")), default, json.dumps(doc, indent=2), mixed]


@pytest.mark.parametrize("k", range(4))
def test_every_format_is_taken_and_reads_the_same(monkeypatch, k):
    text = _texts(BASE)[k]
    assert isinstance(_check(monkeypatch, text, True)[0], bytes)


# (label, text of table (1, 2), whether the reader takes the document)
TABLES = [
    ("split token", "[[0, 1 1, 1], [1, 2, 1]]", False),
    ("split two-digit token", "[[10, 1 1, 11], [10, 12, 11]]", False),
    ("split token beside an empty cell", "[[0, 1 1,], [1, 2, 1]]", False),
    ("rows without a comma", "[[0, 1, 1] [1, 2, 1]]", False),
    ("trailing comma in a row", "[[0, 1, 1,], [1, 2, 1]]", False),
    ("trailing comma after the rows", "[[0, 1, 1], [1, 2, 1],]", False),
    ("empty cell", "[[0, , 1], [1, 2, 1]]", False),
    ("empty row", "[[0, 1, 1], []]", False),
    ("extra empty row", "[[0, 1, 1], [1, 2, 1], []]", False),
    ("cell after a row", "[[0, 1, 1]5, [1, 2, 1]]", False),
    ("nested cell", "[[0, 1, [1]], [1, 2, 1]]", False),
    ("nested rows", "[[[0], [1], [1]], [[1], [2], [1]]]", False),
    ("leading zero", "[[01, 1, 1], [1, 2, 1]]", False),
    ("leading zeros everywhere", "[[00, 01, 01], [01, 02, 01]]", False),
    ("single zeros", "[[0, 0, 0], [0, 0, 0]]", True),
    ("18 digits", f"[[0, {10**18 - 1}, 1], [1, 2, {10**17}]]", True),
    ("19 digits", f"[[0, {10**18}, 1], [1, 2, 1]]", False),
    ("20 digits", f"[[0, {10**19}, 1], [1, 2, 1]]", False),
    ("2**63", f"[[0, {2**63}, 1], [1, 2, 1]]", False),
    ("2**64", f"[[0, {2**64}, 1], [1, 2, 1]]", False),
    ("past the lookup", f"[[0, {2**40}, 1], [1, {2**20}, {2**20 - 1}]]", True),
    ("four and five digits", "[[1237, 12370, 2474], [99999, 1000, 1237]]", True),
    ("negative", "[[0, -1, 1], [1, 2, 1]]", False),
    ("1.0", "[[0, 1.0, 1], [1, 2, 1]]", False),
    ("1e2", "[[0, 1e2, 1], [1, 2, 1]]", False),
    ('"inf"', '[[0, "inf", 1], [1, 2, 1]]', False),
    ('"1/2"', '[[0, "1/2", 1], [1, 2, 1]]', False),
    ('"x"', '[[0, "x", 1], [1, 2, 1]]', False),
    ("true", "[[0, true, 1], [1, 2, 1]]", False),
    ("null", "[[0, null, 1], [1, 2, 1]]", False),
    ("an object", '[[0, {"a": 1}, 1], [1, 2, 1]]', False),
    ("too few rows", "[[0, 1, 1]]", False),
    ("too many cells", "[[0, 1, 1, 1], [1, 2, 1, 1]]", False),
    ("too few cells", "[[0, 1], [1, 2]]", False),
    ("not a list", "5", False),
    ("unclosed", "[[0, 1, 1], [1, 2, 1]", False),
]


@pytest.mark.parametrize("label, table, taken", TABLES, ids=[c[0] for c in TABLES])
def test_a_table_text_gives_what_json_loads_gives(monkeypatch, label, table, taken):
    text = json.dumps(BASE).replace(_TABLE, table)
    assert table in text
    _check(monkeypatch, text, taken)
    compact = text.replace(", ", ",").replace(": ", ":")
    _check(monkeypatch, compact, taken)


# (label, text, whether the reader takes it)
DOCUMENTS = [
    ("inf at d=1", json.dumps(BASE).replace(_ONE, '[["inf"]]'), False),
    ("empty 1x1", json.dumps(BASE).replace(_ONE, "[[]]"), False),
    ("bare 1x1", json.dumps(BASE).replace(_ONE, "[7]"), False),
    ("1x1 split", json.dumps(BASE).replace(_ONE, "[[7 7]]"), False),
    ("1x1 two digits", json.dumps(BASE).replace(_ONE, "[[77]]"), True),
    ("uniform leading zero", json.dumps(BASE).replace(_TABLE, "[[10, 01, 11], [10, 12, 11]]")
     .replace("[[4], [4]]", "[[44], [44]]").replace(_ONE, "[[77]]"), False),
    ("uniform two digits", json.dumps(BASE).replace(_TABLE, "[[10, 10, 11], [10, 12, 11]]")
     .replace("[[4], [4]]", "[[44], [44]]").replace(_ONE, "[[77]]"), True),
    ("2x1 split", json.dumps(BASE).replace("[[4], [4]]", "[[4 4], [4]]"), False),
    ("2x1 two digits", json.dumps(BASE).replace("[[4], [4]]", "[[44], [4]]"), True),
    ("duplicate table", json.dumps(BASE).replace(
        f'"table": {_TABLE}', f'"table": {_TABLE}, "table": [[5, 5, 5], [5, 5, 5]]'), False),
    ("table 0 then a table", json.dumps(BASE).replace(
        f'"table": {_TABLE}', f'"table": 0, "table": {_TABLE}'), False),
    ("a table then table 0", json.dumps(BASE).replace(
        f'"table": {_TABLE}', f'"table": {_TABLE}, "table": 0'), False),
    ("table 0", json.dumps(BASE).replace(f'"table": {_TABLE}', '"table": 0'), False),
    ("table key in a string", json.dumps(BASE).replace('"1/2"', '"\\"table\\": [[1]]"'), False),
    ("escaped table key", json.dumps(BASE).replace('"binary"', '"bin\\u0061ry"'), False),
    ("table key as a value", json.dumps(BASE).replace('"1/2"', '"table"'), False),
    ("table key first", json.dumps(BASE).replace(
        f'{{"i": 1, "j": 2, "table": {_TABLE}}}', f'{{"table": {_TABLE}, "i": 1, "j": 2}}'), True),
    ("table key last of the document",
     json.dumps({k: BASE[k] for k in ("unary", "r", "domains", "binary")}), True),
    ("binary before unary",
     json.dumps({k: BASE[k] for k in ("binary", "r", "domains", "unary")}), True),
    ("repeated binary", json.dumps(BASE)[:-1] + ', "binary": ' + json.dumps(BASE["binary"]) + "}",
     False),
    ("repeated binary, the last empty", json.dumps(BASE)[:-1] + ', "binary": []}', False),
    ("table in a repeated unary, dropped", json.dumps(BASE)[:-1] + ', "unary": {"table": [[1]]}, '
     '"unary": ' + json.dumps(BASE["unary"]) + "}", False),
    ("invalid table in a repeated unary, dropped",
     '{"r": 2, "domains": [1, 1], "unary": [[0], [0]], "binary": [{"i": 1, "j": 2, '
     '"table": [[5]]}], "unary": {"table": [[1,,]]}, "unary": [[0], [0]]}', False),
    ("invalid table in the unary of a document too large",
     '{"r": 3, "domains": [1, 1, 16383], "unary": [[0], [0], [0]], "binary": [{"i": 1, "j": 2, '
     '"table": [[5]]}], "unary": {"table": [[1,,]]}}', False),
    ("repeated pair", json.dumps(BASE).replace('"i": 3, "j": 4', '"i": 1, "j": 2'), False),
    ("unknown entry key", json.dumps(BASE).replace('"i": 3,', '"i": 3, "x": 1,'), False),
    ("omitted tables", json.dumps({**BASE, "binary": BASE["binary"][:1]}), True),
    ("no tables", json.dumps({**BASE, "binary": []}), False),
    ("unary inf", json.dumps(BASE).replace('"1/2"', '"inf"'), False),
    ("r too large", json.dumps(BASE).replace('"r": 4', '"r": 5'), False),
    ("huge domain", json.dumps(BASE).replace("[2, 3, 1, 1]", f"[2, {2**63 - 1}, 1, 1]"), False),
    ("huge domain, compact", json.dumps(BASE, separators=(",", ":")).replace(
        "[2,3,1,1]", f"[2,{2**63 - 1},1,1]"), False),
    ("trailing garbage", json.dumps(BASE) + "x", False),
    ("BOM", "﻿" + json.dumps(BASE), False),
]


@pytest.mark.parametrize("label, text, taken", DOCUMENTS, ids=[c[0] for c in DOCUMENTS])
def test_a_document_gives_what_json_loads_gives(monkeypatch, label, text, taken):
    _check(monkeypatch, text, taken)


def test_a_table_with_a_string_is_declined_before_decoding():
    # The cut itself declines, so a document with "inf" cells costs the
    # reader one search per table up to the first such table.
    for cell in ('"inf"', '"1/2"'):
        text = json.dumps(BASE).replace(_TABLE, f"[[0, 1, 1], [1, {cell}, 1]]")
        assert zfree.instance._cut_tables(text.encode()) is None
    assert zfree.instance._cut_tables(json.dumps(BASE).encode()) is not None


def test_a_declined_str_is_encoded_once_for_orjson_and_the_screen(monkeypatch):
    text = json.dumps(BASE).replace(_TABLE, '[[0, "inf", 1], [1, 2, 1]]')
    assert zfree.instance._read_instance(text) is None
    seen = []
    for name in ("_fast_loads", "_int_text"):
        read = getattr(zfree.instance, name)
        monkeypatch.setattr(zfree.instance, name,
                            lambda data, read=read: seen.append(data) or read(data))
    assert _outcome(parse_instance, text) == _outcome(instance_from_dict, json.loads(text))
    assert len(seen) == 2 and type(seen[0]) is bytes and seen[1] is seen[0]


def test_the_cases_reach_accepted_and_refused_documents(monkeypatch):
    outcomes = [_reference(monkeypatch, json.dumps(BASE).replace(_TABLE, table))
                for _, table, _ in TABLES]
    assert sum(isinstance(o[0], bytes) for o in outcomes) >= 8
    assert any(o[0] is ParseError and o[1].startswith("invalid JSON") for o in outcomes)
    assert any(o[0] is ParseError and "floats are not exact" in o[1] for o in outcomes)


def _perfbench_style():
    """A document of perfbench's shape: r=6, d=21, half-integer unary costs."""
    return dump_instance(generate_instance(GenConfig(r=6, domains=(21,) * 6, seed=3)))


def test_orjson_decodes_only_the_skeleton(monkeypatch):
    text = _perfbench_style()
    want = _outcome(instance_from_dict, json.loads(text))
    lengths = []
    loads = zfree.instance.orjson.loads
    monkeypatch.setattr(zfree.instance.orjson, "loads",
                        lambda data: lengths.append(len(data)) or loads(data))
    assert _outcome(parse_instance, text) == want
    assert len(lengths) == 1 and lengths[0] < len(text) // 10


def _refuse(*args, **kwargs):
    raise AssertionError("called on a document that is too large")


@pytest.mark.parametrize("fmt", range(4))
def test_a_document_too_large_is_refused_before_any_cell_is_read(monkeypatch, fmt):
    # 1600 bytes allow 20 positions; the document has 21.
    doc = instance_to_dict(generate_instance(GenConfig(r=3, domains=(7, 7, 7), seed=4)))
    text = _texts(doc)[fmt]
    monkeypatch.setattr(zfree.instance, "MAX_RANK_BYTES", 1600)
    want = _outcome(instance_from_dict, json.loads(text))
    assert want == (ParseError, "21 one-hot positions need a 1764-byte rank matrix, "
                                "more than the 1600-byte limit")
    lengths = []
    loads = zfree.instance.orjson.loads
    monkeypatch.setattr(zfree.instance.orjson, "loads",
                        lambda data: lengths.append(len(data)) or loads(data))
    monkeypatch.setattr(zfree.instance, "_cell_values", _refuse)
    monkeypatch.setattr(zfree.instance, "_rank", _refuse)
    assert _outcome(parse_instance, text) == want
    assert len(lengths) == 1 and lengths[0] < len(text) // 2


@pytest.mark.parametrize("table, label", [
    ("[[1 2, 3, 4, 5, 6, 7, 8]", "split"), ("[[01, 2, 3, 4, 5, 6, 7]", "leading zero"),
    ('[["inf", 2, 3, 4, 5, 6, 7]', "string")])
def test_a_document_too_large_with_a_bad_table_gives_the_json_loads_error(monkeypatch, table,
                                                                        label):
    # A table the reader cannot check leaves the text to the whole-document
    # route, which gives its JSON error or the size error as before.
    doc = instance_to_dict(generate_instance(GenConfig(r=3, domains=(7, 7, 7), seed=4)))
    first = json.dumps(doc["binary"][0]["table"][0])
    text = json.dumps(doc).replace("[" + first, table, 1)
    assert text != json.dumps(doc)
    monkeypatch.setattr(zfree.instance, "MAX_RANK_BYTES", 1600)
    monkeypatch.setattr(zfree.instance, "_cell_values", _refuse)
    assert zfree.instance._read_instance(text) is None
    want = _reference(monkeypatch, text)
    assert want[0] is ParseError and want[1].startswith(
        "21 one-hot" if label == "string" else "invalid JSON")
    assert _outcome(parse_instance, text) == want


def test_an_instance_read_from_its_text_matches_the_constructor():
    inst = generate_instance(GenConfig(r=4, domains=(3, 1, 4, 2), seed=9))
    for text in _texts(instance_to_dict(inst)):
        parsed = zfree.instance._read_instance(text)
        assert parsed is not None
        assert np.array_equal(parsed.ranks, inst.ranks) and parsed.pool == inst.pool
        assert parsed.unary == inst.unary and parsed.binary_pairs() == inst.binary_pairs()
        assert not parsed.ranks.flags.writeable
        assert isinstance(parsed, Instance)
