"""PartialMatrix and CompletedMatrix ranks and pool: the parser's bulk path
against the constructor, the entry-by-entry re-read that only raises, the
writer against json.dumps, and the size cap.

The documents are those of tests/test_complete_identity.py."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from test_complete_identity import _DOCUMENTS
from zfree import (CompletedMatrix, GenConfig, ParseError, PartialMatrix, ViolationKind,
                   complete, dump_matrix, generate_instance, induced_partial_matrix,
                   parse_partial_matrix, validate_partial)
from zfree import completion
from zfree.completion import _parse_entries, _read_entries
from zfree.errors import InvariantError, NotCompletableError
from zfree.instance import MAX_RANK_BYTES
from zfree.values import _decode_value

CAP = math.isqrt(MAX_RANK_BYTES // 4)    # the largest n the cap admits


def assert_same(a, b):
    assert a.n == b.n
    assert np.array_equal(a.ranks, b.ranks) and a.ranks.dtype == b.ranks.dtype == np.int32
    assert a.pool == b.pool
    assert a.pairs() == b.pairs()
    if a.n <= 40:
        for i in range(a.n):
            for j in range(a.n):
                if i != j:
                    assert a.value(i, j) == b.value(i, j)


@pytest.mark.parametrize("k", range(len(_DOCUMENTS)), ids=[d[0] for d in _DOCUMENTS])
def test_bulk_parse_equals_the_constructor(k):
    text = _DOCUMENTS[k][1]
    doc = json.loads(text)
    n, entries = doc["n"], doc.get("entries", [])
    bulk = _read_entries(n, entries)
    assert bulk is not None                  # every document is well formed
    with pytest.raises(InvariantError):      # so the re-read finds no defect
        _parse_entries(n, entries)
    built = PartialMatrix(n, [((e["i"] - 1, e["j"] - 1), _decode_value(e["value"]))
                              for e in entries])
    assert_same(bulk, built)
    assert_same(parse_partial_matrix(text), bulk)
    assert not bulk.ranks.flags.writeable
    assert bulk.defined_count == len(entries)
    assert dict(bulk.pairs()) == bulk._entries


def test_a_refused_entries_list_must_have_a_defect(monkeypatch):
    # The entry-by-entry re-read only raises: a list _read_entries refused
    # but that parses is a broken reader, not a matrix.
    text = '{"n": 3, "entries": [{"i": 1, "j": 2, "value": 1}]}'
    assert parse_partial_matrix(text).value(0, 1).raw == 1
    monkeypatch.setattr(completion, "_read_entries", lambda n, entries: None)
    for parse in (parse_partial_matrix, lambda t: completion._matrix_from_dict(json.loads(t))):
        with pytest.raises(InvariantError) as exc:
            parse(text)
        assert str(exc.value) == "_read_entries refused entries that parse one by one"


@pytest.mark.parametrize("k", range(0, len(_DOCUMENTS), 3), ids=[d[0] for d in _DOCUMENTS[::3]])
def test_dump_round_trips_and_equals_json_dumps(k):
    H = parse_partial_matrix(_DOCUMENTS[k][1])
    try:
        done = complete(H)
    except NotCompletableError:
        done = None
    for matrix in (H, done):
        if matrix is None:
            continue
        doc = {"n": matrix.n, "entries": [
            {"i": i + 1, "j": j + 1, "value": v.raw if type(v.raw) is int else str(v)}
            for (i, j), v in matrix.pairs()]}
        for indent in (None, 2) if matrix.n > 60 else (None, 0, 2, 4):
            text = dump_matrix(matrix, indent=indent)
            assert text == json.dumps(doc, indent=indent)
            again = parse_partial_matrix(text)
            assert np.array_equal(again.ranks, matrix.ranks) and again.pool == matrix.pool


def test_completed_matrix_from_pairs_equals_the_completion():
    H = induced_partial_matrix(generate_instance(GenConfig(r=4, dmax=4, seed=3,
                                                           inf_share=0.5)))
    done = complete(H)
    again = CompletedMatrix(done.n, done.pairs())
    assert again == done and hash(again) == hash(done)
    assert np.array_equal(again.ranks, done.ranks) and again.pool == done.pool
    assert np.all(np.diag(done.ranks) == 0)


def test_induced_matrix_is_a_view_of_the_instance():
    inst = generate_instance(GenConfig(r=5, dmax=4, seed=11, inf_share=0.5))
    H = induced_partial_matrix(inst)
    assert H.ranks is inst.ranks and H.pool is inst.pool
    assert inst._tables[(0, 1)] is None       # no ExtValue table was built
    lay = inst.layout
    loop = PartialMatrix(lay.n, [((lay.flat(i, a), lay.flat(j, b)), inst.binary_value(i, a, j, b))
                                 for i in range(inst.r) for j in range(i + 1, inst.r)
                                 for a in range(inst.domains[i])
                                 for b in range(inst.domains[j])])
    assert_same(H, loop)


def test_first_negative_entry_is_the_first_pair():
    h = PartialMatrix(4, {(2, 3): -5, (0, 3): -1, (1, 2): 2, (0, 1): "inf"})
    v = validate_partial(h)
    assert v.kind is ViolationKind.NEGATIVE and v.indices == (0, 3)
    assert v.message == "entry (1,4) = -1 is negative"


def test_nothing_defined_completes_to_zero():
    for n in (1, 2, 5):
        done = complete(PartialMatrix(n))
        assert done == CompletedMatrix(n, {(i, j): 0 for i in range(n) for j in range(i + 1, n)})


@pytest.mark.parametrize("n", [CAP + 1, 2**63])
def test_size_cap_refuses_n_before_reading_entries(n):
    message = (f"{n} vertices need a {4 * n * n}-byte rank matrix, "
               f"more than the {MAX_RANK_BYTES}-byte limit")
    with pytest.raises(ParseError) as exc:
        parse_partial_matrix(json.dumps({"n": n, "entries": [{"bad": 1}]}))
    assert str(exc.value) == message
    for make in (lambda: PartialMatrix(n), lambda: CompletedMatrix(n, [])):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


@pytest.mark.parametrize("n", [CAP + 1, 2**63])
def test_size_cap_exits_1_without_traceback(n, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "entries": [{"i": 1, "j": 2, "value": 0}]}))
    proc = subprocess.run([sys.executable, "-m", "zfree", "complete", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {n} vertices need a {4 * n * n}-byte rank matrix, "
                           f"more than the {MAX_RANK_BYTES}-byte limit\n")
