"""A property of parse_instance's text reader over generated instances.

It needs hypothesis and is skipped without it; the reader's other tests, in
test_text_reader.py, run without it."""

import pytest

import zfree.instance
from test_text_reader import _outcome, _texts
from zfree import GenConfig, generate_instance, instance_from_dict, instance_to_dict, parse_instance

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _cell(v, scale, half):
    """A finite cell v times scale, written as "k/2" (half of 2 v) when half
    is set; "inf" as it is."""
    if v == "inf":
        return v
    return f"{2 * v * scale}/2" if half else v * scale


def _scaled(inst, scale, drop, halves=False):
    """inst's document with every finite pair cost times scale and the
    tables whose index is in drop left out; with halves, every other cell
    of each row is written as "k/2"."""
    doc = instance_to_dict(inst)
    doc["binary"] = [{**e, "table": [[_cell(v, scale, halves and b % 2 == 1)
                                      for b, v in enumerate(row)] for row in e["table"]]}
                     for k, e in enumerate(doc.get("binary", [])) if k not in drop]
    return doc


def _fits(table) -> bool:
    """Whether the reader takes table: numpy reads ints of at most 18
    digits, and orjson, in a table with "inf" or "k/2" cells, ints below
    2**64."""
    cells = [v for row in table for v in row]
    limit = 10**18 if all(type(v) is int for v in cells) else 2**64
    return all(v < limit for v in cells if type(v) is int)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 5), dmax=st.integers(1, 5), seed=st.integers(0, 10**6),
       inf_share=st.sampled_from([0.0, 0.5]),
       scale=st.sampled_from([1, 3, 1237, 10**6 + 3, 2**40, 10**17]),
       drop=st.sets(st.integers(0, 9), max_size=3), halves=st.booleans())
def test_generated_documents_read_as_json_loads_reads_them(r, dmax, seed, inf_share, scale,
                                                           drop, halves):
    inst = generate_instance(GenConfig(r=r, dmax=dmax, seed=seed, inf_share=inf_share))
    doc = _scaled(inst, scale, drop, halves)
    tables = [e["table"] for e in doc["binary"]]
    want = _outcome(instance_from_dict, doc)
    assert isinstance(want[0], bytes)
    taken = bool(tables) and all(map(_fits, tables))
    for text in _texts(doc):
        assert (zfree.instance._read_instance(text) is not None) is taken
        assert _outcome(parse_instance, text) == want

