"""A property of parse_instance's text reader over generated instances.

It needs hypothesis and is skipped without it; the reader's other tests, in
test_text_reader.py, run without it."""

import pytest

import zfree.instance
from test_text_reader import _outcome, _texts
from zfree import GenConfig, generate_instance, instance_from_dict, instance_to_dict, parse_instance

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _scaled(inst, scale, drop):
    """inst's document with every finite pair cost times scale and the
    tables whose index is in drop left out."""
    doc = instance_to_dict(inst)
    doc["binary"] = [{**e, "table": [[v if v == "inf" else v * scale if isinstance(v, int)
                                      else v for v in row] for row in e["table"]]}
                     for k, e in enumerate(doc.get("binary", [])) if k not in drop]
    return doc


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 5), dmax=st.integers(1, 5), seed=st.integers(0, 10**6),
       inf_share=st.sampled_from([0.0, 0.5]),
       scale=st.sampled_from([1, 3, 1237, 10**6 + 3, 2**40, 10**17]),
       drop=st.sets(st.integers(0, 9), max_size=3))
def test_generated_documents_read_as_json_loads_reads_them(r, dmax, seed, inf_share, scale,
                                                           drop):
    inst = generate_instance(GenConfig(r=r, dmax=dmax, seed=seed, inf_share=inf_share))
    doc = _scaled(inst, scale, drop)
    tables = [e["table"] for e in doc["binary"]]
    # The reader takes tables of ints of at most 18 digits.
    int_only = bool(tables) and all(type(v) is int and v < 10**18
                                    for t in tables for row in t for v in row)
    want = _outcome(instance_from_dict, doc)
    assert isinstance(want[0], bytes)
    for text in _texts(doc):
        assert (zfree.instance._read_instance(text) is not None) is int_only
        assert _outcome(parse_instance, text) == want

