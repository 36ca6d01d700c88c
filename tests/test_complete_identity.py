"""CLI outputs of `zfree complete` pinned on seeded partial-matrix documents.

The documents are regenerated here from seeds, without the matrix code
under test: induced matrices of generated instances (n = 4..250, inf_share
0 and 0.5, integer values and the same values halved, written as "p/2"
strings, entries shuffled for some); +-1 single-entry mutants of induced
matrices, most of them refused with a chordless cycle; random partial
matrices with several components and isolated vertices; and the edge
cases n=1, an empty or absent "entries", all-"inf" matrices, tied values
and one value spelled several ways.  tests/data/complete_identity.json
holds, per document, the SHA-256 of its text, the exit code, stdout
digest and stderr of `complete` and `complete --json`, and the digests of
dump_matrix(H) and dump_matrix(H, indent=2) for the parsed document H.
They were recorded with the entry-by-entry parser, the per-pair completion
and json.dumps as the writer.

    PYTHONPATH=src python3 tests/test_complete_identity.py

rewrites the fixture from the code on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from zfree import GenConfig, dump_matrix, generate_instance, parse_partial_matrix
from zfree.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "complete_identity.json"

# (r, domains) of the generated instances whose induced matrices are used,
# n = 4 .. 250.
SHAPES = [(2, (2, 2)), (3, (2, 3, 2)), (4, (3, 1, 4, 2)), (5, (4,) * 5),
          (6, (5,) * 6), (8, (4, 3) * 4), (4, (15,) * 4), (6, (10,) * 6),
          (12, (5,) * 12), (26, (2, 3) * 13), (4, (30,) * 4), (5, (50,) * 5),
          (10, (25,) * 10)]


def _doc(n, entries, rng=None):
    """The JSON text of a matrix document over 1-based (i, j, value)
    triples, shuffled when rng is given."""
    entries = [{"i": i, "j": j, "value": v} for i, j, v in entries]
    if rng is not None:
        rng.shuffle(entries)
    return json.dumps({"n": n, "entries": entries})


def _spelled(v, half):
    """A generator value in the document format, halved as "p/2" if asked."""
    if v == float("inf"):
        return "inf"
    return f"{v}/2" if half else v


def _induced(inst, half=False):
    """(n, 1-based triples) of the cross-variable pairs of inst."""
    off = [0]
    for d in inst.domains:
        off.append(off[-1] + d)
    triples = []
    for (i, j), t in inst.binary_pairs():
        for a, row in enumerate(t):
            for b, v in enumerate(row):
                triples.append((off[i] + a + 1, off[j] + b + 1, _spelled(v.raw, half)))
    return off[-1], sorted(triples)


def _random_partial(rng):
    """A random partial matrix whose defined pairs form several components,
    some vertices isolated: laminar values within each component, so most
    complete, with a few random values mixed in."""
    n = rng.randint(5, 40)
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    triples = []
    start = rng.randint(0, 3)                  # vertices left isolated
    while start < n:
        size = rng.randint(1, max(1, n // 3))
        comp = sorted(vertices[start:start + size])
        start += size
        level = {}
        for u in range(len(comp)):
            for w in range(u + 1, len(comp)):
                level[(u, w)] = 9 - (u ^ w).bit_length()
        for (u, w), v in level.items():
            if rng.random() < 0.6:
                if rng.random() < 0.05:
                    v = rng.choice([0, 1, 5, "inf", "3/2"])
                triples.append((comp[u], comp[w], v))
    return n, triples


def documents():
    """(name, text) of every document, in a fixed order."""
    rng = random.Random(20261020)
    for r, domains in SHAPES:
        for inf_share in (0.0, 0.5):
            for half in (False, True):
                inst = generate_instance(GenConfig(r=r, domains=domains, seed=r + len(domains),
                                                   inf_share=inf_share))
                n, triples = _induced(inst, half)
                shuffle = rng if (r + half) % 2 else None
                yield (f"induced r={r} n={n} inf={inf_share} half={half}",
                       _doc(n, triples, shuffle))
    for k in range(40):
        r, domains = SHAPES[k % 9]
        inst = generate_instance(GenConfig(r=r, domains=domains, seed=100 + k,
                                           inf_share=0.3))
        n, triples = _induced(inst)
        at = rng.randrange(len(triples))
        i, j, v = triples[at]
        if v != "inf":
            v = v + 1 if v == 0 or rng.random() < 0.5 else v - 1
        triples[at] = (i, j, v)
        yield f"mutant {k} n={n}", _doc(n, triples, rng if k % 2 else None)
    for k in range(40):
        n, triples = _random_partial(rng)
        yield f"random {k} n={n}", _doc(n, triples, rng if k % 3 else None)
    yield "n=1", _doc(1, [])
    yield "n=1 no entries key", json.dumps({"n": 1})
    yield "empty n=5", _doc(5, [])
    yield "no entries key n=3", json.dumps({"n": 3})
    yield "all inf path", _doc(4, [(1, 2, "inf"), (2, 3, "inf"), (3, 4, "inf")])
    yield "all inf full", _doc(5, [(i, j, "inf") for i in range(1, 6) for j in range(i + 1, 6)])
    yield "all tied", _doc(6, [(i, j, 7) for i in range(1, 7) for j in range(i + 2, 7)])
    yield "tied refused", _doc(4, [(1, 2, 1), (2, 3, 2), (3, 4, 2), (1, 4, 2)])
    yield "one value spelled four ways", _doc(
        5, [(1, 2, 2), (2, 3, "2"), (3, 4, "4/2"), (4, 5, " 2 "), (1, 5, "inf"),
            (1, 3, "1/2"), (2, 5, "0"), (1, 4, 0)])
    yield "huge ints", _doc(4, [(1, 2, 2**70), (2, 3, 2**64 + 1), (3, 4, 2**63 - 1),
                                (1, 4, 2**70)])
    yield "n large, few entries", _doc(300, [(1, 300, 3), (150, 151, "5/3"), (2, 299, 0)])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return [code, _digest(out.getvalue()), err.getvalue()]


def outcome(name, text, tmp):
    """The record of one document, written to tmp to be read by the CLI."""
    tmp.write_text(text)
    H = parse_partial_matrix(text)
    return {"name": name, "doc": _digest(text),
            "complete": _run(["complete", str(tmp)]),
            "complete --json": _run(["complete", "--json", str(tmp)]),
            "dump": _digest(dump_matrix(H)),
            "dump indent=2": _digest(dump_matrix(H, indent=2))}


RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
_DOCUMENTS = list(documents())


@pytest.mark.parametrize("k", range(len(RECORDED)),
                         ids=[c["name"] for c in RECORDED])
def test_outputs_match_the_recorded_ones(k, tmp_path):
    name, text = _DOCUMENTS[k]
    assert outcome(name, text, tmp_path / "matrix.json") == RECORDED[k]


def test_the_corpus_covers_every_outcome():
    assert len(RECORDED) == len(_DOCUMENTS)
    codes = [c["complete"][0] for c in RECORDED]
    assert set(codes) == {0, 3}
    refused = [c for c in RECORDED if c["name"].startswith("mutant") and c["complete"][0] == 3]
    assert len(refused) >= 20
    assert sum(c["name"].startswith("random") and c["complete"][0] == 0 for c in RECORDED) >= 10


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        rows = [outcome(name, text, path) for name, text in documents()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} documents, {sum(r['complete'][0] == 0 for r in rows)} completed, "
          f"{sum(r['complete'][0] == 3 for r in rows)} refused")
