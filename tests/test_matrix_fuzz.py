"""Seeded mutations of partial-matrix documents against recorded CLI outcomes.

Each mutant is a small partial-matrix document changed by one JSON-tree
edit (a value turned into a bool, a float, a negative, an int past 2**63, a
padded or malformed string; an index out of range, reversed or of the wrong
type; a duplicate or reversed entry; an unknown or missing key; a bad n; a
wrong container type, ...) or by one ASCII byte edit of its text.
tests/data/matrix_fuzz.json holds, per mutant, the SHA-256 of its bytes and
the exit code, stderr and stdout digest that `zfree complete --json` gave on
it, recorded with the entry-by-entry parse_partial_matrix.  The 8 mutants
whose "n" is past 2**63 are the exception: the size cap on the rank matrix
(instance.MAX_RANK_BYTES) refuses them with a ParseError, exit 1, where the
recording saw numpy's ValueError escape the CLI.  Every mutant must
reproduce its record exactly, and no exception may escape.

    PYTHONPATH=src python3 tests/test_matrix_fuzz.py

rewrites the fixture from the code on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from zfree.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "matrix_fuzz.json"
SEED = 20261019
TREE_MUTANTS = 480
BYTE_MUTANTS = 240


def _entries(pairs):
    return [{"i": i, "j": j, "value": v} for i, j, v in pairs]


# Small documents: completable with undefined pairs, fully defined, not
# completable (a triangle with a unique minimum), fractions and inf, and
# an isolated vertex.
BASES = [
    {"n": 4, "entries": _entries([(1, 2, 3), (1, 3, 1), (2, 4, 1), (3, 4, "1/2")])},
    {"n": 3, "entries": _entries([(1, 2, 2), (1, 3, 2), (2, 3, 5)])},
    {"n": 3, "entries": _entries([(1, 2, 1), (1, 3, 2), (2, 3, 3)])},
    {"n": 5, "entries": _entries([(1, 2, "inf"), (2, 3, "3/2"), (1, 4, 0),
                                  (4, 5, "inf"), (3, 5, 7)])},
    {"n": 4, "entries": _entries([(1, 2, 4), (3, 4, 4)])},
]

CELLS = [True, False, 1.0, 1.5, -1, -7, 2**63, 2**64, -(2**63) - 1, 2**63 - 1,
         " 3 ", "0/0", "-1/2", "1/0", "3/ 2", "abc", "", "inf", " inf", "-inf",
         "Infinity", None, [], {}, [1], "07", "+3", "2/4"]
INDICES = [0, -1, 6, True, False, "1", 1.0, None, [], 2**63]


def _tree_mutant(doc, rng):
    """doc changed in place by one random edit."""
    entries = doc["entries"]
    kind = rng.randrange(10)
    if kind <= 2:                                  # one value
        rng.choice(entries)["value"] = rng.choice(CELLS)
    elif kind == 3:                                # one index
        rng.choice(entries)[rng.choice("ij")] = rng.choice(INDICES)
    elif kind == 4:                                # duplicate or reversed entry
        e = rng.choice(entries)
        if rng.random() < 0.5:
            entries.append(dict(e))
        else:
            e["i"], e["j"] = e["j"], e["i"]
    elif kind == 5:                                # diagonal or n shrunk below an index
        if rng.random() < 0.5:
            e = rng.choice(entries)
            e["j"] = e["i"]
        else:
            doc["n"] = max(1, doc["n"] - 1)
    elif kind == 6:                                # unknown key
        where = rng.choice([doc, *entries])
        where[rng.choice(["x", "N", "entry", "values"])] = 1
    elif kind == 7:                                # missing key
        where = rng.choice([doc, *entries])
        del where[rng.choice(sorted(where))]
    elif kind == 8:                                # bad n
        doc["n"] = rng.choice([0, -1, "4", True, 4.0, None, 2**63, []])
    else:                                          # wrong container types
        if rng.random() < 0.5:
            entries[rng.randrange(len(entries))] = rng.choice([[], "x", 3, None, [1, 2, 3]])
        else:
            doc["entries"] = rng.choice([{}, "x", 3, None, [[]]])
    return doc


def _byte_mutant(text, rng):
    """text changed by one random edit of printable ASCII bytes."""
    at = rng.randrange(len(text))
    char = chr(rng.randrange(32, 127))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + char + text[at:]
    if kind == 2:
        return text[:at] + char + text[at + 1:]
    end = min(len(text), at + rng.randint(1, 8))
    return text[:end] + text[at:end] + text[end:]


def mutants():
    """(text) of every mutant, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for _ in range(TREE_MUTANTS):
        doc = json.loads(json.dumps(rng.choice(BASES)))
        out.append(json.dumps(_tree_mutant(doc, rng)))
    for _ in range(BYTE_MUTANTS):
        out.append(_byte_mutant(json.dumps(rng.choice(BASES)), rng))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(text, monkeypatch=None):
    """[doc digest, exit code, stderr, stdout digest] of complete --json on text."""
    stdin = io.StringIO(text)
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", stdin)
    else:
        sys.stdin = stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["complete", "--json", "-"])
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return [_digest(text), code, err.getvalue(), _digest(out.getvalue())]


def test_mutants_reproduce_the_recorded_outcomes(monkeypatch):
    recorded = json.loads(FIXTURE.read_text())
    texts = mutants()
    assert len(texts) == len(recorded) == TREE_MUTANTS + BYTE_MUTANTS
    for text, want in zip(texts, recorded):
        assert _digest(text) == want[0]      # the same mutant as recorded
        got = outcome(text, monkeypatch)
        assert got == want, text
        if want[1] == 1:
            assert got[2].startswith("error: ") and "Traceback" not in got[2]
    # Most mutants are malformed; the rest still parse and complete (exit 0)
    # or are refuted (exit 3).  No exception escapes.
    codes = {str(want[1]) for want in recorded}
    assert codes == {"0", "1", "3"}
    assert sum(want[1] == 1 for want in recorded) > 400


@pytest.mark.parametrize("cell", [True, 1.0, 1.5, -1, 2**64, "0/0", "-1/2", None])
def test_every_malformed_value_kind_is_in_the_corpus(cell):
    docs = [json.loads(t) for t in mutants()[:TREE_MUTANTS]]
    values = [e["value"] for doc in docs if isinstance(doc.get("entries"), list)
              for e in doc["entries"] if isinstance(e, dict) and "value" in e]
    assert any(type(v) is type(cell) and v == cell for v in values)


if __name__ == "__main__":
    saved = sys.stdin
    try:
        rows = [outcome(text) for text in mutants()]
    finally:
        sys.stdin = saved
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} mutants, {sum(r[1] == 1 for r in rows)} malformed, "
          f"{sum(r[1] == 3 for r in rows)} not completable")
