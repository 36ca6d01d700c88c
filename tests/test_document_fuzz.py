"""Seeded mutations of instance documents against recorded CLI outcomes.

Each mutant is a small instance document changed by one JSON-tree edit (a
cell turned into a bool, a float, a negative, an int past 2**63, a padded or
malformed string; a ragged row, a wrong table shape, a duplicate or
reversed pair, an unknown or missing key, ...) or by one ASCII byte edit of
its text.  tests/data/document_fuzz.json holds, per mutant, the SHA-256 of
its bytes and the exit code, stderr and stdout digest that
`zfree solve --json` gave on it, recorded with the cell-by-cell parser
that preceded the array parse path.  Every mutant must reproduce them
exactly, with no exception escaping the CLI.

    PYTHONPATH=src python3 tests/test_document_fuzz.py

rewrites the fixture from the code on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from zfree.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "document_fuzz.json"
SEED = 20261018
TREE_MUTANTS = 480
BYTE_MUTANTS = 240

# Small valid documents: omitted tables, a d=1 variable, fractions and inf.
BASES = [
    {"r": 2, "domains": [2, 3], "unary": [[0, 1], ["1/2", 2, 0]],
     "binary": [{"i": 1, "j": 2, "table": [[4, 1, 1], [1, 1, 1]]}]},
    {"r": 3, "domains": [2, 2, 2], "unary": [[0, 1], [2, 0], [1, 1]],
     "binary": [{"i": 1, "j": 2, "table": [[3, 1], [1, 1]]},
                {"i": 1, "j": 3, "table": [[2, 2], [1, 1]]},
                {"i": 2, "j": 3, "table": [[2, 1], [2, 1]]}]},
    {"r": 3, "domains": [3, 1, 2], "unary": [[0, 0, 5], [1], [0, "3/2"]],
     "binary": [{"i": 1, "j": 3, "table": [["inf", 1], [1, 1], [1, 1]]}]},
    {"r": 4, "domains": [2, 2, 2, 2], "unary": [[0, 0]] * 4,
     "binary": [{"i": i, "j": j, "table": [[1, 1], [1, 1]]}
                for i in range(1, 5) for j in range(i + 1, 5)]},
]

CELLS = [True, False, 1.0, 1.5, -1, -7, 2**63, 2**64, -(2**63) - 1, 2**63 - 1,
         " 3 ", "0/0", "-1/2", "1/0", "3/ 2", "abc", "", "inf", " inf", "-inf",
         "Infinity", None, [], {}, [1], "07", "+3", "2/4"]


def _tables(doc):
    entries = doc.get("binary") if isinstance(doc, dict) else None
    return [e["table"] for e in (entries if isinstance(entries, list) else [])
            if isinstance(e, dict) and isinstance(e.get("table"), list)]


def _tree_mutant(doc, rng):
    """doc changed in place by one random edit."""
    tables = _tables(doc)
    kind = rng.randrange(14)
    if kind <= 3 and tables:                       # one table cell
        t = rng.choice(tables)
        row = rng.choice(t)
        row[rng.randrange(len(row))] = rng.choice(CELLS)
    elif kind == 4:                                # one unary cell
        row = rng.choice(doc["unary"])
        row[rng.randrange(len(row))] = rng.choice(CELLS)
    elif kind == 5 and tables:                     # ragged table row
        row = rng.choice(rng.choice(tables))
        row.pop() if rng.random() < 0.5 else row.append(1)
    elif kind == 6:                                # ragged unary row
        row = rng.choice(doc["unary"])
        row.pop() if rng.random() < 0.5 else row.append(0)
    elif kind == 7 and tables:                     # wrong table shape
        t = rng.choice(tables)
        choice = rng.randrange(4)
        if choice == 0:
            t.pop()
        elif choice == 1:
            t.append(list(t[0]))
        elif choice == 2:
            t[rng.randrange(len(t))] = rng.choice([None, 3, "x", {}, (1,)])
        else:
            doc["binary"][0]["table"] = rng.choice([[], {}, 7, [[]]])
    elif kind == 8 and doc.get("binary"):          # duplicate or reversed pair
        entries = doc["binary"]
        e = rng.choice(entries)
        if rng.random() < 0.5:
            entries.append(json.loads(json.dumps(e)))
        else:
            e["i"], e["j"] = e["j"], e["i"]
    elif kind == 9:                                # unknown key
        where = rng.choice([doc, *doc.get("binary", [])])
        where[rng.choice(["x", "R", "tables", "value"])] = 1
    elif kind == 10:                               # missing key
        where = rng.choice([doc, *doc.get("binary", [])])
        del where[rng.choice(sorted(where))]
    elif kind == 11:                               # bad r or domains
        if rng.random() < 0.5:
            doc["r"] = rng.choice([0, -1, "2", True, 2.0, doc["r"] + 1, None])
        else:
            d = doc["domains"]
            d[rng.randrange(len(d))] = rng.choice([0, -1, True, "2", 2.5, 5, None])
    elif kind == 12 and doc.get("binary"):         # bad pair indices
        e = rng.choice(doc["binary"])
        e[rng.choice("ij")] = rng.choice([0, -1, doc["r"] + 1, True, "1", 1.0])
    else:                                          # wrong container types
        key = rng.choice(["binary", "unary", "domains"])
        if key == "binary" and doc.get("binary") and rng.random() < 0.5:
            doc["binary"][0] = rng.choice([[], "x", 3, None])
        else:
            doc[key] = rng.choice([{}, "x", 3, None, []])
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
    """[doc digest, exit code, stderr, stdout digest] of solve --json on text."""
    stdin = io.StringIO(text)
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", stdin)
    else:
        sys.stdin = stdin
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--json", "-"])
    return [_digest(text), code, err.getvalue(), _digest(out.getvalue())]


def test_mutants_reproduce_the_recorded_outcomes(monkeypatch):
    recorded = json.loads(FIXTURE.read_text())
    texts = mutants()
    assert len(texts) == len(recorded) == TREE_MUTANTS + BYTE_MUTANTS
    malformed = 0
    for text, want in zip(texts, recorded):
        assert _digest(text) == want[0]      # the same mutant as recorded
        got = outcome(text, monkeypatch)
        assert got == want, text
        if want[1] == 1:
            malformed += 1
            assert got[2].startswith("error: ") and "Traceback" not in got[2]
    # Most mutants are malformed; the rest still parse and solve or reject.
    assert malformed > 500


@pytest.mark.parametrize("cell", [True, 1.0, 1.5, -1, -(2**63) - 1, "0/0", "-1/2"])
def test_every_malformed_cell_kind_is_in_the_corpus(cell):
    docs = [json.loads(t) for t in mutants()[:TREE_MUTANTS]]
    cells = [c for doc in docs for t in _tables(doc) for row in t
             if isinstance(row, list) for c in row]
    assert any(type(c) is type(cell) and c == cell for c in cells)


@pytest.mark.parametrize("command", ["solve", "complete"])
@pytest.mark.parametrize("data, message", [
    (b'{"r": 1, "domains": [1], "unary": [[\xff]]}', "is not text: 'utf-8' codec"),
    (b"[" * 100000, "invalid JSON: nested too deeply"),
])
def test_undecodable_and_deeply_nested_files_exit_1(tmp_path, command, data, message):
    # Both escaped the CLI as a traceback before: UnicodeDecodeError from
    # reading the file, RecursionError from json.loads.
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "zfree", command, str(path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


if __name__ == "__main__":
    saved = sys.stdin
    try:
        rows = [outcome(text) for text in mutants()]
    finally:
        sys.stdin = saved
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} mutants, {sum(r[1] == 1 for r in rows)} malformed")
