"""CLI outputs pinned on a sample of instance documents.

tests/data/parse_identity.json holds 37 documents (generated, +-1 mutants,
wide, fractional, huge-integer, infinite-cost, omitted-table, single-value
domain and string-cell ones) with what every command printed on them
before instances were parsed into rank arrays: exit code, stdout and
stderr of solve, solve --json, solve --no-check --json, check,
check --json, oracle-min and certify (where small enough), and the
SHA-256 of every solve --dump-aux file.  An exception that escaped the CLI
is recorded by type and message (solve --no-check on an invalid instance
trips an InvariantError)."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from zfree.cli import main

CASES = json.loads((Path(__file__).resolve().parent / "data"
                    / "parse_identity.json").read_text())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_outputs_match_the_recorded_ones(case, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(case["document"])
    for command, want in case["outcomes"].items():
        if command == "dump-aux files":
            continue
        if command == "solve --dump-aux":
            argv = ["solve", "--dump-aux", str(tmp_path / "dot"), str(path)]
        else:
            argv = [*command.split(), str(path)]
        assert _run(argv) == want, command
    dot = tmp_path / "dot"
    files = sorted(dot.iterdir()) if dot.exists() else []
    assert ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
            == case["outcomes"]["dump-aux files"])


def test_the_sample_covers_every_outcome():
    codes = {str(c["outcomes"]["solve --no-check --json"][0])[:16] for c in CASES}
    assert codes == {"0", "raised Invariant"}
    assert {c["outcomes"]["solve"][0] for c in CASES} == {0, 2}
    assert sum(bool(c["outcomes"]["dump-aux files"]) for c in CASES) >= 20
