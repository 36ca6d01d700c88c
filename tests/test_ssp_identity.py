"""CLI outputs of the solve path pinned on 424 seeded instances.

The instances are regenerated here from seeds: generated ones for r=2..12
with inf_share 0, 0.3 and 0.5; wide ones (r=6, d=21..23); half-integer and
coprime-denominator costs; costs past 2**63; pair tables over {0, 1} with
{0, 1} unary costs (many equal-distance ties); d=1 variables; omitted
tables; and +-1 mutants of one table cell.  tests/data/ssp_identity.json
holds, per instance, the SHA-256 of its document and of what `solve` and
`solve --json` printed, the outcome of `solve --no-check --json` (exit code
and stdout digest, or the text of an exception that escaped the CLI), and
the same for `solve --no-check --json --dump-aux` plus the digest of every
Graphviz file it wrote.  They were recorded with the shortest-path loop that
ran a heap Dijkstra over the fully materialised exchange graph.

    PYTHONPATH=src python3 tests/test_ssp_identity.py

rewrites the fixture from the code on PYTHONPATH.
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from zfree import GenConfig, Instance, dump_instance, generate_instance
from zfree.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "ssp_identity.json"


def _raw_tables(inst):
    return {p: [[v.raw for v in row] for row in t] for p, t in inst.binary_pairs()}


def _raw_unary(inst):
    return [[v.raw for v in row] for row in inst.unary]


def _remapped(inst, pair, unary):
    """inst with every finite table cell v replaced by pair(v) and every
    unary cost u by unary(u)."""
    binary = {p: [[pair(v) if v != float("inf") else v for v in row] for row in t]
              for p, t in _raw_tables(inst).items()}
    return Instance(inst.domains, [[unary(u) for u in row] for row in _raw_unary(inst)],
                    binary)


def _tied(inst, rng):
    """Pair values cut at one threshold into {0, 1} (a monotone map, so both
    input checks still hold) and unary costs drawn from {0, 1}."""
    cells = sorted({v for t in _raw_tables(inst).values() for row in t for v in row})
    cut = rng.choice(cells) if cells else 0
    binary = {p: [[0 if v < cut else 1 for v in row] for row in t]
              for p, t in _raw_tables(inst).items()}
    unary = [[rng.randint(0, 1) for _ in range(d)] for d in inst.domains]
    return Instance(inst.domains, unary, binary)


def _mutant(inst, rng):
    """inst with one finite table cell moved by +-1 (never below 0)."""
    tables = _raw_tables(inst)
    pair = rng.choice(sorted(tables))
    t = tables[pair]
    a, b = rng.randrange(len(t)), rng.randrange(len(t[0]))
    if t[a][b] != float("inf"):
        t[a][b] = t[a][b] + 1 if t[a][b] == 0 or rng.random() < 0.5 else t[a][b] - 1
    return Instance(inst.domains, _raw_unary(inst), tables)


def instances():
    """(name, Instance) of every input, in a fixed order."""
    for r in range(2, 13):
        for inf_share in (0.0, 0.3, 0.5):
            for seed in range(6):
                yield (f"gen r={r} inf={inf_share} seed={seed}",
                       generate_instance(GenConfig(r=r, dmax=4, seed=seed,
                                                   inf_share=inf_share)))
    for d in (21, 22, 23):
        for seed in range(2):
            yield (f"wide d={d} seed={seed}",
                   generate_instance(GenConfig(r=6, domains=(d,) * 6, seed=seed)))
    rng = random.Random(7)
    for seed in range(20):
        yield (f"half seed={seed}",
               generate_instance(GenConfig(r=rng.randint(2, 6), dmax=4, seed=100 + seed,
                                           rational_share=1.0, inf_share=0.3)))
    for seed in range(25):
        inst = generate_instance(GenConfig(r=rng.randint(2, 6), dmax=4, seed=200 + seed,
                                           inf_share=0.3))
        yield (f"coprime seed={seed}",
               _remapped(inst, lambda v: Fraction(v * 7919, 1000003),
                         lambda u: Fraction(u, 999983) + Fraction(u, 7)))
    for seed in range(25):
        inst = generate_instance(GenConfig(r=rng.randint(2, 6), dmax=4, seed=300 + seed,
                                           inf_share=0.3))
        yield (f"big seed={seed}",
               _remapped(inst, lambda v: v * (2**64 + 1), lambda u: u * 2**70 + 3))
    for seed in range(40):
        inst = generate_instance(GenConfig(r=rng.randint(2, 8), dmax=4, seed=400 + seed,
                                           levels=2))
        yield f"tied seed={seed}", _tied(inst, rng)
    for seed in range(25):
        domains = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(2, 6)))
        yield (f"d1 seed={seed}",
               generate_instance(GenConfig(r=len(domains), domains=domains,
                                           seed=500 + seed, inf_share=0.3)))
    for seed in range(25):
        inst = generate_instance(GenConfig(r=rng.randint(2, 6), dmax=4, seed=600 + seed,
                                           inf_share=0.3))
        binary = {p: t for p, t in _raw_tables(inst).items() if rng.random() < 0.5}
        yield f"omitted seed={seed}", Instance(inst.domains, _raw_unary(inst), binary)
    for seed in range(60):
        inst = generate_instance(GenConfig(r=rng.randint(3, 5), dmax=4, seed=700 + seed,
                                           inf_share=0.3))
        yield f"mutant seed={seed}", _mutant(inst, rng)


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _run(argv):
    """[exit code or escaped exception text, stdout digest, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return [code, _sha(out.getvalue()), err.getvalue()]


def outcomes(text: str, workdir: Path) -> dict:
    """What every solve variant printed or wrote on one document."""
    path = workdir / "instance.json"
    path.write_text(text)
    dot = workdir / "dot"
    out = {"document": _sha(text)}
    for command in ("solve", "solve --json", "solve --no-check --json"):
        out[command] = _run([*command.split(), str(path)])
    out["solve --no-check --json --dump-aux"] = _run(
        ["solve", "--no-check", "--json", "--dump-aux", str(dot), str(path)])
    files = sorted(dot.iterdir()) if dot.exists() else []
    out["dump-aux files"] = {p.name: _sha(p.read_bytes()) for p in files}
    for p in files:
        p.unlink()
    return out


CASES = list(instances())


def test_the_corpus_is_the_recorded_one():
    recorded = _recorded()
    assert [name for name, _ in CASES] == list(recorded)
    outs = recorded.values()
    assert len(CASES) >= 400
    # Solved and rejected inputs, an InvariantError from the unchecked loop,
    # and rounds that were dumped all occur.
    assert {o["solve --json"][0] for o in outs} == {0, 2}
    assert any(str(o["solve --no-check --json"][0]).startswith("raised InvariantError")
               for o in outs)
    assert sum(bool(o["dump-aux files"]) for o in outs) >= 300


@pytest.mark.parametrize("name, inst", CASES, ids=[name for name, _ in CASES])
def test_outputs_match_the_recorded_ones(name, inst, tmp_path):
    assert outcomes(dump_instance(inst), tmp_path) == _recorded()[name]


@functools.cache
def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, inst in CASES:
            rows[name] = outcomes(dump_instance(inst), Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                          for k, v in rows.items()) + "\n}\n")
    codes = [str(o["solve --no-check --json"][0])[:22] for o in rows.values()]
    print(f"{len(rows)} instances, {sum(c.startswith('raised') for c in codes)} raised "
          f"unchecked, {sum(bool(o['dump-aux files']) for o in rows.values())} dumped",
          file=sys.stderr)
