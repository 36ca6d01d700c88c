"""QuadFn coefficients, values and kernels pinned on seeded inputs.

The inputs are regenerated here from seeds, without the quadratic code
under test:

- from_coeffs on 200 random coefficient lists (n = 1..8): negative,
  "inf", "p/q" and past-2**63 values, keys in both orientations, a later
  key overriding an earlier one, pairs left out, and a few lists given as
  (key, value) items instead of a dict;
- from_coeffs on keys and values it must refuse;
- onehot_relaxation on completions of induced matrices of generated and
  hand-made instances (omitted tables included), each with one entry
  changed (+-1, "inf", halved, or the same value spelled again), some
  with two, a few pairs of changes whose flat order differs from the
  order the message reports, and one matrix of the wrong size.

tests/data/quad_identity.json holds, per input, pair(u, w) on every
ordered pair u != w, eval_quad on seeded masks, kernel().scale, the dtype
of kernel().arrays(t) for a few t, and the kernel's scaled matrix
by_rank[ranks] with its infinity mask; for refused inputs, the exception
text.  They were recorded with the pair-source QuadFn (a dict of listed
pairs, or a CompletedMatrix read pair by pair).

    PYTHONPATH=src python3 tests/test_quad_identity.py

rewrites the fixture from the code on PYTHONPATH.
"""

import json
import random
from pathlib import Path

import pytest

from zfree import (CompletedMatrix, GenConfig, Instance, QuadFn, complete, eval_quad,
                   format_value, generate_instance, induced_partial_matrix,
                   onehot_relaxation)

FIXTURE = Path(__file__).resolve().parent / "data" / "quad_identity.json"

# Values a coefficient is drawn from: negative, zero, "inf", fractions and
# integers on both sides of 2**63.
VALUES = [-7, -1, 0, 0, 1, 2, 3, 5, 12, "inf", "inf", "1/2", "-3/4", "5/3", "7/6",
          2**63 - 1, 2**63, 2**63 + 5, -(2**64), 2**70, "1/9223372036854775809"]
TERMS = (1, 2, 8, 64)


def _coeffs(rng):
    """(linear, entries) of one random from_coeffs input."""
    n = rng.randint(1, 8)
    linear = [rng.choice(VALUES[:9] + ["1/2", "5/3", 2**63, "inf"]) for _ in range(n)]
    keys = [(u, w) for u in range(n) for w in range(u + 1, n)]
    listed = [k for k in keys if rng.random() < 0.7]
    items = []
    for u, w in listed:
        key = (u, w) if rng.random() < 0.5 else (w, u)
        items.append((key, rng.choice(VALUES)))
        if rng.random() < 0.15:                 # a later key overrides it
            again = key if rng.random() < 0.5 else key[::-1]
            items.append((again, rng.choice(VALUES)))
    if rng.random() < 0.2:
        return linear, items
    entries = {}
    for key, v in items:
        entries[key] = v
    return linear, entries


def from_coeffs_inputs():
    """(name, linear, entries) of every from_coeffs input, in a fixed order."""
    rng = random.Random(20261018)
    for k in range(200):
        linear, entries = _coeffs(rng)
        yield f"coeffs {k} n={len(linear)}", linear, entries
    yield "empty", [], {}
    yield "single", [4], {}
    yield "u == w", [0, 0, 0], {(0, 1): 1, (2, 2): 3}
    yield "w out of range", [0, 0, 0], {(0, 3): 1}
    yield "u out of range", [0, 0], [((5, 1), 2)]
    yield "negative index", [0, 0, 0], {(0, 1): 1, (-1, 2): 3}
    yield "bad value before bad pair", [0, 0], [((0, 1), "abc"), ((1, 1), 2)]
    yield "bad pair before bad value", [0, 0], [((1, 1), 2), ((0, 1), "abc")]
    yield "float value", [0, 0], {(0, 1): 1.5}
    yield "bad linear", ["x", 0], {(0, 1): 1}


def _masks(n, rng):
    masks = {0, (1 << n) - 1}
    for _ in range(8):
        masks.add(rng.getrandbits(n))
    return sorted(masks)


def _fn_record(f, rng):
    """Everything the record pins about one QuadFn."""
    n = f.n
    k = f.kernel()
    linear, by_rank = k.arrays(1)
    return {
        "pair": [[format_value(f.pair(u, w)) if u != w else None for w in range(n)]
                 for u in range(n)],
        "eval": [[m, format_value(eval_quad(f, m))] for m in _masks(n, rng)],
        "scale": k.scale,
        "dtype": [k.arrays(t)[1].dtype.name for t in TERMS],
        "linear": [int(v) for v in linear.tolist()],
        "linear_inf": k.linear_inf.tolist(),
        "scaled": [[int(v) for v in row] for row in by_rank[k.ranks].tolist()],
        "inf": (k.ranks == k.inf_rank).tolist(),
    }


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def coeffs_outcome(name, linear, entries):
    rng = random.Random(name)
    try:
        f = QuadFn.from_coeffs(linear, entries)
    except (TypeError, ValueError) as exc:
        return {"name": name, "error": _error(exc)}
    return {"name": name, **_fn_record(f, rng)}


def _instances():
    """(name, instance) of the instances whose completions are mutated."""
    for r, domains, inf in [(2, (2, 3), 0.0), (3, (2, 2, 2), 0.5), (4, (3, 1, 2, 2), 0.3),
                            (3, (3, 3, 3), 0.0), (5, (2,) * 5, 0.5), (4, (4, 2, 3, 1), 0.0),
                            (6, (2, 1) * 3, 0.3)]:
        yield (f"gen r={r} inf={inf}",
               generate_instance(GenConfig(r=r, domains=domains, seed=r + 11, inf_share=inf)))
    # Omitted tables read as zero cross pairs.
    yield "omitted tables", Instance((2, 2, 3), [[1, 0], [2, "1/2"], [0, 3, 1]],
                                     {(0, 2): [[2, 2, 2], [2, 2, 2]]})
    yield "one variable", Instance((3,), [[1, 2, 0]])


def _mutated(value, rng):
    raw = value.raw
    choice = rng.randrange(5)
    if choice == 0:
        return value                          # the same value spelled again
    if choice == 1 or raw == float("inf"):
        return "inf" if raw != float("inf") else 4
    if choice == 2:
        return raw + 1
    if choice == 3:
        return raw - 1
    return f"{raw}/2" if isinstance(raw, int) else raw / 2


def relaxation_inputs():
    """(name, instance, matrix) of every onehot_relaxation input."""
    rng = random.Random(20261019)
    cases = list(_instances())
    for k in range(120):
        name, inst = cases[k % len(cases)]
        done = complete(induced_partial_matrix(inst))
        entries = done.pairs()
        if not entries:
            yield f"{name} unchanged", inst, done
            continue
        changed = dict(entries)
        picks = rng.sample(range(len(entries)), 2 if k % 6 == 5 and len(entries) > 1 else 1)
        for at in picks:
            key, v = entries[at]
            changed[key] = _mutated(v, rng)
        yield (f"{name} mutant {k} at {[entries[at][0] for at in picks]}", inst,
               CompletedMatrix(done.n, changed))
    # Two mismatches whose flat order (u, w) differs from the (i, j, a, b)
    # order of the message: the pair of variables 0 and 1 is reported.
    name, inst = cases[1]
    done = complete(induced_partial_matrix(inst))
    for first, second in [((1, 2), (0, 4)), ((0, 4), (1, 2)), ((1, 5), (2, 4))]:
        changed = dict(done.pairs())
        for key in (first, second):
            changed[key] = "inf" if changed[key].is_finite else 4
        yield f"{name} order {first} {second}", inst, CompletedMatrix(done.n, changed)
    inst = cases[0][1]
    yield "wrong size", inst, CompletedMatrix(inst.n + 1, {(u, w): 1 for u in range(inst.n + 1)
                                                           for w in range(u + 1, inst.n + 1)})


def relaxation_outcome(name, inst, matrix):
    rng = random.Random(name)
    try:
        f = onehot_relaxation(inst, matrix)
    except ValueError as exc:
        return {"name": name, "error": _error(exc)}
    return {"name": name, **_fn_record(f, rng)}


def outcomes():
    rows = [coeffs_outcome(*case) for case in from_coeffs_inputs()]
    return rows + [relaxation_outcome(*case) for case in relaxation_inputs()]


RECORDED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
_COEFFS = list(from_coeffs_inputs())
_RELAX = list(relaxation_inputs())


@pytest.mark.parametrize("k", range(len(_COEFFS)), ids=[c[0] for c in _COEFFS])
def test_from_coeffs_matches_the_record(k):
    assert coeffs_outcome(*_COEFFS[k]) == RECORDED[k]


@pytest.mark.parametrize("k", range(len(_RELAX)), ids=[c[0] for c in _RELAX])
def test_onehot_relaxation_matches_the_record(k):
    assert relaxation_outcome(*_RELAX[k]) == RECORDED[len(_COEFFS) + k]


def test_the_corpus_covers_every_outcome():
    assert len(RECORDED) == len(_COEFFS) + len(_RELAX)
    coeffs, relax = RECORDED[:len(_COEFFS)], RECORDED[len(_COEFFS):]
    assert sum("error" in c for c in coeffs) >= 8
    assert {d for c in coeffs if "dtype" in c for d in c["dtype"]} == {"int64", "object"}
    assert any(c.get("scale", 1) > 1 for c in coeffs)
    assert any(any(map(any, c.get("inf", []))) for c in coeffs)
    refused = [c for c in relax if "disagrees" in c.get("error", "")]
    assert len(refused) >= 60 and len(relax) - len(refused) >= 20


if __name__ == "__main__":
    rows = outcomes()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} inputs, {sum('error' in r for r in rows)} refused")
