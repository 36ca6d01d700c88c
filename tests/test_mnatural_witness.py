"""QuadFn.mnatural_violation names the exact first hit of the cubic
check_mnatural_quadratic scan from the bad pairs of the forest: whole
Violations (kind, indices, values and text) compared on random functions
and on the relaxations of rejected single-cell mutants up to n = 2002."""

import random

import pytest

from test_mnatural_verdict import VALUES, _invalid_mutant
from zfree import QuadFn, build_relaxation, minimize_zfree
from zfree.errors import InvariantError
from zfree.pipeline import _build_forest
from zfree.properties import ViolationKind, check_mnatural_quadratic


def _dense_function(rng):
    """A function on up to 40 positions whose pairs draw from a few values,
    so that most are refuted, many pairs are bad and a triple's smallest
    index is often its third vertex's."""
    n = rng.randint(2, 40)
    values = rng.sample([v for v in VALUES if v not in (-2, -1)], rng.randint(1, 4))
    if rng.random() < 0.2:
        values.append(rng.choice([-2, -1]))
    pairs = {(u, w): rng.choice(values)
             for u in range(n) for w in range(u + 1, n) if rng.random() < 0.9}
    return QuadFn.from_coeffs([rng.choice([0, 1, "1/2"]) for _ in range(n)], pairs)


def test_the_witness_is_the_scans_first_hit_on_random_functions():
    rng = random.Random(17)
    kinds = {None: 0, ViolationKind.NEGATIVE: 0, ViolationKind.ANTI_ULTRAMETRIC: 0}
    for _ in range(400):
        f = _dense_function(rng)
        want = check_mnatural_quadratic(f)
        assert f.mnatural_violation() == want
        kinds[None if want is None else want.kind] += 1
    assert kinds[ViolationKind.ANTI_ULTRAMETRIC] > 250 and min(kinds.values()) > 5, kinds


def test_an_infinite_linear_coefficient_raises_the_scans_error():
    f = QuadFn.from_coeffs([0, "inf", 1, "inf"], {(0, 1): -1})
    with pytest.raises(ValueError) as scan:
        check_mnatural_quadratic(f)
    for _ in range(2):
        with pytest.raises(ValueError) as witness:
            f.mnatural_violation()
        assert str(witness.value) == str(scan.value) == "linear coefficient 1 must be finite"


@pytest.mark.parametrize("r, d, seed", [(6, 21, 3), (10, 21, 7), (13, 154, 7)],
                         ids=["n126", "n210", "n2002"])
def test_the_witness_is_the_scans_first_hit_on_mutant_relaxations(r, d, seed):
    mutant = _invalid_mutant(r, d, seed)
    f = build_relaxation(mutant, _build_forest(mutant))
    want = check_mnatural_quadratic(QuadFn(f.linear, f.ranks, f.pool))
    assert want is not None and f.mnatural_violation() == want
    with pytest.raises(InvariantError) as exc:
        minimize_zfree(mutant, check_properties=False)
    assert str(exc.value) == f"completion produced a bad relaxation: {want}"
