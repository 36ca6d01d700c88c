"""One M-natural verdict at every size: QuadFn.mnatural_violation decides
by the bottleneck forest, a relaxation takes its verdict from the solve's
forest, and a refutation's witness comes from the pair scan
(QuadFn._pair_violation), not from the cubic check_mnatural_quadratic,
which a solve runs only when verify_completion asks for it.  Here the
cubic scan is the oracle for both the verdict and the witness."""

import functools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from zfree import (GenConfig, Instance, QuadFn, SolveStatus, build_relaxation,
                   check_bottleneck, dump_instance, generate_instance,
                   laminar_pair_values, minimize_zfree, pipeline, properties, quadratic)
from zfree.errors import InvariantError
from zfree.pipeline import _build_forest
from zfree.properties import check_mnatural_quadratic

# Pair values the random functions draw from: negative, zero, fractional
# and infinite among them.
VALUES = [-2, -1, 0, 0, 1, 2, 3, "1/2", "5/3", "7/2", "inf"]


def _agree(f):
    """The forest's verdict on f against the exhaustive scan; returns
    whether f is M-natural-convex."""
    want = check_mnatural_quadratic(f)
    assert (f._pair_violation() is not None) is (want is not None)
    assert f.mnatural_violation() == want
    return want is None


def _random_function(rng):
    n = rng.randint(1, 9)
    linear = [rng.choice([0, 1, 5, "3/2"]) for _ in range(n)]
    if rng.random() < 0.5:
        # Laminar values are M-natural-convex; map them monotonically onto
        # the pool, top level sometimes infinite, then maybe break a pair.
        base = laminar_pair_values(n, rng, levels=rng.randint(1, 3))
        levels = sorted(set(base.values()))
        image = sorted(rng.sample([0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3), 7], len(levels))
                       if len(levels) <= 7 else levels)
        if rng.random() < 0.3 and image:
            image[-1] = "inf"
        to = dict(zip(levels, image))
        pairs = {k: to[v] for k, v in base.items()}
        if pairs and rng.random() < 0.5:
            key = rng.choice(sorted(pairs))
            pairs[key] = rng.choice(VALUES)
    else:
        pairs = {(u, w): rng.choice(VALUES)
                 for u in range(n) for w in range(u + 1, n) if rng.random() < 0.8}
    # Missing pairs are zero coefficients; drop a few more.
    for key in [k for k in pairs if rng.random() < 0.1]:
        del pairs[key]
    return QuadFn.from_coeffs(linear, pairs)


def test_the_forest_verdict_agrees_on_random_functions():
    rng = random.Random(2017)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        outcomes[_agree(_random_function(rng))] += 1
    assert min(outcomes.values()) > 1000, outcomes


def _mutants(inst, rng):
    """Up to two single-cell +-1 mutants of a random pair table."""
    i, j = sorted(rng.sample(range(inst.r), 2))
    a, b = rng.randrange(inst.domains[i]), rng.randrange(inst.domains[j])
    old = inst.table(i, j)[a][b]
    if not old.is_finite:
        return
    unary = [[v.raw for v in row] for row in inst.unary]
    for new in (old.raw + 1, old.raw - 1):
        if new >= 0:
            tables = {p: [[v.raw for v in row] for row in t] for p, t in inst.binary_pairs()}
            tables[(i, j)][a][b] = new
            yield Instance(inst.domains, unary, tables)


def test_the_forest_verdict_agrees_on_relaxations():
    rng = random.Random(15)
    outcomes = {True: 0, False: 0}
    seen = 0
    for seed in range(500):
        cfg = GenConfig(r=rng.randint(2, 4), dmax=rng.randint(1, 4),
                        levels=rng.randint(1, 3), seed=seed,
                        inf_share=rng.choice([0.0, 0.5]))
        inst = generate_instance(cfg)
        for source in (inst, *_mutants(inst, rng)):
            seen += 1
            valid = check_bottleneck(source) is None
            # The verdict recorded from the solve's forest ...
            forest = _build_forest(source)
            f = build_relaxation(source, forest)
            assert f._verdict is not quadratic._UNCHECKED
            assert _agree(f) is valid
            # ... and the one a fresh function over its arrays decides alone.
            g = QuadFn(f.linear, f.ranks, f.pool)
            assert g._verdict is quadratic._UNCHECKED
            assert _agree(g) is valid
            outcomes[valid] += 1
    assert seen >= 1000 and min(outcomes.values()) > 200, outcomes


def test_the_forest_decides_before_build_relaxation_fills_its_floor():
    # Unasked before build_relaxation, the forest still answers for the
    # instance it was built from, not for the filled floor.
    inst = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[1, 2], [2, 2]]})
    want = check_bottleneck(inst)
    assert want is not None
    forest = _build_forest(inst)
    f = build_relaxation(inst, forest)
    cycle = forest.violation()
    assert cycle is not None and f.ranks is forest.floor
    assert pipeline._cycle_violation(inst, cycle) == want
    assert f._verdict is quadratic._REFUTED
    assert f.mnatural_violation() == check_mnatural_quadratic(f) is not None
    assert not hasattr(forest, "refuted")


def test_greedy_checks_a_large_function_under_optimize_flag():
    # n = 60: the check no longer depends on n, and python -O keeps it.
    code = ("from zfree import QuadFn, greedy_min_layer\n"
            "from zfree.errors import InvariantError\n"
            "f = QuadFn.from_coeffs([0] * 60, {(0, 1): 1, (0, 2): 2, (1, 2): 2})\n"
            "try:\n"
            "    greedy_min_layer(f, 2)\n"
            "except InvariantError as e:\n"
            "    print(e)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.stdout == (
        "greedy needs an M-natural-convex function: pair coefficients on (1,2,3) "
        "are 1, 2, 2: unique minimum breaks M-natural-convexity\n"), res.stderr


def _invalid_mutant(r, d, seed):
    """A single-cell +-1 mutant of a generated r x d instance that the
    bottleneck check rejects."""
    inst = generate_instance(GenConfig(r=r, domains=(d,) * r, seed=seed))
    rng = random.Random(seed)
    for _ in range(200):
        for mutant in _mutants(inst, rng):
            if check_bottleneck(mutant) is not None:
                return mutant
    raise AssertionError("no rejected single-cell mutant")


def test_an_unchecked_solve_of_an_invalid_instance_raises(tmp_path):
    mutant = _invalid_mutant(6, 21, 3)
    assert mutant.n == 126
    with pytest.raises(InvariantError, match="^completion produced a bad relaxation: "):
        minimize_zfree(mutant, check_properties=False)
    assert minimize_zfree(mutant).status is SolveStatus.REJECTED
    path = tmp_path / "mutant.json"
    path.write_text(dump_instance(mutant))
    res = subprocess.run([sys.executable, "-m", "zfree", "solve", "--no-check", str(path)],
                         capture_output=True, text=True)
    assert res.returncode != 0 and res.stdout == ""
    assert "InvariantError: completion produced a bad relaxation: " in res.stderr


@functools.cache
def _generated(r, domains, inf_share):
    return generate_instance(GenConfig(r=r, domains=domains, seed=7, inf_share=inf_share))


@pytest.fixture
def no_scan(monkeypatch):
    def refuse(f):
        raise AssertionError("scanned a relaxation")

    for module in (properties, quadratic, pipeline):
        monkeypatch.setattr(module, "check_mnatural_quadratic", refuse)


@pytest.mark.parametrize("r, domains, inf_share", [
    (12, (4,) * 12, 0.0),
    (26, (2, 3) * 13, 0.5),
    (26, (2, 3) * 13, 0.0),
    (6, (20,) * 6, 0.0),
    (6, (21,) * 6, 0.0),
    (13, (154,) * 13, 0.0),
], ids=["n48", "n65_inf", "n65", "n120", "n126", "n2002"])
@pytest.mark.parametrize("checked", [True, False], ids=["checked", "no-check"])
def test_valid_solves_never_scan(no_scan, r, domains, inf_share, checked):
    inst = _generated(r, domains, inf_share)
    report = minimize_zfree(inst, check_properties=checked)
    assert report.status is not SolveStatus.REJECTED
    with pytest.raises(AssertionError, match="scanned"):
        minimize_zfree(inst, verify_completion=True)
