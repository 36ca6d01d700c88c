"""Differential tests: the bottleneck check that solve and `zfree check` run
against the exhaustive check_jwp/check_zfree oracles, on seeded random
tables and on single-cell mutants of generated instances.  Every witness is
re-evaluated from the instance tables, independently of the code that
found it."""

import random

import pytest

from zfree import (GenConfig, Instance, SolveStatus, ViolationKind,
                   check_bottleneck, check_jwp, check_zfree, dump_instance,
                   generate_instance, minimize_zfree)
from zfree.cli import main


def _random_instance(rng, values):
    """r = 1..4 variables with 1..3 values each; a fifth of the tables
    omitted."""
    r = rng.randint(1, 4)
    domains = [rng.randint(1, 3) for _ in range(r)]
    unary = [[rng.randint(0, 3) for _ in range(d)] for d in domains]
    binary = {}
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.2:
                continue  # omitted table: zero everywhere
            binary[(i, j)] = [[rng.choice(values) for _ in range(domains[j])]
                              for _ in range(domains[i])]
    return Instance(domains, unary, binary)


def _mutant(inst, rng):
    """inst with one finite table cell moved by +-1, staying nonnegative."""
    tables = {p: [[v.raw for v in row] for row in t]
              for p, t in inst.binary_pairs()}
    cells = [(p, a, b) for p, t in tables.items()
             for a, row in enumerate(t) for b, v in enumerate(row)
             if v != float("inf")]
    if not cells:
        return None
    p, a, b = rng.choice(cells)
    old = tables[p][a][b]
    delta = rng.choice((-1, 1))
    tables[p][a][b] = old + delta if old + delta >= 0 else old - delta
    return Instance(inst.domains, [[v.raw for v in row] for row in inst.unary],
                    tables)


def _recheck(inst, v):
    """Re-evaluate a witness from the instance tables; return its kind."""
    if v.kind is ViolationKind.JWP:
        (i, a), (j, b), (k, c) = v.indices
        assert i < j and k not in (i, j)
        want = (inst.binary_value(i, a, j, b), inst.binary_value(i, a, k, c),
                inst.binary_value(j, b, k, c))
        assert v.values == want
        assert want[0] < want[1] and want[0] < want[2]
    else:
        assert v.kind is ViolationKind.ZFREE
        (i, a, b), (j, c, d) = v.indices
        assert i < j and a < b and c < d
        want = (inst.binary_value(i, a, j, c), inst.binary_value(i, a, j, d),
                inst.binary_value(i, b, j, c), inst.binary_value(i, b, j, d))
        assert v.values == want
        assert want.count(min(want)) == 1
    assert v.message
    return v.kind


def _compare(inst):
    """Assert the production check agrees with the oracles; True if valid."""
    jwp, zfree = check_jwp(inst), check_zfree(inst)
    fast = check_bottleneck(inst)
    valid = jwp is None and zfree is None
    assert (fast is None) == valid, (inst, jwp, zfree, fast)
    if fast is not None:
        kind = _recheck(inst, fast)
        assert (jwp if kind is ViolationKind.JWP else zfree) is not None
    return valid


def _tally(instances):
    outcomes = {True: 0, False: 0}
    for inst in instances:
        outcomes[_compare(inst)] += 1
    return outcomes


@pytest.mark.parametrize("values", [[0, 1, 2, "inf"], [0, 1, 2, 3, 4, 5]],
                         ids=["0-2-inf", "0-5"])
def test_random_tables_agree_with_oracles(values):
    rng = random.Random(f"bottleneck/{values}")
    outcomes = _tally(_random_instance(rng, values) for _ in range(800))
    assert outcomes[True] > 50 and outcomes[False] > 50


@pytest.mark.parametrize("inf_share", [0.0, 0.3])
def test_generated_mutants_agree_with_oracles(inf_share):
    rng = random.Random(f"mutants/{inf_share}")
    mutants = []
    for seed in range(300):
        cfg = GenConfig(r=rng.randint(2, 5), dmax=rng.randint(2, 4),
                        levels=rng.randint(1, 4), seed=seed,
                        inf_share=inf_share)
        inst = generate_instance(cfg)
        assert _compare(inst)
        mutant = _mutant(inst, rng)
        if mutant is not None:
            mutants.append(mutant)
    outcomes = _tally(mutants)
    assert outcomes[True] > 10 and outcomes[False] > 50


def test_solve_rejects_with_the_check_witness():
    rng = random.Random(11)
    rejected = 0
    for _ in range(300):
        inst = _random_instance(rng, [0, 1, 2, "inf"])
        report = minimize_zfree(inst, verify_completion=True)
        fast = check_bottleneck(inst)
        if fast is None:
            assert report.status is not SolveStatus.REJECTED
        else:
            rejected += 1
            assert report.status is SolveStatus.REJECTED
            assert report.violation == fast
    assert rejected > 50


def test_witness_kinds():
    jwp = Instance((2, 2, 2), [[0, 0]] * 3, {
        (0, 1): [[1, 1], [1, 1]],
        (0, 2): [[2, 2], [2, 2]],
        (1, 2): [[2, 2], [2, 2]],
    })
    v = check_bottleneck(jwp)
    assert _recheck(jwp, v) is ViolationKind.JWP
    z = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[1, 2], [2, 2]]})
    v = check_bottleneck(z)
    assert _recheck(z, v) is ViolationKind.ZFREE
    assert v == check_zfree(z)


# Single-cell mutants of mostly tied tables (unary costs zero).  Ties in the
# spanning forest decide which cycle closes the first violating pair, so
# these bytes pin the forest's tie rule.
TIED_MUTANTS = [
    ((3, 3, 2, 3), {(0, 1): [[3, 3, 3], [0, 1, 1], [3, 3, 3]], (0, 2): [[3, 3], [1, 1], [3, 3]],
                    (0, 3): [[3, 1, 3], [1, 4, 1], [3, 1, 3]], (1, 2): [[3, 3], [3, 3], [3, 3]],
                    (1, 3): [[3, 1, 3], [3, 1, 3], [3, 1, 3]], (2, 3): [[3, 1, 3], [3, 1, 3]]},
     "zfree", "z-freeness violated on variables 1,2, values {1,2}x{1,2}: unique minimum "
              "among ['3', '3', '0', '1']"),
    ((2, 3, 3, 2), {(0, 1): [[2, 0, 1], [1, 4, 4]], (0, 2): [[2, 2, 2], [1, 1, 1]],
                    (0, 3): [[1, 2], [4, 1]], (1, 2): [[2, 2, 2], [1, 1, 1], [1, 1, 1]],
                    (1, 3): [[1, 2], [4, 1], [4, 1]], (2, 3): [[1, 2], [1, 2], [1, 2]]},
     "zfree", "z-freeness violated on variables 1,2, values {1,2}x{1,2}: unique minimum "
              "among ['2', '0', '1', '4']"),
    ((3, 2, 2, 3), {(0, 1): [[0, 1], [2, 2], [1, 1]], (0, 2): [[4, 4], [1, 1], [4, 4]],
                    (0, 3): [[4, 1, 1], [1, 2, 2], [4, 1, 1]], (1, 2): [[1, 1], [1, 1]],
                    (1, 3): [[1, 2, 2], [1, 2, 2]], (2, 3): [[4, 1, 1], [4, 1, 1]]},
     "jwp", "jwp violated at (1,1),(2,1),(3,1): c(1,2)=0 is below both c(1,3)=4 and c(2,3)=1"),
    ((3, 3, 3, 3), {(0, 1): [[0, 1, 1], [1, 3, 3], [4, 1, 1]],
                    (0, 2): [[1, 1, 2], [3, 3, 1], [1, 1, 1]],
                    (0, 3): [[1, 1, 1], [3, 1, 3], [1, 4, 1]],
                    (1, 2): [[1, 1, 1], [3, 3, 1], [3, 3, 1]],
                    (1, 3): [[1, 4, 1], [3, 1, 3], [3, 1, 3]],
                    (2, 3): [[3, 1, 3], [3, 1, 3], [1, 1, 1]]},
     "jwp", "jwp violated at (1,1),(2,1),(3,3): c(1,2)=0 is below both c(1,3)=2 and c(2,3)=1"),
]


@pytest.mark.parametrize("domains, tables, check, reason", TIED_MUTANTS,
                         ids=[f"mutant{k}" for k in range(len(TIED_MUTANTS))])
def test_tied_mutants_pin_the_witness(domains, tables, check, reason, tmp_path, capsys):
    inst = Instance(domains, [[0] * d for d in domains], tables)
    path = tmp_path / "mutant.json"
    path.write_text(dump_instance(inst))
    assert main(["solve", "--json", str(path)]) == 2
    assert capsys.readouterr().out == (
        '{\n  "status": "rejected",\n'
        f'  "check": "{check}",\n'
        f'  "reason": "{reason}"\n}}\n')
    assert _recheck(inst, check_bottleneck(inst)).value == check
