import itertools
import random

import pytest

from zfree import (GenConfig, Instance, SolveStatus, ViolationKind,
                   brute_force_min, build_relaxation, certify,
                   check_mnatural_quadratic, complete, generate_instance,
                   induced_partial_matrix, minimize_zfree, onehot_relaxation)
from zfree.values import INF


def worked_example():
    return Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[5, 0], [0, 0]]})


class TestSolve:
    def test_worked_example(self):
        rep = minimize_zfree(worked_example())
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.assignment == (1, 0)
        assert rep.value.raw == 1

    def test_rejects_jwp_counterexample(self):
        tables = {
            (0, 1): [[1, 1], [1, 1]],
            (0, 2): [[2, 2], [2, 2]],
            (1, 2): [[2, 2], [2, 2]],
        }
        inst = Instance((2, 2, 2), [[0, 0]] * 3, tables)
        rep = minimize_zfree(inst)
        assert rep.status is SolveStatus.REJECTED
        assert rep.violation.kind is ViolationKind.JWP
        assert rep.assignment is None

    def test_rejects_z_pattern(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[1, 2], [2, 2]]})
        rep = minimize_zfree(inst)
        assert rep.status is SolveStatus.REJECTED
        assert rep.violation.kind is ViolationKind.ZFREE

    def test_all_infinite_pair(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]],
                        {(0, 1): [["inf", "inf"], ["inf", "inf"]]})
        rep = minimize_zfree(inst)
        assert rep.status is SolveStatus.INFINITE_MINIMUM
        assert rep.value == INF
        assert rep.assignment is None

    def test_single_variable(self):
        inst = Instance((4,), [[3, "1/2", 2, "1/2"]], {})
        rep = minimize_zfree(inst)
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.assignment == (1,)
        assert str(rep.value) == "1/2"

    def test_single_value_domains(self):
        inst = Instance((1, 1), [[4], [5]], {(0, 1): [[2]]})
        rep = minimize_zfree(inst)
        assert rep.assignment == (0, 0)
        assert rep.value.raw == 11

    def test_skip_checks_same_answer(self):
        inst = generate_instance(GenConfig(r=4, dmax=3, seed=77))
        a = minimize_zfree(inst)
        b = minimize_zfree(inst, check_properties=False)
        assert a.value == b.value

    def test_report_shape(self):
        rep = minimize_zfree(worked_example())
        d = rep.to_dict()
        assert d == {"status": "optimal", "assignment": [2, 1], "value": 1,
                     "iterations": 1}
        assert "check" in rep.timings and "ssp" in rep.timings

    def test_rejected_report_shape(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[1, 2], [2, 2]]})
        d = minimize_zfree(inst).to_dict()
        assert d["status"] == "rejected"
        assert d["check"] == "zfree"
        assert "reason" in d


def test_matches_brute_force_on_random_instances():
    rng = random.Random(99)
    infinite = 0
    for seed in range(250):
        cfg = GenConfig(r=rng.randint(1, 5), dmax=3, levels=rng.randint(1, 4),
                        seed=seed, inf_share=0.3)
        inst = generate_instance(cfg)
        rep = minimize_zfree(inst)
        _, want = brute_force_min(inst)
        if rep.status is SolveStatus.OPTIMAL:
            assert rep.value == want, seed
        else:
            infinite += 1
            assert rep.status is SolveStatus.INFINITE_MINIMUM
            assert want == INF, seed
    assert infinite >= 1


def test_fast_relaxation_matches_reference_completion():
    rng = random.Random(13)
    for seed in range(60):
        r = rng.randint(1, 5)
        inst = generate_instance(GenConfig(r=r, dmax=4, seed=seed,
                                           inf_share=0.25))
        fast = build_relaxation(inst)
        # complete() reads the same kind of forest; the coefficient scan is
        # the independent oracle
        assert check_mnatural_quadratic(fast) is None, seed
        slow = onehot_relaxation(inst, complete(induced_partial_matrix(inst)))
        n = inst.layout.n
        assert fast.linear == slow.linear
        for u, w in itertools.combinations(range(n), 2):
            assert fast.pair(u, w) == slow.pair(u, w), (seed, u, w)


def test_fast_relaxation_handles_missing_tables():
    # omitted tables behave as all-zero; the completion pool must include 0
    inst = Instance((2, 2, 2), [[0, 1], [2, 0], [1, 1]],
                    {(0, 1): [[3, 3], [3, 3]]})
    fast = build_relaxation(inst)
    assert check_mnatural_quadratic(fast) is None
    slow = onehot_relaxation(inst, complete(induced_partial_matrix(inst)))
    for u, w in itertools.combinations(range(6), 2):
        assert fast.pair(u, w) == slow.pair(u, w)


class TestCertify:
    def test_generated_instances(self):
        for seed in (0, 5, 9):
            inst = generate_instance(GenConfig(r=3, dmax=3, seed=seed))
            res = certify(inst)
            assert res.jwp_ok and res.zfree_ok and res.completable
            assert res.agreement

    def test_z_pattern(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[1, 2], [2, 2]]})
        res = certify(inst)
        assert not res.zfree_ok
        assert not res.completable
        assert res.agreement
        assert res.bad_cycle is not None

    def test_two_variable_finite_instances(self):
        # with two variables the join condition is vacuous, so z-freeness
        # alone must decide completability
        rng = random.Random(4)
        flips = 0
        for _ in range(150):
            d = (rng.randint(2, 3), rng.randint(2, 3))
            table = [[rng.choice([0, 1, 2]) for _ in range(d[1])]
                     for _ in range(d[0])]
            inst = Instance(d, [[0] * d[0], [0] * d[1]], {(0, 1): table})
            res = certify(inst)
            assert res.jwp_ok
            assert res.agreement
            if not res.zfree_ok:
                flips += 1
        assert 0 < flips < 150
