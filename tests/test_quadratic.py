import itertools
import math
import random
import subprocess
import sys

import pytest

from zfree import (Instance, QuadFn, complete, eval_quad, greedy_min_layer,
                   induced_partial_matrix, laminar_pair_values,
                   onehot_relaxation)
from zfree.values import INF


class TestEval:
    def test_zero_vector(self):
        f = QuadFn.from_coeffs([3, 4], {(0, 1): 5})
        assert eval_quad(f, 0).raw == 0

    def test_full_vector(self):
        f = QuadFn.from_coeffs([3, 4], {(0, 1): 5})
        assert eval_quad(f, 0b11).raw == 12

    def test_infinite_pair_absorbs(self):
        f = QuadFn.from_coeffs([0, 0, 1], {(0, 2): "inf"})
        assert eval_quad(f, 0b101) == INF

    def test_mask_out_of_range(self):
        f = QuadFn.from_coeffs([0], {})
        with pytest.raises(ValueError):
            eval_quad(f, 0b10)


class TestGreedy:
    def test_modular_picks_smallest(self):
        f = QuadFn.from_coeffs([5, 1, 2], {})
        assert greedy_min_layer(f, 2) == 0b110

    def test_pair_penalty_changes_choice(self):
        f = QuadFn.from_coeffs([5, 1, 2], {(1, 2): 10})
        mask = greedy_min_layer(f, 2)
        assert mask == 0b011
        assert eval_quad(f, mask).raw == 6

    def test_size_zero(self):
        f = QuadFn.from_coeffs([5, 1], {})
        assert greedy_min_layer(f, 0) == 0

    def test_infeasible_layer(self):
        f = QuadFn.from_coeffs([0, 0, 0],
                               {(0, 1): "inf", (0, 2): "inf", (1, 2): "inf"})
        assert greedy_min_layer(f, 2) is None

    def test_size_out_of_range(self):
        f = QuadFn.from_coeffs([0], {})
        with pytest.raises(ValueError):
            greedy_min_layer(f, 2)

    def test_precondition_check_survives_optimize_flag(self):
        # python -O drops assert statements and __debug__ blocks; the
        # M-natural precondition check must still refuse this function,
        # whose pair coefficients 1, 2, 2 have a unique minimum
        code = ("from zfree import QuadFn, greedy_min_layer\n"
                "from zfree.errors import InvariantError\n"
                "f = QuadFn.from_coeffs([0, 0, 0], "
                "{(0, 1): 1, (0, 2): 2, (1, 2): 2})\n"
                "try:\n"
                "    greedy_min_layer(f, 2)\n"
                "except InvariantError:\n"
                "    print('InvariantError')\n")
        res = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert res.stdout == "InvariantError\n", res.stderr


def exhaustive_layer_min(f, size):
    best = None
    for combo in itertools.combinations(range(f.n), size):
        mask = 0
        for u in combo:
            mask |= 1 << u
        v = eval_quad(f, mask)
        if best is None or v < best:
            best = v
    return best


def test_greedy_matches_exhaustive_on_random_valid_quadratics():
    rng = random.Random(41)
    for trial in range(150):
        n = rng.randint(1, 8)
        pairs = laminar_pair_values(n, rng, levels=rng.randint(1, 3))
        if rng.random() < 0.3 and pairs:
            top = max(pairs.values())
            pairs = {k: (math.inf if v == top else v) for k, v in pairs.items()}
        linear = [rng.randint(0, 6) for _ in range(n)]
        f = QuadFn.from_coeffs(linear, pairs)
        for size in range(n + 1):
            mask = greedy_min_layer(f, size)
            want = exhaustive_layer_min(f, size)
            if mask is None:
                assert want == INF, (trial, size)
            else:
                assert eval_quad(f, mask) == want, (trial, size)


class TestRelaxation:
    def test_construction_trace(self):
        inst = Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[5, 0], [0, 0]]})
        part = induced_partial_matrix(inst)
        assert part.n == 4
        assert part.defined_count == 4
        assert part.value(0, 2).raw == 5
        assert not part.defined(0, 1)
        assert not part.defined(2, 3)

        f = onehot_relaxation(inst, complete(part))
        assert [v.raw for v in f.linear] == [0, 1, 0, 2]
        assert f.pair(0, 1).raw == 0
        assert f.pair(2, 3).raw == 0
        assert f.pair(0, 2).raw == 5

    def test_all_zero_tables(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, 0]]})
        f = onehot_relaxation(inst, complete(induced_partial_matrix(inst)))
        for u, w in itertools.combinations(range(4), 2):
            assert f.pair(u, w).raw == 0

    def test_single_variable(self):
        inst = Instance((3,), [[2, 0, 1]], {})
        part = induced_partial_matrix(inst)
        assert part.defined_count == 0
        f = onehot_relaxation(inst, complete(part))
        for u, w in itertools.combinations(range(3), 2):
            assert f.pair(u, w).raw == 0

    def test_mismatched_matrix_rejected(self):
        inst = Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[5, 0], [0, 0]]})
        other = Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[4, 0], [0, 0]]})
        good = complete(induced_partial_matrix(other))
        with pytest.raises(ValueError):
            onehot_relaxation(inst, good)

    def test_one_hot_points_evaluate_to_instance_cost(self):
        from zfree import GenConfig, evaluate_instance, generate_instance, one_hot_encode
        rng = random.Random(9)
        for seed in range(40):
            inst = generate_instance(GenConfig(r=3, dmax=3, seed=seed, inf_share=0.25))
            f = onehot_relaxation(inst, complete(induced_partial_matrix(inst)))
            for x in itertools.product(*[range(d) for d in inst.domains]):
                mask = one_hot_encode(inst, x)
                assert eval_quad(f, mask) == evaluate_instance(inst, x)
