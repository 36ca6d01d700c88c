import itertools
import random

import pytest

from zfree import (CompletedMatrix, ExtValue, PartialMatrix,
                   check_anti_ultrametric, complete, completable_oracle,
                   dump_matrix, parse_partial_matrix, threshold_components,
                   validate_partial)
from zfree.errors import BudgetExceededError, NotCompletableError, ParseError
from zfree.values import INF, ZERO


class TestValidate:
    def test_all_undefined_ok(self):
        assert validate_partial(PartialMatrix(4)) is None

    def test_defined_bad_triple(self):
        h = PartialMatrix(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        v = validate_partial(h)
        assert v is not None

    def test_path_only_always_ok(self):
        h = PartialMatrix(4, {(0, 1): 9, (1, 2): 1, (2, 3): 5})
        assert validate_partial(h) is None

    def test_negative_rejected(self):
        h = PartialMatrix(2, {(0, 1): -3})
        v = validate_partial(h)
        assert v is not None


class TestComplete:
    def test_forced_value_on_triangle(self):
        h = PartialMatrix(3, {(0, 1): 1, (1, 2): 2})
        done = complete(h)
        assert done.value(0, 2).raw == 1
        assert check_anti_ultrametric(done) is None

    def test_path_bottlenecks(self):
        h = PartialMatrix(4, {(0, 1): 3, (1, 2): 1, (2, 3): 3})
        done = complete(h)
        assert done.value(0, 2).raw == 1
        assert done.value(0, 3).raw == 1
        assert done.value(1, 3).raw == 1
        assert check_anti_ultrametric(done) is None

    def test_bad_four_cycle(self):
        h = PartialMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2})
        with pytest.raises(NotCompletableError):
            complete(h)

    def test_single_undefined_pair_gets_zero(self):
        done = complete(PartialMatrix(2))
        assert done.value(0, 1) == ZERO

    def test_disconnected_pairs_get_global_minimum(self):
        h = PartialMatrix(4, {(0, 1): 5, (2, 3): 7})
        done = complete(h)
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert done.value(i, j).raw == 5
        assert check_anti_ultrametric(done) is None

    def test_keeps_defined_entries(self):
        entries = {(0, 1): 4, (1, 2): 4, (0, 2): 9}
        done = complete(PartialMatrix(3, entries))
        for k, v in entries.items():
            assert done.value(*k).raw == v

    def test_deterministic(self):
        h = PartialMatrix(5, {(0, 1): 2, (1, 2): 2, (3, 4): 1})
        assert complete(h) == complete(h)

    def test_infinite_entries(self):
        h = PartialMatrix(3, {(0, 1): "inf", (1, 2): "inf"})
        done = complete(h)
        assert done.value(0, 2) == INF


class TestOracle:
    def test_forest_always_yes(self):
        h = PartialMatrix(5, {(0, 1): 9, (1, 2): 1, (3, 4): 7})
        assert completable_oracle(h) is None

    def test_bad_four_cycle_returned(self):
        h = PartialMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2})
        cycle = completable_oracle(h)
        assert cycle is not None
        assert sorted(cycle) == [0, 1, 2, 3]

    def test_triangle_min_twice_yes(self):
        h = PartialMatrix(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
        assert completable_oracle(h) is None

    def test_chord_shifts_certificate_to_triangle(self):
        # a chord never rescues a bad cycle; it splits it into triangles and
        # the smallest bad chordless cycle becomes the certificate
        h = PartialMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2,
                              (0, 2): 1})
        assert completable_oracle(h) == [0, 2, 3]

    def test_chorded_consistent_cycle_is_completable(self):
        h = PartialMatrix(4, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2,
                              (0, 2): 2})
        assert completable_oracle(h) is None
        done = complete(h)
        assert check_anti_ultrametric(done) is None

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            completable_oracle(PartialMatrix(31), max_n=30)


def test_complete_iff_oracle_on_exhaustive_small_matrices():
    # every n=4 matrix with entries from {1, 2, undefined}
    pairs = list(itertools.combinations(range(4), 2))
    agree = 0
    for combo in itertools.product((None, 1, 2), repeat=6):
        entries = {p: v for p, v in zip(pairs, combo) if v is not None}
        h = PartialMatrix(4, entries)
        can = completable_oracle(h) is None
        try:
            done = complete(h)
            assert check_anti_ultrametric(done) is None
            assert can
        except NotCompletableError:
            assert not can
        agree += 1
    assert agree == 3**6


def test_complete_iff_oracle_on_random_matrices():
    rng = random.Random(17)
    completed = 0
    rejected = 0
    for _ in range(800):
        n = rng.randint(2, 6)
        entries = {}
        for u, w in itertools.combinations(range(n), 2):
            if rng.random() < 0.55:
                entries[(u, w)] = rng.choice([0, 1, 2, "inf"])
        h = PartialMatrix(n, entries)
        can = completable_oracle(h) is None
        try:
            done = complete(h)
        except NotCompletableError:
            rejected += 1
            assert not can
            continue
        completed += 1
        assert can
        assert check_anti_ultrametric(done) is None
        for (u, w), v in entries.items():
            assert done.value(u, w).raw == h.value(u, w).raw
    assert completed > 100 and rejected > 100


class TestThreshold:
    def test_infinite_cut_empty(self):
        m = CompletedMatrix(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        assert threshold_components(m, INF) == []

    def test_components_on_bad_matrix_are_not_cliques(self):
        # a path, not a clique: witnesses that this matrix fails the triangle
        # condition, while the function itself just reports components
        m = CompletedMatrix(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        comps = threshold_components(m, ExtValue(2))
        assert comps == [[0, 1, 2]]

    def test_every_component_is_a_clique_after_completion(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 6)
            entries = {}
            for u, w in itertools.combinations(range(n), 2):
                if rng.random() < 0.5:
                    entries[(u, w)] = rng.choice([0, 1, 3])
            try:
                done = complete(PartialMatrix(n, entries))
            except NotCompletableError:
                continue
            for alpha in {v for _, v in done.pairs()}:
                for comp in threshold_components(done, alpha):
                    for u, w in itertools.combinations(comp, 2):
                        assert done.value(u, w) >= alpha


class TestMatrixJson:
    def test_parse_and_dump_roundtrip(self):
        text = '{"n": 3, "entries": [{"i": 1, "j": 2, "value": "1/2"}]}'
        h = parse_partial_matrix(text)
        assert h.value(0, 1).raw.numerator == 1
        done = complete(h)
        again = parse_partial_matrix(dump_matrix(done))
        assert again.defined_count == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_partial_matrix('{"n": 2, "entries": [{"i": 1, "j": 3, "value": 0}]}')

    def test_rejects_duplicates(self):
        with pytest.raises(ParseError):
            parse_partial_matrix('{"n": 3, "entries": ['
                                 '{"i": 1, "j": 2, "value": 0},'
                                 '{"i": 2, "j": 1, "value": 1}]}')

    def test_bad_value_message_names_the_entry(self):
        text = ('{"n": 3, "entries": [{"i": 1, "j": 2, "value": 0},'
                '{"i": 2, "j": 3, "value": "-1"}]}')
        with pytest.raises(ParseError) as exc:
            parse_partial_matrix(text)
        assert str(exc.value) == "entries[1].value: negative value '-1'"
