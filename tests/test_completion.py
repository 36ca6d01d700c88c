import itertools
import random

import pytest

from zfree import (GenConfig, PartialMatrix, ViolationKind,
                   check_anti_ultrametric, complete, completable_oracle,
                   dump_matrix, generate_instance, induced_partial_matrix,
                   parse_partial_matrix, validate_partial)
from zfree.cli import main
from zfree.errors import BudgetExceededError, NotCompletableError, ParseError
from zfree.values import INF, ZERO


def assert_chordless_refutation(h, exc):
    """The cycle a refusal carries, re-read from h: its consecutive pairs
    (closing pair included) are defined, no other pair of its vertices is,
    and the smallest of its entries occurs once."""
    cycle = exc.cycle
    k = len(cycle)
    assert k >= 3 and len(set(cycle)) == k, cycle
    for s, t in itertools.combinations(range(k), 2):
        adjacent = t == s + 1 or (s, t) == (0, k - 1)
        assert h.defined(cycle[s], cycle[t]) == adjacent, (cycle, s, t)
    raws = [h.value(cycle[t - 1], cycle[t]).raw for t in range(k)]
    assert raws.count(min(raws)) == 1, (cycle, raws)
    assert exc.violation.kind is ViolationKind.ANTI_ULTRAMETRIC
    assert sorted(exc.violation.indices) == sorted(cycle)


def check_against_oracle(h):
    """complete() and validate_partial() agree with completable_oracle; a
    completion is anti-ultrametric and keeps every defined entry, a refusal
    carries a chordless cycle.  Returns whether h completed."""
    can = completable_oracle(h) is None
    assert (validate_partial(h) is None) == can
    try:
        done = complete(h)
    except NotCompletableError as exc:
        assert not can
        assert_chordless_refutation(h, exc)
        return False
    assert can
    assert check_anti_ultrametric(done) is None
    for (u, w), v in h.pairs():
        assert done.value(u, w).raw == v.raw
    return True


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
        assert v.kind is ViolationKind.NEGATIVE

    def test_bad_four_cycle_without_bad_triple(self):
        # no three entries are all defined, so no triple can refute this
        h = PartialMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2})
        assert completable_oracle(h) is not None
        v = validate_partial(h)
        assert v.kind is ViolationKind.ANTI_ULTRAMETRIC
        assert sorted(v.indices) == [0, 1, 2, 3]

    def test_triangle_keeps_triple_wording(self):
        h = PartialMatrix(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        assert str(validate_partial(h)) == (
            "defined triple (1,2,3) has entries 1, 2, 2 with a unique minimum")


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
        with pytest.raises(NotCompletableError) as exc:
            complete(h)
        assert_chordless_refutation(h, exc.value)
        assert sorted(exc.value.cycle) == [0, 1, 2, 3]

    def test_long_cycle_shrinks_to_chordless_triangle(self):
        # the pentagon 0-1-2-3-4 has the unique minimum (0, 4); the chords
        # (0, 2) and (0, 3) cut it down to the triangle (0, 3, 4)
        h = PartialMatrix(5, {(0, 1): 5, (1, 2): 5, (2, 3): 5, (3, 4): 5,
                              (0, 4): 1, (0, 2): 5, (0, 3): 5})
        with pytest.raises(NotCompletableError) as exc:
            complete(h)
        assert_chordless_refutation(h, exc.value)
        assert sorted(exc.value.cycle) == [0, 3, 4]

    def test_single_vertex(self):
        h = PartialMatrix(1)
        assert validate_partial(h) is None
        assert complete(h).pairs() == []

    def test_all_infinite_entries(self):
        h = PartialMatrix(4, {(0, 1): "inf", (1, 2): "inf", (0, 2): "inf",
                              (2, 3): "inf"})
        assert check_against_oracle(h)
        done = complete(h)
        assert all(v == INF for _, v in done.pairs())

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
    refused = 0
    for combo in itertools.product((None, 1, 2), repeat=6):
        entries = {p: v for p, v in zip(pairs, combo) if v is not None}
        refused += not check_against_oracle(PartialMatrix(4, entries))
    assert 0 < refused < 3**6


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
        if check_against_oracle(PartialMatrix(n, entries)):
            completed += 1
        else:
            rejected += 1
    assert completed > 100 and rejected > 100


@pytest.mark.parametrize("domains", [(10,) * 6, (30,) * 4, (40,) * 5])
def test_complete_on_large_induced_matrices_and_mutants(domains):
    # n = 60, 120 and 200, past the reach of completable_oracle
    inst = generate_instance(GenConfig(r=len(domains), domains=domains,
                                       seed=len(domains), inf_share=0.3))
    h = induced_partial_matrix(inst)
    done = complete(h)
    assert check_anti_ultrametric(done) is None
    for (u, w), v in h.pairs():
        assert done.value(u, w) == v

    # Lowering one entry of a 2x2 subtable to 0, below the other three,
    # leaves the chordless 4-cycle u-w2-u2-w (u, u2 of one variable, w, w2
    # of another) with a unique minimum, so every such mutant is refused.
    rng = random.Random(sum(domains))
    entries = dict(h.pairs())
    d = domains[0]
    mutants = 0
    while mutants < 5:
        i, j = sorted(rng.sample(range(len(domains)), 2))
        u, u2 = (i * d + a for a in rng.sample(range(d), 2))
        w, w2 = (j * d + b for b in rng.sample(range(d), 2))
        if min(h.value(u, w2).raw, h.value(u2, w).raw, h.value(u2, w2).raw) == 0:
            continue
        mutant = PartialMatrix(h.n, {**entries, (u, w): 0})
        assert validate_partial(mutant) is not None
        with pytest.raises(NotCompletableError) as exc:
            complete(mutant)
        assert_chordless_refutation(mutant, exc.value)
        mutants += 1


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


# Refused matrices with mostly tied entries.  Ties in the spanning forest
# decide which cycle closes the first violating pair, so these bytes pin
# the forest's tie rule.
TIED_REFUSALS = [
    (5, {(0, 2): 2, (0, 4): 2, (1, 2): 1, (1, 3): 2, (1, 4): 2, (2, 3): 2},
     "defined triple (2,3,4) has entries 1, 2, 2 with a unique minimum"),
    (6, {(0, 5): 1, (1, 2): 1, (1, 3): 2, (1, 4): 2, (2, 3): 2, (2, 4): 2, (4, 5): 2},
     "defined triple (2,3,5) has entries 1, 2, 2 with a unique minimum"),
    (5, {(0, 4): 2, (1, 2): 2, (1, 3): 2, (1, 4): 2, (2, 3): 1, (2, 4): 2, (3, 4): 2},
     "defined triple (3,4,5) has entries 1, 2, 2 with a unique minimum"),
    (5, {(0, 1): 2, (0, 3): 1, (1, 2): 1, (1, 4): 2, (2, 3): 2, (2, 4): 2, (3, 4): 2},
     "chordless defined cycle (1,2,5,4) has entries 2, 2, 2, 1 with a unique minimum"),
]


@pytest.mark.parametrize("n, entries, reason", TIED_REFUSALS,
                         ids=[f"matrix{k}" for k in range(len(TIED_REFUSALS))])
def test_tied_refusals_pin_the_cycle(n, entries, reason, tmp_path, capsys):
    h = PartialMatrix(n, entries)
    path = tmp_path / "matrix.json"
    path.write_text(dump_matrix(h))
    assert main(["complete", "--json", str(path)]) == 3
    assert capsys.readouterr().out == (
        '{\n  "status": "not-completable",\n'
        f'  "reason": "not completable: {reason}"\n}}\n')
    with pytest.raises(NotCompletableError) as err:
        complete(h)
    assert_chordless_refutation(h, err.value)
