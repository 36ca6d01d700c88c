"""The solver's exact integer kernel against the exhaustive oracle, off the
generator's happy path: costs past int64, large coprime denominators,
infinite costs, single-value domains and omitted tables.  Plus pinned
outputs, so that tie-breaking and the Graphviz dumps cannot drift."""

import contextlib
import hashlib
import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zfree import (INF, GenConfig, Instance, OneHotLayout, QuadFn, SolveStatus,
                   brute_force_min,
                   build_exchange_graph, build_relaxation, check_jwp, check_zfree,
                   dump_instance, eval_quad, evaluate_instance, generate_instance,
                   greedy_min_layer, minimize_zfree, shortest_path_min_hops)
from zfree.cli import main
from zfree.errors import InvariantError
from zfree.intersection import ArcKind
from zfree.pipeline import _warm_start


def remapped(inst, pair, unary):
    """inst with every finite binary cell v replaced by pair(v) and every
    unary cost u by unary(u).  pair must be strictly increasing with
    pair(0) = 0, which keeps both input checks (omitted tables stay 0)."""
    binary = {p: [[v if not v.is_finite else pair(v.raw) for v in row] for row in t]
              for p, t in inst.binary_pairs()}
    return Instance(inst.domains, [[unary(v.raw) for v in row] for row in inst.unary],
                    binary)


def assert_matches_oracle(inst):
    """The solve agrees with brute force; a rejection with the exhaustive
    checks.  Returns the report."""
    report = minimize_zfree(inst)
    if report.status is SolveStatus.REJECTED:
        assert check_jwp(inst) is not None or check_zfree(inst) is not None
        return report
    _, want = brute_force_min(inst)
    if report.status is SolveStatus.OPTIMAL:
        assert report.value == want
        assert evaluate_instance(inst, report.assignment) == want
    else:
        assert report.status is SolveStatus.INFINITE_MINIMUM
        assert want == INF
    return report


def generated(count, seed0, **cfg):
    rng = random.Random(seed0)
    for seed in range(count):
        yield generate_instance(GenConfig(r=rng.randint(2, 5), dmax=4, seed=seed0 + seed,
                                          **cfg))


class TestAgainstOracle:
    def test_costs_past_int64_take_object_arrays(self):
        big = 2**64 + 1
        for inst in generated(25, 100, inf_share=0.3):
            inst = remapped(inst, lambda v: v * big, lambda u: u * 2**70 + 3)
            f = build_relaxation(inst)
            assert f.kernel().arrays(2)[1].dtype == object
            assert_matches_oracle(inst)

    def test_int64_up_to_the_bound(self):
        # Pair values scaled so that 2r + 2 of the largest one come close to
        # 2**63: still int64, and still exact.
        for inst in generated(25, 200, inf_share=0.3):
            top = max((v.raw for _, t in inst.binary_pairs() for row in t for v in row
                       if v.is_finite), default=0) or 1
            terms = 2 * inst.r + 2
            k = (2**63 - 1) // (terms * top)
            inst = remapped(inst, lambda v: v * k, lambda u: u * 2**54)
            f = build_relaxation(inst)
            assert f.kernel().scale == 1
            assert f.kernel().arrays(terms)[1].dtype == np.int64
            assert top * k * terms > 2**62
            assert_matches_oracle(inst)

    @pytest.mark.parametrize("top,dtype", [((2**63 - 1) // 8, np.int64),
                                           (2**63 // 11 * 2, object)],
                             ids=["int64", "object"])
    def test_worst_case_swap_lengths(self, top, dtype):
        # Negative coefficients inside x, positive ones towards x: every swap
        # changes f by 2r * top, which passes 2**63 for the second top while
        # r + 2 values of that size still fit.
        layout = OneHotLayout((3, 3, 3))
        x = (0, 3, 6)
        linear = [-top if u in x else top for u in range(9)]
        pairs = {(u, w): -top if w in x else top
                 for u in x for w in range(9) if w not in x or u < w}
        f = QuadFn.from_coeffs(linear, pairs)
        assert f.kernel().arrays(8)[1].dtype == dtype
        graph = build_exchange_graph(f, 0b1001001, 0b100100100, layout)
        lengths = {(a.tail, a.head): a.length
                   for a in graph.arcs if a.kind is ArcKind.EXCHANGE}
        assert lengths == {(u, w): 6 * top for u in x for w in range(9) if w not in x}

    def test_large_coprime_denominators(self):
        scales = set()
        for inst in generated(25, 300, inf_share=0.3):
            inst = remapped(inst, lambda v: Fraction(v * 7919, 1000003),
                            lambda u: Fraction(u, 999983) + Fraction(u, 7))
            scales.add(build_relaxation(inst).kernel().scale)
            assert_matches_oracle(inst)
        assert 7 * 999983 * 1000003 in scales

    @pytest.mark.parametrize("inf_share", [0.3, 0.5])
    def test_infinite_costs(self, inf_share):
        statuses = set()
        for inst in generated(40, 400, inf_share=inf_share):
            statuses.add(assert_matches_oracle(inst).status)
        # Tables over {1, inf}: the optimum is often infinite.
        rng = random.Random(int(inf_share * 10))
        for _ in range(80):
            domains = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            unary = [[Fraction(rng.randint(0, 6), 2) for _ in range(d)] for d in domains]
            binary = {(i, j): [[rng.choice([1, math.inf]) if rng.random() < inf_share * 1.6
                                else 1 for _ in range(domains[j])] for _ in range(domains[i])]
                      for i, j in itertools.combinations(range(len(domains)), 2)}
            statuses.add(assert_matches_oracle(Instance(domains, unary, binary)).status)
        assert statuses == set(SolveStatus)

    def test_single_value_domains_and_omitted_tables(self):
        rng = random.Random(5)
        solved = 0
        for seed in range(40):
            domains = [rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 5))]
            inst = generate_instance(GenConfig(r=len(domains), domains=tuple(domains),
                                               seed=seed, inf_share=0.3))
            pairs = [p for p, _ in inst.binary_pairs() if rng.random() < 0.5]
            binary = {p: t for p, t in inst.binary_pairs() if p not in pairs}
            inst = Instance(inst.domains, inst.unary, binary)
            solved += assert_matches_oracle(inst).status is SolveStatus.OPTIMAL
        assert solved >= 20


# `zfree solve --json` bytes of generated instances with half-integer unary
# costs and tied optima, plain and remapped to coprime denominators,
# recorded with the Fraction-based loop this kernel replaced:
# (seed, coprime, assignment, value, rounds).
PINNED = [
    (10, False, [1, 1, 1, 3], "21", 3),
    (49, False, [2, 2, 1, 2], "23", 2),
    (119, False, [2, 2, 2, 2], "24", 2),
    (156, False, [1, 3, 1, 2], '"43/2"', 2),
    (10, True, [3, 1, 1, 2], '"10662898728900/6999901999643"', 1),
    (49, True, [2, 2, 3, 2], '"8497724537277/6999901999643"', 1),
]

# Graphviz rounds of seed 10 (labels in the instance's units: "p/2").
PINNED_DOTS = {
    "round_01.dot": "b1c3af10d65a3fc46ef2b21cd66d56f3dece8c679340a7bbe68d5becf09ed3a6",
    "round_02.dot": "46a35cdc498c74313c2b9f0a6ce2537a6f4896b56deed72c88fb78ec3af9f9c2",
    "round_03.dot": "6be01dfd89912f6792971910e1dd4c597af7fa6b5709744a76a4fb1e4a695de0",
}


def pinned_instance(seed, coprime=False):
    inst = generate_instance(GenConfig(r=4, dmax=4, seed=seed, levels=2))
    if coprime:
        inst = remapped(inst, lambda v: Fraction(v * 7919, 1000003),
                        lambda u: Fraction(u, 999983) + Fraction(u, 7))
    return inst


def solve_cli(inst, tmp_path, *extra):
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--json", *extra, str(path)])
    assert code == 0
    return out.getvalue()


class TestPinned:
    @pytest.mark.parametrize("seed,coprime,assignment,value,rounds", PINNED)
    def test_solve_json_bytes(self, seed, coprime, assignment, value, rounds, tmp_path):
        lines = ",\n".join(f"    {a}" for a in assignment)
        want = (f'{{\n  "status": "optimal",\n  "assignment": [\n{lines}\n  ],\n'
                f'  "value": {value},\n  "iterations": {rounds}\n}}\n')
        assert solve_cli(pinned_instance(seed, coprime), tmp_path) == want

    def test_dump_aux_bytes(self, tmp_path):
        solve_cli(pinned_instance(10), tmp_path, "--dump-aux", str(tmp_path / "dots"))
        files = sorted((tmp_path / "dots").glob("*.dot"))
        assert "/2" in files[0].read_text()
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in files} == PINNED_DOTS


class TestLoopUnits:
    def half_integer_case(self):
        inst = pinned_instance(10)
        f = build_relaxation(inst)
        assert f.kernel().scale == 2
        return inst, f, greedy_min_layer(f, inst.r), _warm_start(inst)

    def test_arc_lengths_are_swap_costs_in_scaled_units(self):
        inst, f, x, y = self.half_integer_case()
        graph = build_exchange_graph(f, x, y, inst.layout)
        base = eval_quad(f, x).raw
        exchanges = [a for a in graph.arcs if a.kind is ArcKind.EXCHANGE]
        assert exchanges
        for a in exchanges:
            moved = eval_quad(f, x ^ (1 << a.tail) | (1 << a.head)).raw
            assert Fraction(a.length, graph.scale) == moved - base

    def test_stale_potential_raises(self):
        inst, f, x, y = self.half_integer_case()
        graph = build_exchange_graph(f, x, y, inst.layout)
        potential = [0] * (graph.n + 2)
        arc = next(a for a in graph.arcs if a.kind is ArcKind.REASSIGN)
        potential[arc.head] = arc.length + 1
        # One scaled unit below zero, reported in the instance's units.
        with pytest.raises(InvariantError, match="negative reduced length -1/2 on arc"):
            shortest_path_min_hops(graph, potential)
