import random

import pytest

from zfree import (Arc, ArcKind, GenConfig, Instance, QuadFn, build_exchange_graph,
                   build_relaxation, generate_instance, greedy_min_layer,
                   shortest_path_min_hops, ssp_intersect)
from zfree.errors import InvariantError
from zfree.instance import OneHotLayout
from zfree.reference import heap_search


def zero_quad(n):
    return QuadFn.from_coeffs([0] * n, {})


class TestBuild:
    def test_equal_points_have_no_end_arcs(self):
        lay = OneHotLayout((2, 2))
        f = zero_quad(4)
        g = build_exchange_graph(f, 0b0101, 0b0101, lay)
        assert g.count(ArcKind.SOURCE) == 0
        assert g.count(ArcKind.SINK) == 0
        search = shortest_path_min_hops(g, [0] * 6)
        assert search.arcs is None and search.capped is None

    def test_disjoint_points_arc_sets(self):
        lay = OneHotLayout((2, 2))
        f = zero_quad(4)
        x = 0b0101  # positions 0 and 2
        y = 0b1010  # positions 1 and 3
        g = build_exchange_graph(f, x, y, lay)
        by_kind = {}
        for a in g.arcs:
            by_kind.setdefault(a.kind, []).append((a.tail, a.head))
        assert by_kind[ArcKind.SOURCE] == [(g.s, 0), (g.s, 2)]
        assert by_kind[ArcKind.SINK] == [(1, g.t), (3, g.t)]
        assert by_kind[ArcKind.REASSIGN] == [(0, 1), (2, 3)]
        assert len(by_kind[ArcKind.EXCHANGE]) == 4

    def test_arc_count_bounds(self):
        rng = random.Random(2)
        for seed in range(30):
            inst = generate_instance(GenConfig(r=rng.randint(2, 4), dmax=3,
                                               seed=seed, inf_share=0.3))
            f = build_relaxation(inst)
            lay = inst.layout
            n, r = lay.n, inst.r
            x = greedy_min_layer(f, r)
            if x is None:
                continue
            y = 0
            for i in range(r):
                y |= 1 << lay.flat(i, 0)
            g = build_exchange_graph(f, x, y, lay)
            assert g.count(ArcKind.EXCHANGE) <= r * (n - r)
            assert g.count(ArcKind.REASSIGN) <= n
            assert g.count(ArcKind.SOURCE) <= r
            assert g.count(ArcKind.SINK) <= r

    def test_infinite_swap_has_no_arc(self):
        lay = OneHotLayout((2, 2))
        f = QuadFn.from_coeffs([0, 0, 0, 0], {(1, 2): "inf"})
        g = build_exchange_graph(f, 0b0101, 0b0101, lay)
        exchanges = [(a.tail, a.head) for a in g.arcs if a.kind is ArcKind.EXCHANGE]
        # swapping position 0 out for 1 would put 1 next to 2: infinite
        assert (0, 1) not in exchanges
        assert (2, 3) in exchanges

    def test_x_outside_domain_rejected(self):
        lay = OneHotLayout((2, 2))
        f = QuadFn.from_coeffs([0] * 4, {(0, 2): "inf"})
        with pytest.raises(ValueError):
            build_exchange_graph(f, 0b0101, 0b0101, lay)


class TestShortestPath:
    """The reference search over a plain arc list: vertex n is s, n + 1 t."""

    def test_two_arc_path(self):
        # one interior vertex: s -> 0 (len 2), 0 -> t (len 0)
        search = heap_search(1, [(1, 0, 2, ArcKind.SOURCE), (0, 2, 0, ArcKind.SINK)], [0, 0, 0])
        assert search.dist[2] == 2
        assert search.arcs == [Arc(1, 0, 2, ArcKind.SOURCE), Arc(0, 2, 0, ArcKind.SINK)]

    def test_hop_tie_break(self):
        # two equal-length routes; the two-arc one must win
        arcs = [
            Arc(2, 0, 1, ArcKind.SOURCE),
            Arc(0, 3, 1, ArcKind.SINK),
            Arc(0, 1, 0, ArcKind.EXCHANGE),
            Arc(1, 3, 1, ArcKind.SINK),
        ]
        search = heap_search(2, arcs, [0] * 4)
        assert search.dist[3] == 2
        assert search.arcs == arcs[:2]

    def test_unreachable_sink(self):
        search = heap_search(1, [Arc(1, 0, 0, ArcKind.SOURCE)], [0, 0, 0])
        assert search.arcs is None and search.capped is None

    def test_negative_reduced_length_raises(self):
        with pytest.raises(InvariantError, match="negative reduced length -1/2 on arc 1->0"):
            heap_search(1, [Arc(1, 0, -1, ArcKind.SOURCE)], [0, 0, 0], scale=2)

    def test_potential_shifts_reduced_lengths(self):
        arcs = [Arc(1, 0, 2, ArcKind.SOURCE), Arc(0, 2, 0, ArcKind.SINK)]
        # potential 2 on the interior vertex cancels the first arc's length
        search = heap_search(1, arcs, [2, 0, 2])
        assert search.dist[0] == 0
        assert search.dist[2] == 0

    def test_potential_length_must_match(self):
        with pytest.raises(ValueError):
            heap_search(1, [], [0, 0])


class TestSsp:
    def test_equal_start_returns_immediately(self):
        lay = OneHotLayout((2, 2))
        res = ssp_intersect(zero_quad(4), lay, 0b0101, 0b0101)
        assert res.mask == 0b0101
        assert res.iterations == []

    def test_worked_example_converges(self):
        inst = Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[5, 0], [0, 0]]})
        f = build_relaxation(inst)
        x0 = greedy_min_layer(f, 2)
        y0 = 0b0101  # both variables pick their first value
        res = ssp_intersect(f, inst.layout, x0, y0)
        assert res.mask == 0b0110  # variable 1 takes value 2, variable 2 value 1
        assert len(res.iterations) == 1

    def test_no_finite_one_hot_point(self):
        # layer points can double up inside the first block, so the layer
        # has finite points, but every one-hot point crosses the infinite
        # pair between the two singleton blocks
        lay = OneHotLayout((2, 1, 1))
        f = QuadFn.from_coeffs([0, 0, 0, 0], {(2, 3): "inf"})
        x0 = greedy_min_layer(f, 3)
        assert x0 == 0b0111
        y0 = 0b1101  # the only one-hot choice in blocks 2 and 3
        res = ssp_intersect(f, lay, x0, y0)
        assert res.mask is None

    def test_mismatched_sizes_rejected(self):
        lay = OneHotLayout((2, 2))
        with pytest.raises(ValueError):
            ssp_intersect(zero_quad(4), lay, 0b0001, 0b0101)

    def test_invariants_across_random_solves(self):
        rng = random.Random(31)
        solved = 0
        for seed in range(60):
            inst = generate_instance(GenConfig(r=rng.randint(2, 5), dmax=3,
                                               seed=seed, inf_share=0.3))
            f = build_relaxation(inst)
            x0 = greedy_min_layer(f, inst.r)
            if x0 is None:
                continue
            y0 = 0
            for i in range(inst.r):
                y0 |= 1 << inst.layout.flat(i, 0)
            res = ssp_intersect(f, inst.layout, x0, y0)
            if res.mask is None:
                continue
            solved += 1
            n, r = inst.layout.n, inst.r
            assert len(res.iterations) <= r
            for st in res.iterations:
                assert st.gap_after == st.gap_before - 2
                assert st.arcs_exchange <= r * (n - r)
                assert st.arcs_reassign <= n
                assert st.arcs_source <= r
                assert st.arcs_sink <= r
        assert solved >= 40
