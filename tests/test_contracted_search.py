"""The contracted shortest-path search against the heap search over the
listed arcs of the exchange graph, round by round.

The inputs are the valid instances of test_ssp_identity.py (generated ones
for r=2..12 with and without infinite costs, wide ones, half-integer,
coprime-denominator and past-2**63 costs, pair tables over {0, 1} with many
equal-distance ties, d=1 variables and omitted tables) and 100 more tied
ones up to r=14.  On every round of every solve both searches run on the
same graph and potential and must agree on the path's arcs and hops and
on every vertex's distance capped at t's, hence on the next potential.  A
second run of the loop with the heap search in place of the contracted one
must give the same IterationStats, potentials and result.  A stale
potential must raise the same InvariantError text from both: that check,
run over every arc before each search, is the loop's guard on reduced
lengths.
"""

import random

import pytest

from test_ssp_identity import CASES, _tied
from zfree import (GenConfig, InvariantError, build_relaxation, check_bottleneck,
                   generate_instance, greedy_min_layer, intersection, minimize_zfree)
from zfree.intersection import ArcKind, ContractedSearch, ssp_intersect
from zfree.reference import PathSearch, heap_search
from zfree.pipeline import _warm_start


def _more_ties():
    """100 more {0, 1} instances, up to r=14."""
    rng = random.Random(11)
    for seed in range(100):
        inst = generate_instance(GenConfig(r=rng.randint(3, 14), dmax=5, seed=1000 + seed,
                                           levels=2))
        yield f"tied+ seed={seed}", _tied(inst, rng)


VALID = [(name, inst) for name, inst in [*CASES, *_more_ties()]
         if check_bottleneck(inst) is None]
SEARCH = intersection.shortest_path_min_hops


def reference(graph, potential):
    return heap_search(graph.n, graph.arcs, potential, graph.scale)


def stale(potential, arc, rng):
    """potential with arc's head raised past it: its reduced length, and
    perhaps an earlier arc's, turns negative."""
    out = list(potential)
    out[arc.head] = arc.length + out[arc.tail] + rng.randint(1, 3)
    return out


def run(f, inst, search):
    """ssp_intersect with search in place of shortest_path_min_hops:
    (result, the potential of every round)."""
    seen = []

    def traced(graph, potential):
        seen.append(potential.tolist())
        return search(graph, potential)

    saved = intersection.shortest_path_min_hops
    intersection.shortest_path_min_hops = traced
    try:
        result = ssp_intersect(f, inst.layout, greedy_min_layer(f, inst.r), _warm_start(inst))
    finally:
        intersection.shortest_path_min_hops = saved
    return result, seen


def test_the_corpus_is_large_and_tie_heavy():
    solved = [name for name, inst in VALID if minimize_zfree(inst).iterations]
    assert len(solved) >= 300
    assert sum(name.startswith("tied") for name in solved) >= 100


@pytest.mark.parametrize("name, inst", VALID, ids=[name for name, _ in VALID])
def test_contracted_search_matches_the_heap_search(name, inst):
    f = build_relaxation(inst)
    if greedy_min_layer(f, inst.r) is None:
        return
    rng = random.Random(name)

    def compared(graph, potential):
        search = SEARCH(graph, potential)
        listed = potential.tolist()
        heap = reference(graph, listed)
        assert isinstance(search, ContractedSearch) and isinstance(heap, PathSearch)
        assert search.arcs == heap.arcs
        if heap.arcs is not None:
            assert len(search.arcs) == heap.hops[graph.t]
            assert search.capped.tolist() == heap.capped
            assert ((potential + search.capped).tolist()
                    == [p + d for p, d in zip(listed, heap.capped)])
        arcs = list(graph.arcs)
        # Arcs, not indices, are compared above: that is as strict only
        # because no two arcs of a graph are equal.
        assert len(set(arcs)) == len(arcs) == len(graph.arcs)
        for arc in rng.sample(arcs, min(3, len(arcs))):
            bad = stale(listed, arc, rng)
            with pytest.raises(InvariantError) as got:
                SEARCH(graph, bad)
            with pytest.raises(InvariantError) as want:
                heap_search(graph.n, arcs, bad, graph.scale)
            assert str(got.value) == str(want.value)
        return search

    result, potentials = run(f, inst, compared)
    ref_result, ref_potentials = run(f, inst, reference)
    assert result.mask == ref_result.mask
    assert result.iterations == ref_result.iterations
    assert potentials == ref_potentials


# Seeds of tied instances (r drawn from 3..8) whose paths take an exchange
# arc u -> v of length 0 where u's reassign arc also leads to v: the two
# arcs tie on (distance, hops, tail), and the walk must take the exchange
# arc, which comes first in arc order, as the heap search does.
EXCHANGE_FIRST = [50, 139, 298, 892]


def _tied_recipe(seed):
    rng = random.Random(seed)
    inst = generate_instance(GenConfig(r=rng.randint(3, 8), dmax=4, seed=seed, levels=2))
    return _tied(inst, rng)


@pytest.mark.parametrize("seed", EXCHANGE_FIRST)
def test_the_walk_takes_the_exchange_arc_of_a_tie(seed):
    inst = _tied_recipe(seed)
    assert check_bottleneck(inst) is None
    f = build_relaxation(inst)
    ties = []

    def compared(graph, potential):
        search = SEARCH(graph, potential)
        assert search.arcs == reference(graph, potential.tolist()).arcs
        reassign = {(a.tail, a.head) for a in graph.arcs if a.kind is ArcKind.REASSIGN}
        ties.extend(a for a in search.arcs or () if a.kind is ArcKind.EXCHANGE
                    and a.length == 0 and (a.tail, a.head) in reassign)
        return search

    result, _ = run(f, inst, compared)
    assert ties, "the walk met no exchange-reassign tie"
    assert result.mask == run(f, inst, reference)[0].mask
