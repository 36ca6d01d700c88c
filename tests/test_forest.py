"""The spanning forest that checking and completion read, against a brute
force maximin closure computed independently of it and against the Prim
pass it replaced (the reference for the tie rule); plus guards that a
valid solve or completion never climbs the tree and that building the
forest allocates nothing n x n besides floor."""

import gc
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from zfree import (ExtValue, GenConfig, Instance, PartialMatrix, SolveStatus, build_relaxation,
                   check_bottleneck, complete, dump_matrix, generate_instance,
                   induced_partial_matrix, minimize_zfree)
from zfree.completion import _Forest
from zfree.errors import InvariantError
from zfree.pipeline import _build_forest
from zfree.values import ZERO


def _closure(ranks):
    """Maximin closure by Floyd-Warshall: the best over all paths of the
    smallest rank on the path, 0 between unconnected vertices and on the
    diagonal."""
    n = len(ranks)
    c = [list(row) for row in ranks]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j:
                    c[i][j] = max(c[i][j], min(c[i][k], c[k][j]))
    return c


def _random_ranks(rng, n, density):
    ranks = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < density:
                ranks[u, w] = ranks[w, u] = rng.randint(1, 3)
    return ranks


def _matrices():
    rng = random.Random("forest")
    for n in range(1, 11):
        yield np.zeros((n, n), dtype=np.int32)        # nothing defined
        tied = np.full((n, n), 2, dtype=np.int32)      # every pair tied
        np.fill_diagonal(tied, 0)
        yield tied
        for density in (0.15, 0.4, 0.7, 1.0):
            for _ in range(12):
                yield _random_ranks(rng, n, density)
        # two blocks with nothing between them
        split = rng.randint(1, n)
        apart = _random_ranks(rng, n, 0.8)
        apart[:split, split:] = apart[split:, :split] = 0
        yield apart


def _assert_forest(ranks):
    n = len(ranks)
    f = _Forest(ranks, pool=[1, 2, 3])
    c = _closure(ranks.tolist())
    floor = f.floor.tolist()
    parent = [f._parent_of(v) for v in range(n)]
    comp = [min(w for w in range(n) if w == v or c[v][w] > 0) for v in range(n)]
    for u in range(n):
        for w in range(n):
            if u != w and comp[u] == comp[w]:
                assert floor[u][w] == c[u][w] > 0, (u, w)
            else:
                assert floor[u][w] == 0, (u, w)
    for v in range(n):
        # the parents climb, without a cycle, to the component's smallest vertex
        root, steps = v, 0
        while parent[root] != root:
            root, steps = parent[root], steps + 1
            assert steps < n
        assert root == comp[v]
        if v != root:
            p = parent[v]
            assert ranks[v, p] > 0 and ranks[v, p] == floor[v][p]
    consistent = all(ranks[u, w] == c[u][w]
                     for u in range(n) for w in range(n) if ranks[u, w])
    assert (f.violation() is None) == consistent
    return consistent


def test_forest_matches_maximin_closure():
    verdicts = [_assert_forest(ranks) for ranks in _matrices()]
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize("ranks, parent", [
    # every pair tied: a star on vertex 0, the first tree vertex
    ([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], [0, 0, 0, 0]),
    # 2 hangs off 0, the earliest tree vertex offering rank 2, not off 1
    ([[0, 2, 2], [2, 0, 2], [2, 2, 0]], [0, 0, 0]),
    # 3 joins through 2 (rank 3) although 0 and 1 offer it rank 1 earlier
    ([[0, 2, 2, 1], [2, 0, 1, 1], [2, 1, 0, 3], [1, 1, 3, 0]], [0, 0, 0, 2]),
    # two components, each rooted at its smallest vertex
    ([[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0]], [0, 1, 0, 1]),
])
def test_tie_rule(ranks, parent):
    f = _Forest(np.array(ranks, dtype=np.int32), pool=[1, 2, 3])
    assert [f._parent_of(v) for v in range(len(ranks))] == parent


# ---------------------------------------------------------------------------
# The join-order forest against the Prim pass it replaced, kept here verbatim
# as the reference for the tie rule: parent, floor and the violation cycle
# must come out the same on every matrix (depth and root follow from parent).
# ---------------------------------------------------------------------------


def _reference_forest(ranks):
    """Prim's maximum spanning forest of the defined pairs of a rank matrix,
    with the tie rule _Forest states.

    Returns parent, depth and root per vertex (int32 arrays) and floor, the
    n x n int32 matrix of tree-path minima: floor[u, w] is the smallest rank
    on the forest path between u and w, 0 across components and on the
    diagonal.  Each vertex v joins with key, the best rank the tree offers
    it, so floor[v] = minimum(floor[parent], key) over the tree so far.
    """
    n = len(ranks)
    floor = np.zeros((n, n), dtype=np.int32)
    key = np.zeros(n, dtype=np.int32)       # -1 once in the tree
    via = np.zeros(n, dtype=np.int32)       # tree vertex offering key
    outside = np.ones(n, dtype=bool)
    better = np.empty(n, dtype=bool)
    parent = [0] * n
    depth = [0] * n
    root = [0] * n
    for _ in range(n):
        v = int(key.argmax())
        k = key.item(v)
        if k == 0:
            parent[v] = root[v] = v
        else:
            p = parent[v] = via.item(v)
            depth[v] = depth[p] + 1
            root[v] = root[p]
            row = floor[v]
            np.minimum(floor[p], k, out=row)
            row[p] = k
            floor[:, v] = row
        key[v] = -1
        outside[v] = False
        offer = ranks[v]
        np.greater(offer, key, out=better)
        better &= outside
        np.copyto(key, offer, where=better)
        via[better] = v
    return (np.array(parent, dtype=np.int32), np.array(depth, dtype=np.int32),
            np.array(root, dtype=np.int32), floor)


def _reference_path(parent, depth, u, w):
    """The tree path from u to w over the reference parent and depth."""
    left, right = [u], [w]
    while depth[u] > depth[w]:
        u = parent[u]
        left.append(u)
    while depth[w] > depth[u]:
        w = parent[w]
        right.append(w)
    while u != w:
        u, w = parent[u], parent[w]
        left.append(u)
        right.append(w)
    right.pop()
    return left + right[::-1]


def _seeded_matrix(rng):
    """A random rank matrix with up to 12 ranks, some rows tied throughout,
    some isolated vertices and its vertices split into components."""
    n = rng.randint(1, 30)
    top = rng.randint(1, 12)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    label = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
    isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
    ranks = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for w in range(u + 1, n):
            if (label[u] == label[w] and u not in isolated and w not in isolated
                    and rng.random() < density):
                ranks[u, w] = ranks[w, u] = rng.randint(1, top)
    for u in rng.sample(range(n), rng.randint(0, n // 3)):
        tie = rng.randint(1, top)
        ranks[u, ranks[u] > 0] = tie
        ranks[ranks[:, u] > 0, u] = tie
    return ranks


def _generated_ranks():
    """Rank matrices of r=6, d=21 generated instances (the benchmark's shape)
    and of single-cell mutants of each: one cross pair moved to another
    rank, up to one past the largest."""
    rng = random.Random("forest/generated")
    for seed in range(4):
        ranks = generate_instance(GenConfig(r=6, domains=(21,) * 6, seed=seed)).ranks
        yield ranks
        top = int(ranks.max())
        for _ in range(12):
            mutant = ranks.copy()
            u, w = rng.sample(range(126), 2)
            while u // 21 == w // 21:
                u, w = rng.sample(range(126), 2)
            mutant[u, w] = mutant[w, u] = rng.randint(1, top + 1)
            yield mutant


def _oracle_matrices():
    yield from _matrices()
    rng = random.Random("forest/seeded")
    for _ in range(1000):
        yield _seeded_matrix(rng)
    yield from _generated_ranks()


def test_join_order_forest_matches_the_reference():
    count = violated = 0
    for ranks in _oracle_matrices():
        parent, depth, _, floor = _reference_forest(ranks)
        f = _Forest(ranks, ())
        cycle = f.violation()
        assert np.array_equal(f.floor, floor)
        assert [f._parent_of(v) for v in range(len(ranks))] == parent.tolist()
        bad = np.argwhere((ranks < floor) & (ranks > 0))
        if len(bad):
            u, w = bad[0].tolist()
            assert cycle == f._chordless(_reference_path(parent, depth, u, w))
            violated += 1
        else:
            assert cycle is None
        count += 1
    assert count > 1500 and violated > 300 and count - violated > 300


def test_fill_writes_the_completion_over_floor():
    # The whole-matrix formula the fill replaced: a defined rank, else the
    # floor rank, else rank 1 across components; the diagonal 0.
    # The pool comes back as given, or as (ZERO,) when nothing is defined.
    empty = 0
    for ranks in _oracle_matrices():
        pool = tuple(range(1, ranks.max() + 1))
        f = _Forest(ranks, pool)
        want = np.where(ranks > 0, ranks, np.maximum(f.floor, 1))
        np.fill_diagonal(want, 0)
        floor = f.floor
        filled, filled_pool = f.fill()
        assert filled is floor and np.array_equal(floor, want)
        assert not floor.flags.writeable
        assert filled_pool == (pool or ((ZERO,) if len(ranks) > 1 else ()))
        empty += not pool
        # The verdict was decided before the fill and is kept.
        assert f.violation() == _Forest(ranks, ()).violation()
    assert empty


def test_forest_keeps_the_join_order():
    ranks = np.array([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=np.int32)
    f = _Forest(ranks, ())
    assert f.order.tolist() == [0, 1, 2, 3]
    assert f.keys.tolist() == [0, 2, 0, 1]


def test_build_forest_needs_one_component():
    # Two variables of two positions each; only the pair (0, 2) is defined.
    ranks = np.zeros((4, 4), dtype=np.int32)
    ranks[0, 2] = ranks[2, 0] = 1
    with pytest.raises(InvariantError, match="disconnected"):
        _build_forest(SimpleNamespace(r=2, ranks=ranks, pool=(1,)))
    ranks[1, 3] = ranks[3, 1] = ranks[0, 3] = ranks[3, 0] = 1
    ranks[1, 2] = ranks[2, 1] = 1
    assert _build_forest(SimpleNamespace(r=2, ranks=ranks, pool=(1,))).keys[1:].all()


def _never_derive(monkeypatch):
    def refuse(*args):
        raise AssertionError("derived the tree")

    monkeypatch.setattr(_Forest, "_parent_of", refuse)


def test_valid_solves_never_derive_the_tree(monkeypatch):
    insts = [generate_instance(GenConfig(r=r, domains=d, seed=s, inf_share=inf))
             for r, d, s, inf in [(2, (3, 2), 1, 0.0), (4, (3, 1, 4, 2), 2, 0.5),
                                  (6, (21,) * 6, 3, 0.0), (13, (5,) * 13, 4, 0.0)]]
    matrices = [induced_partial_matrix(inst) for inst in insts]
    bad = PartialMatrix(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    _never_derive(monkeypatch)
    for inst, matrix in zip(insts, matrices):
        assert minimize_zfree(inst).status is not SolveStatus.REJECTED
        complete(matrix)
    # A refutation does climb the tree, so the patch is in effect.
    with pytest.raises(AssertionError, match="derived the tree"):
        complete(bad)


def test_forest_peak_memory_is_its_floor():
    n = 600
    rng = np.random.default_rng(11)
    ranks = np.triu(rng.integers(1, 13, (n, n), dtype=np.int32), 1)
    ranks += ranks.T
    gc.collect()
    tracemalloc.start()
    try:
        forest = _Forest(ranks, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # floor's 4 n^2 bytes and O(n) besides: an n x n int32 temporary (as a
    # plain floor += floor.T makes) would add another 4 n^2.
    assert forest.floor.nbytes == 4 * n * n
    assert peak <= 4 * n * n + 256 * n


def test_complete_peak_memory_is_its_floor():
    # A completable partial matrix: a forest's floor (anti-ultrametric)
    # with about half its pairs undefined, in several components.
    n = 600
    rng = np.random.default_rng(16)
    ranks = np.triu(rng.integers(1, 13, (n, n), dtype=np.int32), 1)
    ranks *= rng.random((n, n)) < 0.003
    ranks += ranks.T
    floor = _Forest(ranks, ()).floor
    keep = np.triu(rng.random((n, n)) < 0.5, 1)
    keep |= keep.T
    partial = PartialMatrix._of(n, np.where(keep, floor, 0).astype(np.int32),
                                tuple(map(ExtValue, range(1, 13))))
    assert int(np.count_nonzero(_Forest(partial.ranks, ()).keys)) < n - 1
    gc.collect()
    tracemalloc.start()
    try:
        matrix = complete(partial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The forest's floor becomes the completion: 4 n^2 bytes and O(n)
    # besides.  A completion built beside floor would add another 4 n^2.
    assert matrix.ranks.nbytes == 4 * n * n
    assert not matrix.ranks.flags.writeable
    assert peak <= 4 * n * n + 256 * n


# Matrices with no defined pair complete through the forest too: every pair
# is in a component of its own, so each gets rank 1 of the pool (ZERO,).
EMPTY_COMPLETIONS = {
    1: ([[0]], (), '{"n": 1, "entries": []}'),
    2: ([[0, 1], [1, 0]], (ZERO,),
        '{"n": 2, "entries": [{"i": 1, "j": 2, "value": 0}]}'),
    5: ((np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)).tolist(), (ZERO,),
        '{"n": 5, "entries": [' + ", ".join(
            f'{{"i": {i}, "j": {j}, "value": 0}}' for i in range(1, 6)
            for j in range(i + 1, 6)) + "]}"),
}


@pytest.mark.parametrize("n", list(EMPTY_COMPLETIONS))
def test_empty_matrix_completes_through_the_forest(n):
    ranks, pool, text = EMPTY_COMPLETIONS[n]
    matrix = complete(PartialMatrix(n))
    assert (matrix.ranks.tolist(), matrix.pool, dump_matrix(matrix)) == (ranks, pool, text)
    assert not matrix.ranks.flags.writeable


# Single-variable instances and the reports they solved to when their
# relaxation was built without a forest: (value index, value), no rounds.
R1_REPORTS = [
    (Instance((1,), [[4]]), 0, "4"),
    (Instance((3,), [[2, 0, 1]]), 1, "0"),
    (Instance((5,), [[4, "1/2", 0, 7, "5/2"]]), 2, "0"),
    (generate_instance(GenConfig(r=1, domains=(7,), seed=3)), 2, "1"),
]


@pytest.mark.parametrize("inst, index, value", R1_REPORTS, ids=repr)
def test_single_variable_goes_through_the_forest(inst, index, value):
    assert check_bottleneck(inst) is None
    f = build_relaxation(inst)
    n = inst.n
    assert f.ranks.tolist() == (np.ones((n, n), dtype=int) - np.eye(n, dtype=int)).tolist()
    assert f.pool == ((ZERO,) if n > 1 else ())
    assert f.mnatural_violation() is None
    counters = {"pool_size": 0, "rounds": 0,
                "arcs": {"exchange": 0, "reassign": 0, "source": 0, "sink": 0},
                "search_pops": 0, "kernel_dtype": "int64"}
    for check in (True, False):
        report = minimize_zfree(inst, check_properties=check, verify_completion=True)
        assert report.status is SolveStatus.OPTIMAL
        assert (report.assignment, str(report.value)) == ((index,), value)
        assert report.iterations == [] and report.counters == counters
