"""The spanning forest that checking and completion read, against a brute
force maximin closure computed independently of it."""

import random

import numpy as np
import pytest

from zfree.completion import _Forest


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
    parent, depth, root = f.parent.tolist(), f.depth.tolist(), f.root.tolist()
    comp = [min(w for w in range(n) if w == v or c[v][w] > 0) for v in range(n)]
    for u in range(n):
        for w in range(n):
            if u != w and comp[u] == comp[w]:
                assert floor[u][w] == c[u][w] > 0, (u, w)
            else:
                assert floor[u][w] == 0, (u, w)
    for v in range(n):
        assert root[v] == comp[v]
        if v == root[v]:
            assert parent[v] == v and depth[v] == 0
        else:
            p = parent[v]
            assert ranks[v, p] > 0 and ranks[v, p] == floor[v][p]
            assert depth[v] == depth[p] + 1
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
    assert f.parent.tolist() == parent
