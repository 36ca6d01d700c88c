"""Quadratic set functions over flat one-hot positions.

A QuadFn is f(x) = sum_u linear[u] x_u + sum_{u<w} pair(u, w) x_u x_w for
x in {0,1}^n, with each unordered pair counted once.  The solver works with
the relaxation of an instance: linear part from the unary costs, pair part
from the completed coefficient matrix (cross-variable pairs keep the binary
costs, within-variable pairs come from completion).

The solver does not compute with the ExtValue coefficients.  QuadFn.kernel()
scales f once into exact integers: every finite linear and pair value times
D, the LCM of their denominators (1 for all-integer input), pair values as
an n x n int32 rank matrix into a pool of scaled values, and infinity as the
pool's top rank, read as a boolean mask.  greedy_min_layer and the
shortest-path loop in intersection run on that kernel; ExtValue stays at
the API (pair, eval_quad, the property checks).

greedy_min_layer minimizes such a function over points with exactly `size`
ones by repeatedly adding the cheapest position.  That is only valid for
M-natural-convex functions, which is exactly what the completion step
produces; an InvariantError check guards the precondition on small inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .completion import CompletedMatrix, PartialMatrix
from .errors import InvariantError
from .instance import Instance
from .properties import check_mnatural_quadratic
from .values import INF, ZERO, ExtValue, _ranked

__all__ = [
    "RankPairs",
    "QuadFn",
    "eval_quad",
    "induced_partial_matrix",
    "onehot_relaxation",
    "greedy_min_layer",
]

_GREEDY_CHECK_LIMIT = 48  # the precondition check is cubic; keep it cheap


class _DictPairs:
    """Pair coefficients from a mapping; absent pairs are zero."""

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries):
        self.n = n
        store = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (u, w), v in items:
            if u == w or not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"bad pair ({u},{w})")
            store[(u, w) if u < w else (w, u)] = ExtValue.of(v)
        self._entries = store

    def value(self, u: int, w: int) -> ExtValue:
        return self._entries.get((u, w) if u < w else (w, u), ZERO)


class RankPairs:
    """Pair coefficients read off a symmetric n x n int32 rank matrix:
    rank k >= 1 stands for pool[k - 1], pool ascending.  The diagonal is 0
    and never read as a pair."""

    __slots__ = ("n", "ranks", "pool", "_by_rank")

    def __init__(self, ranks, pool):
        self.n = len(ranks)
        self.ranks = ranks
        self.pool = pool
        self._by_rank = [ZERO, *pool]

    def value(self, u: int, w: int) -> ExtValue:
        return self._by_rank[self.ranks[u, w]]

    @classmethod
    def of(cls, pairs) -> "RankPairs":
        """The rank matrix of any pair source, read pair by pair."""
        if isinstance(pairs, cls):
            return pairs
        n = pairs.n
        raws = [pairs.value(u, w).raw for u in range(n) for w in range(u + 1, n)]
        pool, rank_of = _ranked(raws)
        ranks = np.zeros((n, n), dtype=np.int32)
        upper = np.triu_indices(n, 1)
        ranks[upper] = [rank_of[v] for v in raws]
        return cls(ranks + ranks.T, pool)


class _Kernel:
    """A QuadFn in exact scaled integers; see the module docstring.

    ranks is the pair rank matrix and inf_rank the rank of infinity
    (len(pool) + 1, which never occurs, when no pair is infinite).
    arrays() gives the scaled linear values, 0 where linear_inf marks an
    infinite one, and the scaled value of each rank, 0 for the diagonal's
    rank 0 and for inf_rank.
    """

    __slots__ = ("scale", "ranks", "inf_rank", "linear_inf", "_linear",
                 "_by_rank", "_max_abs", "_arrays")

    def __init__(self, linear, pairs: RankPairs):
        finite = [v for v in (*linear, *pairs.pool) if v.is_finite]
        scale = math.lcm(*(v.denominator for v in finite))

        def scaled(v):
            return v.numerator * (scale // v.denominator) if v.is_finite else 0

        self.scale = scale
        self.ranks = pairs.ranks
        pool = pairs.pool
        has_inf = bool(pool) and not pool[-1].is_finite
        self.inf_rank = len(pool) if has_inf else len(pool) + 1
        self.linear_inf = np.array([not v.is_finite for v in linear], dtype=bool)
        self._linear = [scaled(v) for v in linear]
        self._by_rank = [0, *map(scaled, pool)]
        self._max_abs = max(map(abs, self._linear + self._by_rank))
        self._arrays = {}

    def arrays(self, terms: int):
        """(linear, by_rank) as numpy arrays whose dtype holds any sum or
        difference of `terms` values: int64 when that fits, Python ints in
        object arrays otherwise."""
        dtype = np.int64 if self._max_abs * terms < 2**63 else object
        out = self._arrays.get(dtype)
        if out is None:
            out = self._arrays[dtype] = (np.array(self._linear, dtype=dtype),
                                         np.array(self._by_rank, dtype=dtype))
        return out


class QuadFn:
    """Linear coefficients plus a source of symmetric pair coefficients.

    pairs can be a CompletedMatrix, a RankPairs, or any object with n and
    value(u, w).  The linear part is expected finite for solving; sign and
    finiteness are deliberately not enforced here, the property checks own
    that.
    """

    __slots__ = ("n", "linear", "pairs", "_kernel")

    def __init__(self, linear, pairs):
        self.linear = tuple(ExtValue.of(v) for v in linear)
        self.n = len(self.linear)
        if pairs.n != self.n:
            raise ValueError(f"pair source covers {pairs.n} positions, linear has {self.n}")
        self.pairs = pairs
        self._kernel = None

    def kernel(self) -> _Kernel:
        """f scaled to exact integers, built on the first call."""
        if self._kernel is None:
            self._kernel = _Kernel(self.linear, RankPairs.of(self.pairs))
        return self._kernel

    @classmethod
    def from_coeffs(cls, linear, pair_entries) -> "QuadFn":
        """Build from explicit coefficients; unlisted pairs are zero."""
        linear = tuple(ExtValue.of(v) for v in linear)
        return cls(linear, _DictPairs(len(linear), pair_entries))

    def pair(self, u: int, w: int) -> ExtValue:
        """Coefficient of the unordered pair {u, w}, u != w."""
        return self.pairs.value(u, w)

    def __repr__(self):
        return f"QuadFn(n={self.n})"


def eval_quad(f: QuadFn, mask: int) -> ExtValue:
    """f at the 0/1 point given as a bitmask."""
    if mask < 0 or mask >> f.n:
        raise ValueError("mask has bits outside the flat range")
    supp = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        supp.append(b.bit_length() - 1)
    total = 0
    for u in supp:
        total += f.linear[u].raw
    if total == math.inf:
        return INF
    for idx, u in enumerate(supp):
        for w in supp[idx + 1:]:
            total += f.pairs.value(u, w).raw
            if total == math.inf:
                return INF
    return ExtValue.of(total)


def induced_partial_matrix(inst: Instance) -> PartialMatrix:
    """The coefficient matrix an instance pins down: cross-variable pairs
    carry the binary costs (zero for omitted tables), within-variable pairs
    are undefined.  That is the instance's own ranks and pool (0 within a
    variable), so the matrix is a view of them: no table is built."""
    return PartialMatrix._of(inst.n, inst.ranks, inst.pool)


def onehot_relaxation(inst: Instance, matrix: CompletedMatrix) -> QuadFn:
    """The quadratic relaxation of an instance given a completed coefficient
    matrix.

    The matrix must agree with the instance on every cross-variable pair
    (it completes the induced partial matrix); a mismatch raises ValueError.
    On one-hot points the result evaluates to the instance cost.
    """
    lay = inst.layout
    if matrix.n != lay.n:
        raise ValueError(f"matrix has n={matrix.n}, instance needs n={lay.n}")
    for i in range(inst.r):
        for j in range(i + 1, inst.r):
            t = inst.table(i, j)
            for a in range(inst.domains[i]):
                ua = lay.flat(i, a)
                for b in range(inst.domains[j]):
                    want = t[a][b] if t is not None else ZERO
                    if matrix.value(ua, lay.flat(j, b)) != want:
                        raise ValueError(
                            f"matrix disagrees with instance at (({i},{a}),({j},{b}))")
    linear = [inst.unary[i][a] for i, a in lay.pairs()]
    return QuadFn(linear, matrix)


def greedy_min_layer(f: QuadFn, size: int):
    """Minimize f over points with exactly `size` ones by greedy ascent
    through the layers.

    Returns the chosen bitmask, or None when every point of the layer is
    infinite.  Ties go to the lowest flat position.  Every greedy prefix
    is itself a layer minimizer; that is what makes the final point one.
    Correct only for M-natural-convex f (checked when n is small, also
    under python -O).
    """
    n = f.n
    if not 0 <= size <= n:
        raise ValueError(f"layer size {size} out of range for n={n}")
    if n <= _GREEDY_CHECK_LIMIT and all(v.is_finite for v in f.linear):
        bad = check_mnatural_quadratic(f)
        if bad is not None:
            raise InvariantError(f"greedy needs an M-natural-convex function: {bad}")

    k = f.kernel()
    linear, by_rank = k.arrays(size + 1)
    marginal = linear.copy()
    infs = k.linear_inf.astype(np.int64)   # infinite terms per marginal
    free = np.ones(n, dtype=bool)
    mask = 0
    for _ in range(size):
        open_ = np.flatnonzero(free & (infs == 0))
        if len(open_) == 0:
            return None
        picked = int(open_[np.argmin(marginal[open_])])
        free[picked] = False
        mask |= 1 << picked
        col = k.ranks[picked]
        marginal += by_rank[col]
        infs += col == k.inf_rank
    return mask
