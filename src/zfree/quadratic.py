"""Quadratic set functions over flat one-hot positions.

A QuadFn is f(x) = sum_u linear[u] x_u + sum_{u<w} pair(u, w) x_u x_w for
x in {0,1}^n, with each unordered pair counted once.  Its pair coefficients
are two arrays, as everywhere else in the package: ranks, the read-only
symmetric n x n int32 matrix, and pool, the ascending tuple of distinct
ExtValues.  Rank k >= 1 stands for pool[k - 1]; rank 0 is a zero
coefficient (the diagonal, a pair from_coeffs is not given, every pair of
a single-variable relaxation).  The solver works with the relaxation of
an instance: linear part from the unary costs, pair part from the
completed coefficient matrix (cross-variable pairs keep the binary costs,
within-variable pairs come from completion).

The solver does not compute with the ExtValue coefficients.  QuadFn.kernel()
scales f once into exact integers, reading each value's raw int or
Fraction: every finite linear and pool value times D, the LCM of their
denominators (1 for all-integer input), with infinity as the pool's top
rank, read as a boolean mask.  greedy_min_layer and the shortest-path loop
in intersection run on that kernel; ExtValue stays at the API (pair,
eval_quad, the property checks).

greedy_min_layer minimizes such a function over points with exactly `size`
ones by repeatedly adding the cheapest position.  That is only valid for
M-natural-convex functions, which is exactly what the completion step
produces; an InvariantError check guards the precondition at every n, also
under python -O.  The verdict is QuadFn.mnatural_violation, decided by
the bad pairs of a maximum spanning forest (completion._spanning_forest)
and kept on the QuadFn; for a refuted function they also name the first
hit of the cubic check_mnatural_quadratic scan, in O(n^2 + |B| n) for |B|
bad pairs, without running it.  A relaxation arrives with its verdict
already decided by the instance's forest (pipeline.build_relaxation), so
the solve's check and greedy's cost nothing more.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain

import numpy as np

from .completion import _BAND, CompletedMatrix, PartialMatrix, _rank_arrays, _spanning_forest
from .errors import InvariantError
from .instance import Instance
# check_mnatural_quadratic stays importable from here, next to the witness
# that reproduces its first hit.
from .properties import _finite_linear, _mnatural_violation, check_mnatural_quadratic  # noqa: F401
from .values import _INF_RAW, INF, ZERO, ExtValue

__all__ = [
    "QuadFn",
    "eval_quad",
    "induced_partial_matrix",
    "onehot_relaxation",
    "greedy_min_layer",
]

_UNCHECKED = object()     # QuadFn._verdict before it is decided
_REFUTED = object()       # decided not M-natural-convex, witness not yet named


def _scaled(raws, scale: int) -> list:
    """Each raw value times scale as an exact int, 0 for infinity; scale
    must be a multiple of every denominator."""
    return [v * scale if type(v) is int else
            0 if v is _INF_RAW else v.numerator * (scale // v.denominator)
            for v in raws]


class _Kernel:
    """A QuadFn in exact scaled integers; see the module docstring.

    ranks is f's rank matrix and inf_rank the rank of infinity
    (len(pool) + 1, which never occurs, when no pair is infinite).
    arrays() gives the scaled linear values, 0 where linear_inf marks an
    infinite one, and the scaled value of each rank, 0 for rank 0 and for
    inf_rank.
    """

    __slots__ = ("scale", "ranks", "inf_rank", "linear_inf", "_linear",
                 "_by_rank", "_max_abs", "_arrays")

    def __init__(self, linear, ranks, pool):
        # Read as raw ints, Fractions and the one infinity object.
        linear = [v.raw for v in linear]
        pool = [v.raw for v in pool]
        scale = math.lcm(*[v.denominator for v in chain(linear, pool)
                           if v is not _INF_RAW])

        self.scale = scale
        self.ranks = ranks
        has_inf = bool(pool) and pool[-1] is _INF_RAW
        self.inf_rank = len(pool) if has_inf else len(pool) + 1
        self.linear_inf = np.array([v is _INF_RAW for v in linear], dtype=bool)
        self._linear = _scaled(linear, scale)
        self._by_rank = [0, *_scaled(pool, scale)]
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
    """Linear coefficients plus pair coefficients as (ranks, pool).

    ranks is a symmetric n x n int32 matrix of ranks into pool, an ascending
    sequence of ExtValues; rank 0 is a zero coefficient.  ranks is kept, not
    copied, and made read-only.  The linear part is expected finite for
    solving; sign and finiteness are deliberately not enforced here, the
    property checks own that.
    """

    __slots__ = ("n", "linear", "ranks", "pool", "_kernel", "_verdict")

    def __init__(self, linear, ranks, pool):
        self.linear = tuple(map(ExtValue.of, linear))
        self.n = len(self.linear)
        if ranks.shape != (self.n, self.n):
            raise ValueError(f"rank matrix is {ranks.shape}, linear has {self.n}")
        ranks.flags.writeable = False
        self.ranks = ranks
        self.pool = tuple(pool)
        self._kernel = None
        self._verdict = _UNCHECKED

    def kernel(self) -> _Kernel:
        """f scaled to exact integers, built on the first call."""
        if self._kernel is None:
            self._kernel = _Kernel(self.linear, self.ranks, self.pool)
        return self._kernel

    def mnatural_violation(self):
        """check_mnatural_quadratic(f) without its cubic scan: None when f
        is M-natural-convex, otherwise the scan's first hit, with its
        ValueError for an infinite linear coefficient.

        The verdict is kept (pipeline.build_relaxation records one from the
        instance's forest, and a refuted one is named here): the linear part
        is a tuple and ranks is read-only, so it cannot change.  A recorded
        refutation that names no witness raises InvariantError."""
        verdict = self._verdict
        if verdict is _UNCHECKED or verdict is _REFUTED:
            _finite_linear(self.linear)
            found = self._pair_violation()
            if found is None and verdict is _REFUTED:
                raise InvariantError("the forest refutes an M-natural-convex function")
            verdict = found
        self._verdict = verdict
        return verdict

    def _pair_violation(self):
        """The first hit of check_mnatural_quadratic's pair scans, in
        O(n^2 + |B| n) for B the bad pairs below.

        A negative pair is the first in flat order.  Otherwise let V be f's
        pair matrix fully defined, each zero coefficient at 0's rank.  A
        triple whose three pairs have a unique minimum has it at a bad pair,
        one that ranks below its floor in V's maximum spanning forest: the
        other two pairs are a path above it.  For a bad pair (a, b), the
        smallest z whose pairs to a and to b both rank above (a, b) gives
        its lexicographically first such triple, so the scan's first triple
        is the least of those over B.  V is nonnegative and anti-ultrametric
        (hence f M-natural-convex) exactly when B is empty."""
        n, pool, ranks = self.n, self.pool, self.ranks
        k = bisect_left(pool, ZERO)
        if k:   # ranks 1..k are negative; ranks is symmetric, so u < w
            u, w = divmod(int(np.argmax((ranks > 0) & (ranks <= k))), n)
            return _mnatural_violation((u, w), (self.pair(u, w),))
        # 0 is the smallest value: it takes rank 1 and the others move up
        # when it is not in the pool.
        full = np.maximum(ranks, 1) if pool[:1] == (ZERO,) else ranks + 1
        np.fill_diagonal(full, 0)
        floor = _spanning_forest(full)[2]
        first = None
        for a in range(0, n, _BAND):
            u, w = np.nonzero(np.triu(full[a:a + _BAND] < floor[a:a + _BAND], a + 1))
            u += a
            c = 0
            while c < len(u):
                # Past the first index of the least triple so far, only a
                # smaller z gives an earlier one.  A step reads _BAND * n cells.
                cols = n if first is None or u[c] <= first[0] else first[0] + 1
                step = _BAND * n // cols
                pu, pw = u[c:c + step], w[c:c + step]
                c += step
                above = np.minimum(full[pu, :cols], full[pw, :cols]) > full[pu, pw][:, None]
                z = above.argmax(axis=1)
                hit = np.sort(np.stack([pu, pw, z])[:, above[np.arange(len(z)), z]], axis=0)
                if hit.size:
                    least = hit[:, np.lexsort(hit[::-1])[0]].tolist()
                    first = least if first is None else min(first, least)
        if first is None:
            return None
        u, w, z = first
        return _mnatural_violation((u, w, z), (self.pair(u, w), self.pair(u, z),
                                               self.pair(w, z)))

    @classmethod
    def from_coeffs(cls, linear, pair_entries) -> "QuadFn":
        """Build from explicit coefficients: pair_entries maps (u, w), in
        either orientation, to a value, a later key overriding an earlier
        one for the same pair; unlisted pairs are zero."""
        linear = tuple(ExtValue.of(v) for v in linear)
        n = len(linear)
        store = {}
        items = pair_entries.items() if hasattr(pair_entries, "items") else pair_entries
        for (u, w), v in items:
            if u == w or not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"bad pair ({u},{w})")
            store[(u, w) if u < w else (w, u)] = ExtValue.of(v)
        return cls(linear, *_rank_arrays(n, store))

    def pair(self, u: int, w: int) -> ExtValue:
        """Coefficient of the unordered pair {u, w}, u != w."""
        k = self.ranks.item(u, w)
        return self.pool[k - 1] if k else ZERO

    def __repr__(self):
        return f"QuadFn(n={self.n})"


def eval_quad(f: QuadFn, mask: int) -> ExtValue:
    """f at the 0/1 point given as a bitmask: the exact sum of its linear
    terms and of each pool value times the number of support pairs of its
    rank."""
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
        raw = f.linear[u].raw
        if raw is _INF_RAW:
            return INF
        total += raw
    # The submatrix holds each pair twice and rank 0 on its diagonal.  Top
    # rank first: an infinite pair ends the sum at once.
    ranks, counts = np.unique(f.ranks[np.ix_(supp, supp)], return_counts=True)
    for k, count in zip(ranks[::-1].tolist(), counts[::-1].tolist()):
        if k:
            raw = f.pool[k - 1].raw
            if raw is _INF_RAW:
                return INF
            total += count // 2 * raw
    return ExtValue.of(total)


def induced_partial_matrix(inst: Instance) -> PartialMatrix:
    """The coefficient matrix an instance pins down: cross-variable pairs
    carry the binary costs (zero for omitted tables), within-variable pairs
    are undefined.  That is the instance's own ranks and pool (0 within a
    variable), so the matrix is a view of them: no table is built."""
    return PartialMatrix._of(inst.n, inst.ranks, inst.pool)


def onehot_relaxation(inst: Instance, matrix: CompletedMatrix) -> QuadFn:
    """The quadratic relaxation of an instance given a completed coefficient
    matrix: the instance's unary costs over matrix.ranks and matrix.pool.

    The matrix must agree with the instance on every cross-variable pair
    (it completes the induced partial matrix); the first mismatch in
    (i < j, a, b) order raises ValueError.  On one-hot points the result
    evaluates to the instance cost.
    """
    lay = inst.layout
    if matrix.n != lay.n:
        raise ValueError(f"matrix has n={matrix.n}, instance needs n={lay.n}")
    # The instance rank of each matrix rank, -1 for a value the instance lacks.
    rank_of = {v: k for k, v in enumerate(inst.pool, 1)}
    as_inst = np.array([0, *(rank_of.get(v, -1) for v in matrix.pool)], dtype=np.int32)
    bad = np.triu(as_inst[matrix.ranks] != inst.ranks)
    bad &= inst.ranks > 0
    if bad.any():
        u, w = np.nonzero(bad)
        var = np.repeat(np.arange(inst.r), inst.domains)
        first = np.lexsort((w, u, var[w], var[u]))[0]
        (i, a), (j, b) = lay.pair(int(u[first])), lay.pair(int(w[first]))
        raise ValueError(f"matrix disagrees with instance at (({i},{a}),({j},{b}))")
    linear = [inst.unary[i][a] for i, a in lay.pairs()]
    return QuadFn(linear, matrix.ranks, matrix.pool)


def greedy_min_layer(f: QuadFn, size: int):
    """Minimize f over points with exactly `size` ones by greedy ascent
    through the layers.

    Returns the chosen bitmask, or None when every point of the layer is
    infinite.  Ties go to the lowest flat position.  Every greedy prefix
    is itself a layer minimizer; that is what makes the final point one.
    Correct only for M-natural-convex f: mnatural_violation is checked at
    every n when the linear part is finite, also under python -O.
    """
    n = f.n
    if not 0 <= size <= n:
        raise ValueError(f"layer size {size} out of range for n={n}")
    k = f.kernel()
    if not k.linear_inf.any():
        bad = f.mnatural_violation()
        if bad is not None:
            raise InvariantError(f"greedy needs an M-natural-convex function: {bad}")

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
