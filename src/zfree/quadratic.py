"""Quadratic set functions over flat one-hot positions.

A QuadFn is f(x) = sum_u linear[u] x_u + sum_{u<w} pair(u, w) x_u x_w for
x in {0,1}^n, with each unordered pair counted once.  The solver works with
the relaxation of an instance: linear part from the unary costs, pair part
from the completed coefficient matrix (cross-variable pairs keep the binary
costs, within-variable pairs come from completion).

greedy_min_layer minimizes such a function over points with exactly `size`
ones by repeatedly adding the cheapest position.  That is only valid for
M-natural-convex functions, which is exactly what the completion step
produces; an InvariantError check guards the precondition on small inputs.
"""

from __future__ import annotations

import math

from .completion import CompletedMatrix, PartialMatrix
from .errors import InvariantError
from .instance import Instance
from .properties import check_mnatural_quadratic
from .values import INF, ZERO, ExtValue

__all__ = [
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


class QuadFn:
    """Linear coefficients plus a source of symmetric pair coefficients.

    pairs can be a CompletedMatrix or any object with n and value(u, w).
    The linear part is expected finite for solving; sign and finiteness are
    deliberately not enforced here, the property checks own that.
    """

    __slots__ = ("n", "linear", "pairs")

    def __init__(self, linear, pairs):
        self.linear = tuple(ExtValue.of(v) for v in linear)
        self.n = len(self.linear)
        if pairs.n != self.n:
            raise ValueError(f"pair source covers {pairs.n} positions, linear has {self.n}")
        self.pairs = pairs

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
    are undefined."""
    lay = inst.layout
    entries = []
    for i in range(inst.r):
        for j in range(i + 1, inst.r):
            t = inst.table(i, j)
            for a in range(inst.domains[i]):
                ua = lay.flat(i, a)
                for b in range(inst.domains[j]):
                    v = t[a][b] if t is not None else ZERO
                    entries.append(((ua, lay.flat(j, b)), v))
    return PartialMatrix(lay.n, entries)


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

    marginal = [v.raw for v in f.linear]
    unset = list(range(n))
    mask = 0
    for _ in range(size):
        best_pos = None
        best = math.inf
        for idx, u in enumerate(unset):
            m = marginal[u]
            if m < best:
                best, best_pos = m, idx
        if best_pos is None or best == math.inf:
            return None
        picked = unset.pop(best_pos)
        mask |= 1 << picked
        for u in unset:
            marginal[u] += f.pairs.value(u, picked).raw
    return mask
