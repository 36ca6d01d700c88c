"""End-to-end minimization of valid instances.

The solve path is: one maximum spanning tree over the cross-variable pairs,
the input check read off that tree, completion of the within-variable
coefficient blocks from the same tree, greedy layer minimization of the
relaxation, then the shortest-path loop that lands the minimizer on a
one-hot point.

The shared forest (_build_forest) is completion._Forest over the
cross-variable pairs: a dense n x n int32 matrix of value ranks (0 within a
variable, where the induced partial matrix is undefined) and the int32
matrix of tree-path minima (floor) that Prim's algorithm fills as it grows
the tree from position 0, 8 n^2 bytes in all (32 MB at n = 2000).  Ties go
to the lowest position, and a position hangs off the earliest tree position
that offered its rank.  The two matrices answer both questions the solve
asks:

- validity: the instance satisfies the join condition and is Z-free exactly
  when its induced partial matrix is completable, which holds exactly when
  no cross pair ranks below its floor value (see check_bottleneck);
- completion: a within-variable pair gets its floor value.  The
  relaxation's pair source (quadratic.RankPairs) is the rank matrix with
  the within-variable blocks taken from floor, over the forest's value
  pool; it agrees entry for entry with completion.complete on the induced
  partial matrix, which reads the same kind of forest.

build_relaxation also builds the relaxation's integer kernel once: every
finite unary and pool value times D, the LCM of their denominators (1 for
all-integer input, 2 for the generator's half-integer unary costs).  The
greedy layer minimum and the shortest-path loop run on it; ExtValue comes
back only for the final check and the report.

This module keeps the instance's rank matrix and the mapping of the
forest's chordless cycles to JWP and ZFREE witnesses.

All arithmetic stays exact (integers and fractions); no float enters the
solver, the forest included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvariantError
from .completion import _Forest, _ranked, completable_oracle
# perfbench/tracing.py traces the forest routine under this name.
from .completion import _spanning_forest as minimum_spanning_tree
from .instance import Instance, one_hot_decode, evaluate_instance
from .intersection import IterationStats, ssp_intersect
from .properties import (Violation, _jwp_violation, _zfree_violation, check_jwp,
                         check_mnatural_quadratic, check_zfree)
from .quadratic import (QuadFn, RankPairs, eval_quad, greedy_min_layer,
                        induced_partial_matrix)
from .values import INF, ZERO, ExtValue, format_value

__all__ = [
    "SolveStatus",
    "SolveReport",
    "build_relaxation",
    "check_bottleneck",
    "minimize_zfree",
    "CertifyResult",
    "certify",
]

_VERIFY_LIMIT = 120  # auto-verify the relaxation up to this flat size


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFINITE_MINIMUM = "infinite-minimum"
    REJECTED = "rejected"


@dataclass
class SolveReport:
    status: SolveStatus
    assignment: tuple | None = None       # value index per variable, 0-based
    value: ExtValue | None = None
    violation: Violation | None = None
    iterations: list[IterationStats] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary; 1-based assignment, no timings."""
        out: dict = {"status": self.status.value}
        if self.status is SolveStatus.REJECTED:
            out["check"] = self.violation.kind.value
            out["reason"] = self.violation.message
            return out
        out["assignment"] = (None if self.assignment is None
                             else [a + 1 for a in self.assignment])
        out["value"] = None if self.value is None else format_value(self.value)
        out["iterations"] = len(self.iterations)
        return out


def _build_forest(inst: Instance) -> _Forest | None:
    """The shared spanning forest of inst; None for a single variable, which
    has no cross pairs."""
    lay = inst.layout
    n = lay.n
    r = inst.r
    if r == 1:
        return None

    cells = {}
    raws = set()
    for (i, j), t in inst.binary_pairs():
        flat = [v.raw for row in t for v in row]
        raws.update(flat)
        cells[(i, j)] = flat
    if len(cells) < r * (r - 1) // 2:
        raws.add(0)
    pool, rank_of = _ranked(raws)
    rank = rank_of.__getitem__

    ranks = np.zeros((n, n), dtype=np.int32)
    for i in range(r):
        oi, di = lay.offsets[i], inst.domains[i]
        for j in range(i + 1, r):
            oj, dj = lay.offsets[j], inst.domains[j]
            flat = cells.get((i, j))
            if flat is None:
                blk = np.full((di, dj), rank_of[0], dtype=np.int32)
            else:
                blk = np.fromiter(map(rank, flat), dtype=np.int32,
                                  count=di * dj).reshape(di, dj)
            ranks[oi:oi + di, oj:oj + dj] = blk
            ranks[oj:oj + dj, oi:oi + di] = blk.T

    forest = _Forest(ranks, pool)
    if forest.root.any():
        raise InvariantError("cross pairs left the position graph disconnected")
    return forest


def _bottleneck_violation(inst: Instance, forest: _Forest | None):
    """None when every cross pair equals its tree bottleneck, otherwise the
    JWP or ZFREE witness for the forest's chordless cycle."""
    if forest is None:
        return None
    cycle = forest.violation()
    return None if cycle is None else _cycle_violation(inst, cycle)


def _cycle_violation(inst: Instance, cycle: list[int]):
    """The witness for a chordless cycle of cross pairs with a unique
    minimum.  The cross-pair graph is complete multipartite over the
    variables, so such a cycle is a triangle over three variables (a
    join-condition witness) or a 4-cycle over two (a Z)."""
    pos = [inst.layout.pair(v) for v in cycle]

    def raw(p, q):
        return inst.binary_value(p[0], p[1], q[0], q[1]).raw

    if len(pos) == 3:
        x, y, z = pos
        ia, jb = sorted((x, z))
        raws = (raw(ia, jb), raw(ia, y), raw(jb, y))
        if raws[0] < raws[1] and raws[0] < raws[2]:
            return _jwp_violation(ia, jb, y, raws)
    elif len(pos) == 4:
        rows = sorted((pos[0], pos[2]))
        cols = sorted((pos[1], pos[3]))
        if rows[0][0] > cols[0][0]:
            rows, cols = cols, rows
        (i, a), (_, b) = rows
        (j, c), (_, d) = cols
        quad = (raw(rows[0], cols[0]), raw(rows[0], cols[1]),
                raw(rows[1], cols[0]), raw(rows[1], cols[1]))
        if quad.count(min(quad)) == 1:
            return _zfree_violation((i, a, b), (j, c, d), quad)
    raise InvariantError(f"bottleneck witness {cycle} is not a violation")


def check_bottleneck(inst: Instance):
    """Decide the join condition and Z-freeness together from the maximum
    spanning tree of the cross pairs.

    Both hold exactly when every cross pair equals the minimum edge on its
    tree path.  Returns None when they do, otherwise one witness: the first
    cross pair (flat order, u < w) that ranks below its bottleneck, closed
    into a cycle by its tree path and shrunk along chords to a triangle
    (ViolationKind.JWP) or a 2x2 subtable (ViolationKind.ZFREE), in the
    shape check_jwp and check_zfree report.  Those exhaustive scans give the
    same verdict but may cite a different witness.
    """
    return _bottleneck_violation(inst, _build_forest(inst))


def build_relaxation(inst: Instance, forest: _Forest | None = None) -> QuadFn:
    """The quadratic relaxation with completed within-variable blocks.

    Requires a valid instance (join condition plus the subtable condition);
    on anything else the output is meaningless and may trip downstream
    invariant checks.  forest is the instance's shared spanning forest,
    built here when not given; it is not modified.

    The pairs are a RankPairs over a new rank matrix (4 n^2 bytes): the
    forest's cross ranks, with the within-variable blocks read from its
    floor of tree-path minima.  The integer kernel (each finite value
    scaled by the LCM D of the denominators) is built here, once.
    """
    lay = inst.layout
    n = lay.n
    linear = [inst.unary[i][a] for i, a in lay.pairs()]

    if inst.r == 1:
        ranks = np.ones((n, n), dtype=np.int32)
        np.fill_diagonal(ranks, 0)
        pairs = RankPairs(ranks, [ZERO])
    else:
        if forest is None:
            forest = _build_forest(inst)
        ranks = forest.ranks
        pairs = RankPairs(np.where(ranks > 0, ranks, forest.floor), forest.pool)
    f = QuadFn(linear, pairs)
    f.kernel()   # scale once, here
    return f


def _warm_start(inst: Instance) -> int:
    """One-hot mask picking each variable's cheapest value, ties low."""
    lay = inst.layout
    mask = 0
    for i in range(inst.r):
        row = inst.unary[i]
        best = 0
        for a in range(1, inst.domains[i]):
            if row[a] < row[best]:
                best = a
        mask |= 1 << lay.flat(i, best)
    return mask


def minimize_zfree(inst: Instance, *, check_properties: bool = True,
                   verify_completion: bool | None = None,
                   dump_hook=None) -> SolveReport:
    """Minimize a valid instance exactly.

    check_properties decides the join condition and Z-freeness first, from
    the spanning forest the completion uses anyway (see check_bottleneck),
    and reports a rejection with one witness: the first violating cross
    pair in flat order, closed by its tree path and shrunk along chords to a
    triangle (ViolationKind.JWP) or a 2x2 subtable (ViolationKind.ZFREE).
    The witness can differ from the first hit of check_jwp/check_zfree; the
    verdict cannot.  Turning the check off skips straight to the solve and
    is only sound for instances known valid.

    verify_completion rescans the completed relaxation for the coefficient
    conditions the solve relies on; None means auto (on for small inputs).
    dump_hook is passed through to the shortest-path loop.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    forest = _build_forest(inst)
    timings["forest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if check_properties:
        bad = _bottleneck_violation(inst, forest)
        if bad is not None:
            timings["check"] = time.perf_counter() - t0
            return SolveReport(SolveStatus.REJECTED, violation=bad, timings=timings)
    timings["check"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    f = build_relaxation(inst, forest)
    if verify_completion is None:
        verify_completion = inst.layout.n <= _VERIFY_LIMIT
    if verify_completion:
        bad = check_mnatural_quadratic(f)
        if bad is not None:
            raise InvariantError(f"completion produced a bad relaxation: {bad}")
    timings["complete"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x0 = greedy_min_layer(f, inst.r)
    timings["greedy"] = time.perf_counter() - t0
    if x0 is None:
        return SolveReport(SolveStatus.INFINITE_MINIMUM, value=INF, timings=timings)

    t0 = time.perf_counter()
    result = ssp_intersect(f, inst.layout, x0, _warm_start(inst), dump_hook)
    timings["ssp"] = time.perf_counter() - t0
    if result.mask is None:
        return SolveReport(SolveStatus.INFINITE_MINIMUM, value=INF,
                           iterations=result.iterations, timings=timings)

    assignment = one_hot_decode(inst, result.mask)
    value = evaluate_instance(inst, assignment)
    relaxed = eval_quad(f, result.mask)
    if relaxed != value:
        raise InvariantError(
            f"relaxation value {relaxed} disagrees with the instance value {value}")
    return SolveReport(SolveStatus.OPTIMAL, assignment=assignment, value=value,
                       iterations=result.iterations, timings=timings)


@dataclass
class CertifyResult:
    jwp_ok: bool
    zfree_ok: bool
    completable: bool
    jwp_violation: Violation | None = None
    zfree_violation: Violation | None = None
    bad_cycle: list | None = None

    @property
    def agreement(self) -> bool:
        """Both input checks pass exactly when the induced matrix completes."""
        return (self.jwp_ok and self.zfree_ok) == self.completable

    def to_dict(self) -> dict:
        out = {
            "jwp": self.jwp_ok,
            "zfree": self.zfree_ok,
            "completable": self.completable,
            "agreement": self.agreement,
        }
        if self.jwp_violation is not None:
            out["jwp_reason"] = self.jwp_violation.message
        if self.zfree_violation is not None:
            out["zfree_reason"] = self.zfree_violation.message
        if self.bad_cycle is not None:
            out["bad_cycle"] = [u + 1 for u in self.bad_cycle]
        return out


def certify(inst: Instance, max_n: int = 30) -> CertifyResult:
    """Run both input checks and the exhaustive completability test side by
    side.  The cycle search is exponential, so it is budgeted by max_n flat
    positions; past that BudgetExceededError propagates."""
    jwp = check_jwp(inst)
    zfree = check_zfree(inst)
    cycle = completable_oracle(induced_partial_matrix(inst), max_n=max_n)
    return CertifyResult(
        jwp_ok=jwp is None,
        zfree_ok=zfree is None,
        completable=cycle is None,
        jwp_violation=jwp,
        zfree_violation=zfree,
        bad_cycle=cycle,
    )
