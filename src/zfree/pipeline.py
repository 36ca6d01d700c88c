"""End-to-end minimization of valid instances.

The solve path is: one maximum spanning tree over the cross-variable pairs,
the input check read off that tree, completion of the within-variable
coefficient blocks from the same tree, greedy layer minimization of the
relaxation, then the shortest-path loop that lands the minimizer on a
one-hot point.

The shared forest (_build_forest) is completion._Forest over the
instance's own rank matrix (Instance.ranks: int32 value ranks of the cross
pairs into Instance.pool, 0 within a variable, built with the instance).
Prim's algorithm grows it from position 0 and keeps only the join order,
the join key of each position (the rank it joined with; the cross pairs
of two or more variables connect every position, so no key after the
first is 0) and the int32 matrix of tree-path minima (floor).  Ties go to
the lowest position, and a position hangs off the earliest-joined position
whose rank to it is its join key; those parents are derived only to close
a rejection's witness cycle, so a valid solve never builds the tree.  The
two matrices answer both questions the solve asks:

- validity: the instance satisfies the join condition and is Z-free exactly
  when its induced partial matrix is completable, which holds exactly when
  no cross pair ranks below its floor value (see check_bottleneck);
- completion: a within-variable pair gets its floor value.  The
  relaxation's ranks are floor itself with the cross ranks written over
  it (_Forest.fill), over the pool the fill returns; they agree entry for
  entry with completion.complete on the induced partial matrix, which
  fills the same kind of forest the same way.

The validity verdict is also the relaxation's M-natural verdict: a cross
rank never exceeds its floor, so the relaxation is anti-ultrametric (its
pool is nonnegative) exactly when no cross pair ranks below its floor.
The forest decides it once per solve, checks on or off, before its floor
is filled; build_relaxation records it on every relaxation, and the
solve's check and greedy_min_layer's precondition read it at every n
without scanning.  A refuted relaxation's witness, the first hit of the
cubic check_mnatural_quadratic, comes from the bad pairs of its forest
(QuadFn.mnatural_violation); the scan itself runs only when
verify_completion asks for the independent rescan.

build_relaxation also builds the relaxation's integer kernel once: every
finite unary and pool value times D, the LCM of their denominators (1 for
all-integer input, 2 for the generator's half-integer unary costs).  The
greedy layer minimum and the shortest-path loop run on it; the warm start
and the final check read raw ints and Fractions, and ExtValue comes back
only for the report.

This module keeps the mapping of the forest's chordless cycles to JWP and
ZFREE witnesses, read off the instance's ranks and pool.

All arithmetic stays exact (integers and fractions); no float enters the
solver, the forest included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from .errors import InvariantError
from .completion import _Forest, completable_oracle
# perfbench/tracing.py traces the forest routine under this name.
from .completion import _spanning_forest as minimum_spanning_tree
from .instance import Instance, one_hot_decode, evaluate_instance
from .intersection import IterationStats, ssp_intersect
from .properties import (Violation, _jwp_violation, _zfree_violation, check_jwp,
                         check_mnatural_quadratic, check_zfree)
from .quadratic import (_REFUTED, QuadFn, eval_quad, greedy_min_layer,
                        induced_partial_matrix)
from .values import INF, ExtValue, format_value

__all__ = [
    "SolveStatus",
    "SolveReport",
    "build_relaxation",
    "check_bottleneck",
    "minimize_zfree",
    "CertifyResult",
    "certify",
]


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
    # pool_size: distinct pair costs of the instance; once the shortest-path
    # loop ran, also its SspResult.counters (rounds, arcs by kind,
    # search_pops, kernel_dtype).
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary; 1-based assignment, no timings or counters."""
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


def _build_forest(inst: Instance) -> _Forest:
    """The shared spanning forest of inst.  The cross pairs of two or more
    variables connect every position, so a join key of 0 after the first
    position would start a second component."""
    forest = _Forest(inst.ranks, inst.pool)
    if inst.r > 1 and not forest.keys[1:].all():
        raise InvariantError("cross pairs left the position graph disconnected")
    return forest


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
    cycle = _build_forest(inst).violation()
    return None if cycle is None else _cycle_violation(inst, cycle)


def build_relaxation(inst: Instance, forest: _Forest | None = None) -> QuadFn:
    """The quadratic relaxation with completed within-variable blocks.

    Requires a valid instance (join condition plus the subtable condition);
    on anything else the output is meaningless and may trip downstream
    invariant checks.  forest is the instance's shared spanning forest,
    built here when not given.  The call takes forest.floor: _Forest.fill
    writes the cross ranks into it, band by band, over the within-variable
    tree-path minima it already holds, and that read-only matrix is the
    relaxation's ranks over the pool fill returns; no n x n array is
    allocated.

    The relaxation's M-natural verdict (QuadFn.mnatural_violation) is the
    forest's, which fill decides before it overwrites floor, and is always
    recorded here.  A cross rank never exceeds its floor, so floor with the
    cross ranks written over it is anti-ultrametric exactly when no cross
    pair ranks below its floor; the pool is nonnegative.  The integer
    kernel (each finite value scaled by the LCM D of the denominators) is
    built here, once.
    """
    if forest is None:
        forest = _build_forest(inst)
    f = QuadFn(chain.from_iterable(inst.unary), *forest.fill())
    f._verdict = None if forest.violation() is None else _REFUTED
    f.kernel()   # scale once, here
    return f


def _warm_start(inst: Instance) -> int:
    """One-hot mask picking each variable's cheapest value, ties low."""
    linear = [v.raw for v in chain.from_iterable(inst.unary)]
    mask = 0
    for i in range(inst.r):
        block = inst.layout.block(i)
        row = linear[block.start:block.stop]
        mask |= 1 << (block.start + row.index(min(row)))
    return mask


def minimize_zfree(inst: Instance, *, check_properties: bool = True,
                   verify_completion: bool = False,
                   dump_hook=None) -> SolveReport:
    """Minimize a valid instance exactly.

    check_properties decides the join condition and Z-freeness first, from
    the spanning forest the completion uses anyway (see check_bottleneck),
    and reports a rejection with one witness: the first violating cross
    pair in flat order, closed by its tree path and shrunk along chords to a
    triangle (ViolationKind.JWP) or a 2x2 subtable (ViolationKind.ZFREE).
    The witness can differ from the first hit of check_jwp/check_zfree; the
    verdict cannot.

    The forest's verdict is asked once per solve either way: it is also the
    relaxation's M-natural verdict (see build_relaxation), which the solve
    and greedy_min_layer then read for free at every n.  With
    check_properties off, an invalid instance therefore raises
    InvariantError ("completion produced a bad relaxation: ..." with the
    first hit of check_mnatural_quadratic, named without the scan) instead
    of being rejected.

    verify_completion adds the exhaustive cubic rescan of the relaxation
    (check_mnatural_quadratic), an independent check of the same verdict.
    dump_hook is passed through to the shortest-path loop.
    """
    timings: dict = {}
    counters = {"pool_size": len(inst.pool)}
    t0 = time.perf_counter()
    forest = _build_forest(inst)
    timings["forest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cycle = forest.violation()
    if cycle is not None and check_properties:
        timings["check"] = time.perf_counter() - t0
        return SolveReport(SolveStatus.REJECTED, violation=_cycle_violation(inst, cycle),
                           timings=timings, counters=counters)
    timings["check"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    f = build_relaxation(inst, forest)
    bad = f.mnatural_violation()
    if bad is None and verify_completion:
        bad = check_mnatural_quadratic(f)
    if bad is not None:
        raise InvariantError(f"completion produced a bad relaxation: {bad}")
    timings["complete"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x0 = greedy_min_layer(f, inst.r)
    timings["greedy"] = time.perf_counter() - t0
    if x0 is None:
        return SolveReport(SolveStatus.INFINITE_MINIMUM, value=INF, timings=timings,
                           counters=counters)

    t0 = time.perf_counter()
    result = ssp_intersect(f, inst.layout, x0, _warm_start(inst), dump_hook)
    timings["ssp"] = time.perf_counter() - t0
    counters.update(result.counters)
    if result.mask is None:
        return SolveReport(SolveStatus.INFINITE_MINIMUM, value=INF,
                           iterations=result.iterations, timings=timings,
                           counters=counters)

    assignment = one_hot_decode(inst, result.mask)
    value = evaluate_instance(inst, assignment)
    relaxed = eval_quad(f, result.mask)
    if relaxed != value:
        raise InvariantError(
            f"relaxation value {relaxed} disagrees with the instance value {value}")
    return SolveReport(SolveStatus.OPTIMAL, assignment=assignment, value=value,
                       iterations=result.iterations, timings=timings, counters=counters)


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
    positions and runs first: past that BudgetExceededError propagates
    before either check scans."""
    cycle = completable_oracle(induced_partial_matrix(inst), max_n=max_n)
    jwp = check_jwp(inst)
    zfree = check_zfree(inst)
    return CertifyResult(
        jwp_ok=jwp is None,
        zfree_ok=zfree is None,
        completable=cycle is None,
        jwp_violation=jwp,
        zfree_violation=zfree,
        bad_cycle=cycle,
    )
