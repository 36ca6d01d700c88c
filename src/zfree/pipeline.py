"""End-to-end minimization of valid instances.

The solve path is: one maximum spanning tree over the cross-variable pairs,
the input check read off that tree, completion of the within-variable
coefficient blocks from the same tree, greedy layer minimization of the
relaxation, then the shortest-path loop that lands the minimizer on a
one-hot point.

The shared forest (_build_forest) is a dense n x n int32 matrix of value
ranks for the cross-variable pairs (0 within a variable, where the induced
partial matrix is undefined; 4 n^2 bytes, 16 MB at n = 2000, plus a
transient cost copy of the same size for the tree call), scipy's minimum spanning tree on the reversed
ranks, and the tree rooted at position 0 as parent, edge-rank and depth
arrays.  Minimum-edge path queries on it (_min_edge_on_paths) answer both
questions the solve asks:

- validity: the instance satisfies the join condition and is Z-free exactly
  when its induced partial matrix is completable, which holds exactly when
  no cross pair ranks below the minimum edge on its tree path (see
  check_bottleneck);
- completion: a within-variable pair gets that minimum edge as its
  coefficient.  Cross coefficients stay in the instance tables.  The result
  agrees entry for entry with completion.complete on the induced partial
  matrix (the tests pin that).

All solver arithmetic stays exact; floats appear only inside the spanning
tree call, on small integer ranks that float64 represents exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .errors import InvariantError
from .completion import completable_oracle
from .instance import Instance, one_hot_decode, evaluate_instance
from .intersection import IterationStats, ssp_intersect
from .properties import (Violation, _jwp_violation, _zfree_violation, check_jwp,
                         check_mnatural_quadratic, check_zfree)
from .quadratic import QuadFn, eval_quad, greedy_min_layer, induced_partial_matrix
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


class _BlockPairs:
    """Pair coefficients: instance tables across variables, completed ranks
    within them."""

    __slots__ = ("n", "_inst", "_var", "_local", "_blocks", "_pool")

    def __init__(self, inst: Instance, blocks, pool):
        self.n = inst.layout.n
        self._inst = inst
        var = []
        local = []
        for i, d in enumerate(inst.domains):
            var.extend([i] * d)
            local.extend(range(d))
        self._var = var
        self._local = local
        self._blocks = blocks    # per variable: row-major list of lists of ranks
        self._pool = pool        # rank - 1 -> ExtValue

    def value(self, u: int, w: int) -> ExtValue:
        i, j = self._var[u], self._var[w]
        a, b = self._local[u], self._local[w]
        if i == j:
            return self._pool[self._blocks[i][a][b] - 1]
        if i < j:
            return self._inst.binary_value(i, a, j, b)
        return self._inst.binary_value(j, b, i, a)


def _min_edge_on_paths(n, parent, pedge, depth, queries_a, queries_b, big):
    """Minimum edge rank on the tree path between each a[k], b[k] pair.

    parent/pedge/depth describe a rooted forest (roots are their own parent
    with edge rank `big`).  All queried pairs must share a tree.
    """
    maxd = int(depth.max()) if n else 0
    levels = max(1, maxd.bit_length())
    up = np.empty((levels, n), dtype=np.int32)
    mn = np.empty((levels, n), dtype=np.int32)
    up[0] = parent
    mn[0] = pedge
    for k in range(1, levels):
        up[k] = up[k - 1][up[k - 1]]
        mn[k] = np.minimum(mn[k - 1], mn[k - 1][up[k - 1]])

    a = queries_a.astype(np.int32)
    b = queries_b.astype(np.int32)
    res = np.full(a.shape, big, dtype=np.int32)
    swap = depth[b] > depth[a]
    a2 = np.where(swap, b, a)
    b2 = np.where(swap, a, b)
    diff = depth[a2] - depth[b2]
    for k in range(levels):
        m = ((diff >> k) & 1).astype(bool)
        if m.any():
            res[m] = np.minimum(res[m], mn[k][a2[m]])
            a2[m] = up[k][a2[m]]
    for k in range(levels - 1, -1, -1):
        m = up[k][a2] != up[k][b2]
        if m.any():
            res[m] = np.minimum(res[m], np.minimum(mn[k][a2[m]], mn[k][b2[m]]))
            a2[m] = up[k][a2[m]]
            b2[m] = up[k][b2[m]]
    m = a2 != b2
    if m.any():
        res[m] = np.minimum(res[m], np.minimum(mn[0][a2[m]], mn[0][b2[m]]))
    return res


class _Forest:
    """Maximum spanning tree over the cross pairs of an instance with r >= 2.

    ranks[u, w] is the rank of the cross-pair value in pool (1 for the
    smallest), 0 when u and w belong to the same variable.  The tree is
    rooted at position 0: parent, pedge (rank of the edge to the parent) and
    depth per position; the root is its own parent with edge rank big.
    """

    __slots__ = ("var", "ranks", "pool", "parent", "pedge", "depth", "big")

    def __init__(self, var, ranks, pool, parent, pedge, depth):
        self.var = var
        self.ranks = ranks
        self.pool = pool
        self.parent = parent
        self.pedge = pedge
        self.depth = depth
        self.big = len(pool) + 2

    def path_min(self, a, b):
        """Minimum edge rank on the tree path between each a[k], b[k]."""
        return _min_edge_on_paths(len(self.var), self.parent, self.pedge,
                                  self.depth, a, b, self.big)

    def tree_path(self, u: int, w: int) -> list[int]:
        """Positions on the tree path from u to w, both ends included."""
        parent = self.parent.tolist()
        depth = self.depth.tolist()
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
    pool_raws = sorted(raws)
    pool = [ExtValue.of(v) for v in pool_raws]
    rank_of = {v: k + 1 for k, v in enumerate(pool_raws)}
    levels = len(pool_raws)

    ranks = np.zeros((n, n), dtype=np.int32)
    for i in range(r):
        oi, di = lay.offsets[i], inst.domains[i]
        for j in range(i + 1, r):
            oj, dj = lay.offsets[j], inst.domains[j]
            flat = cells.get((i, j))
            if flat is None:
                blk = np.full((di, dj), rank_of[0], dtype=np.int32)
            else:
                blk = np.array([rank_of[v] for v in flat],
                               dtype=np.int32).reshape(di, dj)
            ranks[oi:oi + di, oj:oj + dj] = blk
            ranks[oj:oj + dj, oi:oi + di] = blk.T

    # Maximum spanning tree on ranks == minimum spanning tree on the costs
    # levels + 1 - rank, which are positive exactly on the cross pairs.
    costs = np.subtract(levels + 1, ranks, dtype=np.int32)
    costs[ranks == 0] = 0
    tree = minimum_spanning_tree(csr_matrix(costs)).tocoo()
    del costs
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in zip(tree.row.tolist(), tree.col.tolist()):
        adj[u].append(w)
        adj[w].append(u)

    # Root the tree at position 0.
    parent = [-1] * n
    depth = [0] * n
    parent[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    if -1 in parent:
        raise InvariantError("cross pairs left the position graph disconnected")
    parent = np.array(parent, dtype=np.int32)
    pedge = ranks[parent, np.arange(n)]
    pedge[0] = levels + 2
    var = [i for i, d in enumerate(inst.domains) for _ in range(d)]
    return _Forest(var, ranks, pool, parent, pedge,
                   np.array(depth, dtype=np.int32))


_QUERY_CELLS = 1 << 20   # rank matrix cells scanned per path query batch


def _bottleneck_violation(inst: Instance, forest: _Forest | None):
    """None when every cross pair equals its tree bottleneck, otherwise the
    witness shrunk from the first pair (in flat order) that ranks below it."""
    if forest is None:
        return None
    ranks = forest.ranks
    n = len(forest.var)
    step = max(1, _QUERY_CELLS // n)
    for lo in range(0, n, step):
        # Cross pairs u < w with u in rows lo.., in flat order.
        a, b = np.nonzero(np.triu(ranks[lo:lo + step], lo + 1))
        a += lo
        if len(a) == 0:
            continue
        bad = np.flatnonzero(ranks[a, b] < forest.path_min(a, b))
        if len(bad):
            u, w = int(a[bad[0]]), int(b[bad[0]])
            return _cycle_violation(inst, forest, forest.tree_path(u, w))
    return None


def _cycle_violation(inst: Instance, forest: _Forest, cycle: list[int]):
    """Shrink a cycle of cross pairs whose closing edge (cycle[-1], cycle[0])
    is its unique minimum until no cross pair is a chord, and report it.

    A chord splits the cycle in two; the half that keeps the closing edge
    still has it as unique minimum unless the chord ranks no higher, and
    then the chord is the unique minimum of the other half.  Every cycle of
    length five or more in the cross-pair graph (complete multipartite over
    the variables) has a chord, so what is left is a triangle over three
    variables (a join-condition witness) or a 4-cycle over two (a Z).
    """
    var = forest.var
    ranks = forest.ranks
    while True:
        v0, k = cycle[0], len(cycle) - 1
        low = ranks[cycle[k], v0]
        for j in range(2, k):
            if var[cycle[j]] != var[v0]:
                cycle = ([v0, *cycle[j:]] if ranks[v0, cycle[j]] > low
                         else cycle[:j + 1])
                break
        else:
            if k == 3 and var[cycle[1]] != var[cycle[3]]:
                _, v1, v2, v3 = cycle
                cycle = [v0, v1, v3] if ranks[v1, v3] > low else [v1, v2, v3]
            else:
                break

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
    built here when not given.
    """
    lay = inst.layout
    n = lay.n
    linear = [inst.unary[i][a] for i, a in lay.pairs()]

    if inst.r == 1:
        blocks = [[[1] * n for _ in range(n)]]
        return QuadFn(linear, _BlockPairs(inst, blocks, [ZERO]))
    if forest is None:
        forest = _build_forest(inst)

    blocks = []
    for i, d in enumerate(inst.domains):
        grid = np.zeros((d, d), dtype=np.int32)
        if d > 1:
            ai, bi = np.triu_indices(d, 1)
            res = forest.path_min(ai + lay.offsets[i], bi + lay.offsets[i])
            if int(res.max()) >= forest.big:
                raise InvariantError("path query escaped the spanning tree")
            grid[ai, bi] = res
            grid[bi, ai] = res
        blocks.append(grid.tolist())
    return QuadFn(linear, _BlockPairs(inst, blocks, forest.pool))


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
