"""Successive shortest paths between a quadratic function and the one-hot
partition constraint.

Given a layer minimizer x of the relaxation and any one-hot point y of the
same size, the loop repeatedly builds an exchange graph, finds a shortest
s-t path with the fewest arcs, and flips x and y along it.  Each round moves
x and y two positions closer; when they meet, the common point minimizes the
relaxation over one-hot points, hence the instance.

Arc lengths can be negative, so Dijkstra runs on reduced lengths under a
vertex potential that starts at zero and absorbs the distances found in each
round, capped at the sink's distance.  Nonnegativity of every reduced length
is checked, not assumed.

All arithmetic is on exact integers: f's kernel (QuadFn.kernel) scales every
finite value by D, so arc lengths, distances and potentials are ints in
units of 1/D (ExchangeGraph.scale).  Exchange-arc lengths come from one
r x n array operation per round, in int64 when the sums fit and in Python
ints otherwise.  Infinite pair terms are counted, never added, so arc
lengths are always finite.  IterationStats reports in the original units.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, NotOneHotError
from .instance import OneHotLayout
from .quadratic import QuadFn

__all__ = [
    "ArcKind",
    "Arc",
    "ExchangeGraph",
    "build_exchange_graph",
    "PathSearch",
    "shortest_path_min_hops",
    "IterationStats",
    "SspResult",
    "ssp_intersect",
]


class ArcKind(Enum):
    EXCHANGE = "exchange"   # u in supp(x) -> w outside, swap feasible for f
    REASSIGN = "reassign"   # w -> u within one variable block, u in supp(y)
    SOURCE = "source"       # s -> u, u in supp(x) \ supp(y)
    SINK = "sink"           # w -> t, w in supp(y) \ supp(x)


class Arc(NamedTuple):
    tail: int
    head: int
    length: int     # in units of 1/scale of its graph
    kind: ArcKind


class _ArcView(Sequence):
    """A graph's arcs as Arc tuples, in arc order."""

    __slots__ = ("_graph",)

    def __init__(self, graph):
        self._graph = graph

    def __len__(self):
        return len(self._graph.head)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        g = self._graph
        return Arc(g.tail[idx], g.head[idx], g.length[idx], g.kind[idx])


class ExchangeGraph:
    """Directed multigraph on flat positions plus source s and sink t.

    Arc idx runs from tail[idx] to head[idx] with integer length[idx], in
    units of 1/scale, and kind[idx]; adj[v] lists the arcs leaving v in arc
    order.  arcs views them as Arc tuples.
    """

    __slots__ = ("n", "s", "t", "scale", "tail", "head", "length", "kind", "adj")

    def __init__(self, n: int, tail: list, head: list, length: list, kind: list,
                 scale: int = 1):
        self.n = n
        self.s = n
        self.t = n + 1
        self.scale = scale
        self.tail = tail
        self.head = head
        self.length = length
        self.kind = kind
        tails = np.array(tail, dtype=np.intp)
        order = np.argsort(tails, kind="stable")
        bounds = np.searchsorted(tails[order], np.arange(n + 3)).tolist()
        order = order.tolist()
        self.adj = [order[a:b] for a, b in zip(bounds, bounds[1:])]

    @classmethod
    def from_arcs(cls, n: int, arcs, scale: int = 1) -> "ExchangeGraph":
        """A graph from (tail, head, length, kind) arcs, in that order."""
        columns = [list(c) for c in zip(*arcs)] or [[], [], [], []]
        return cls(n, *columns, scale=scale)

    @property
    def arcs(self) -> Sequence:
        return _ArcView(self)

    def count(self, kind: ArcKind) -> int:
        return self.kind.count(kind)


def _support(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _check_one_hot(layout: OneHotLayout, mask: int) -> None:
    for i in range(len(layout.domains)):
        blk = layout.block(i)
        picked = (mask >> blk.start) & ((1 << len(blk)) - 1)
        if picked == 0 or picked & (picked - 1):
            raise NotOneHotError(f"variable {i + 1} does not pick exactly one value")


def build_exchange_graph(f: QuadFn, x_mask: int, y_mask: int,
                         layout: OneHotLayout) -> ExchangeGraph:
    """Exchange graph for the current pair (x, y), on f's integer kernel.

    x must be a point of finite f value, y a one-hot point of the same size.
    Exchange arcs u -> w exist for u in supp(x), w outside supp(x), whenever
    x - u + w stays finite; their length is the change of f along the swap.
    Reassign arcs point from every unpicked position of a block to the one y
    picks there; they and the source/sink arcs have length zero.

    Arcs are emitted in a fixed order (exchange, reassign, source, sink; each
    class in ascending position order) so downstream tie-breaking is stable.
    """
    n = f.n
    if layout.n != n:
        raise ValueError("layout does not match the function")
    supp_x = np.array(_support(x_mask), dtype=np.intp)
    _check_one_hot(layout, y_mask)
    k = f.kernel()
    r = len(supp_x)
    # Lengths below are differences of two sums of r + 1 values each.
    linear, by_rank = k.arrays(2 * r + 2)

    # Row a: the pair terms of supp_x[a] with every position (the rank
    # matrix is symmetric), 0 where infinite; the diagonal contributes 0.
    ranks = k.ranks[supp_x]
    inf = ranks == k.inf_rank
    pair = by_rank[ranks]
    if k.linear_inf[supp_x].any() or inf[:, supp_x].any():
        raise ValueError("x lies outside the finite domain of f")

    # out_cost[a]: linear plus pair terms inside x of supp_x[a], so
    # f(x - u) = f(x) - out_cost.  For w outside x the terms to all of x
    # split into a finite sum and a count of infinite terms, so removing
    # one u needs no infinity subtraction:
    # f(x - u + w) - f(x) = in_fin[w] - pair[a, w] - out_cost[a].
    out_cost = linear[supp_x] + pair[:, supp_x].sum(axis=1)
    in_fin = linear + pair.sum(axis=0)
    in_infs = inf.sum(axis=0) + k.linear_inf
    outside = np.ones(n, dtype=bool)
    outside[supp_x] = False
    rows, heads = np.nonzero(outside & (in_infs == inf))
    lengths = (in_fin[heads] - pair[rows, heads]) - out_cost[rows]
    tail = supp_x[rows].tolist()
    head = heads.tolist()
    length = lengths.tolist()
    kind = [ArcKind.EXCHANGE] * len(head)

    supp_y = _support(y_mask)
    target = np.repeat(supp_y, layout.domains)
    moved = np.flatnonzero(target != np.arange(n))
    tail += moved.tolist()
    head += target[moved].tolist()

    s, t = n, n + 1
    in_y = set(supp_y)
    sources = [u for u in supp_x.tolist() if u not in in_y]
    in_x = set(supp_x.tolist())
    sinks = [w for w in supp_y if w not in in_x]
    tail += [s] * len(sources) + sinks
    head += sources + [t] * len(sinks)
    length += [0] * (len(head) - len(length))
    kind += ([ArcKind.REASSIGN] * len(moved) + [ArcKind.SOURCE] * len(sources)
             + [ArcKind.SINK] * len(sinks))
    return ExchangeGraph(n, tail, head, length, kind, k.scale)


@dataclass
class PathSearch:
    """Dijkstra output on graph: reduced distances, hop counts, and parent
    arcs.

    dist entries are None for unreachable vertices.
    """

    graph: ExchangeGraph
    dist: list
    hops: list
    parent: list      # arc index into graph's arcs, or None

    def reached(self, v: int) -> bool:
        return self.dist[v] is not None

    def path_to(self, v: int) -> list[int]:
        """Arc indices from s to v, in path order."""
        tail = self.graph.tail
        out = []
        while self.parent[v] is not None:
            idx = self.parent[v]
            out.append(idx)
            v = tail[idx]
        out.reverse()
        return out


def shortest_path_min_hops(graph: ExchangeGraph, potential: list) -> PathSearch:
    """Shortest s-to-everywhere distances under reduced lengths, breaking
    distance ties by fewest arcs, then by smallest head, then by arc order.

    potential holds an int per vertex (n positions, then s, then t), in the
    graph's units.  Every reduced length must come out nonnegative; a
    negative one means the potentials are stale and raises InvariantError.
    """
    m = graph.n + 2
    if len(potential) != m:
        raise ValueError("potential length does not match the graph")
    reduced = [lp + potential[a] - potential[b]
               for a, b, lp in zip(graph.tail, graph.head, graph.length)]
    if reduced and min(reduced) < 0:
        idx = next(i for i, lp in enumerate(reduced) if lp < 0)
        raise InvariantError(
            f"negative reduced length {Fraction(reduced[idx], graph.scale)} "
            f"on arc {graph.tail[idx]}->{graph.head[idx]}")

    head, adj = graph.head, graph.adj
    dist = [None] * m
    hops = [0] * m
    parent = [None] * m
    done = [False] * m
    s = graph.s
    dist[s] = 0
    # One int per heap entry orders by (distance, hops, vertex): hops and
    # vertices are below m.  A vertex's first pop carries its final
    # distance and hops, so only the vertex is decoded.
    mm = m * m
    heap = [s]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        v = heappop(heap) % m
        if done[v]:
            continue
        done[v] = True
        d = dist[v]
        nh = hops[v] + 1
        key_hops = nh * m
        for idx in adj[v]:
            w = head[idx]
            if done[w]:
                continue
            nd = d + reduced[idx]
            dw = dist[w]
            if dw is None or nd < dw or (nd == dw and nh < hops[w]):
                dist[w], hops[w], parent[w] = nd, nh, idx
                heappush(heap, nd * mm + key_hops + w)

    return PathSearch(graph, dist, hops, parent)


@dataclass
class IterationStats:
    """What one round of the loop did, for reporting and invariant tests."""

    index: int
    gap_before: int          # |x diff y| in positions
    gap_after: int
    path_hops: int
    arcs_exchange: int
    arcs_reassign: int
    arcs_source: int
    arcs_sink: int
    min_reduced: object      # smallest reduced length on the path: int or Fraction


@dataclass
class SspResult:
    mask: int | None                      # common point, or None if infeasible
    iterations: list[IterationStats] = field(default_factory=list)


def _unscaled(v: int, scale: int):
    """v / scale as an int when integral, else as a Fraction."""
    q, rem = divmod(v, scale)
    return q if rem == 0 else Fraction(v, scale)


def ssp_intersect(f: QuadFn, layout: OneHotLayout, x0_mask: int, y0_mask: int,
                  dump_hook=None) -> SspResult:
    """Drive x (a layer minimizer of f) and y (a one-hot point) together.

    Both start points must have the same number of ones.  Returns the common
    mask, or mask None when some round finds no s-t path, which certifies
    that no one-hot point has finite value.

    dump_hook, when given, is called once per round with
    (index, graph, potential, search) before x and y change; potential is in
    the graph's units (graph.scale).
    """
    n = f.n
    if x0_mask.bit_count() != y0_mask.bit_count():
        raise ValueError("x and y must have the same number of ones")
    r = x0_mask.bit_count()
    x, y = x0_mask, y0_mask
    potential = [0] * (n + 2)
    stats: list[IterationStats] = []
    index = 0
    while x != y:
        index += 1
        if index > r:
            raise InvariantError("round limit exceeded; gap is not shrinking")
        graph = build_exchange_graph(f, x, y, layout)
        search = shortest_path_min_hops(graph, potential)
        if dump_hook is not None:
            dump_hook(index, graph, potential, search)
        gap_before = (x ^ y).bit_count()
        if not search.reached(graph.t):
            return SspResult(None, stats)

        path = search.path_to(graph.t)
        min_reduced = None
        for idx in path:
            tail, head = graph.tail[idx], graph.head[idx]
            lp = graph.length[idx] + potential[tail] - potential[head]
            if min_reduced is None or lp < min_reduced:
                min_reduced = lp
            kind = graph.kind[idx]
            if kind is ArcKind.EXCHANGE:
                x = (x ^ (1 << tail)) | (1 << head)
            elif kind is ArcKind.REASSIGN:
                y = (y ^ (1 << head)) | (1 << tail)
            # source and sink arcs are connectors; they change nothing

        gap_after = (x ^ y).bit_count()
        if gap_after != gap_before - 2:
            raise InvariantError(
                f"gap went {gap_before} -> {gap_after}, expected a drop of 2")
        if x.bit_count() != r:
            raise InvariantError("x left its layer")
        _check_one_hot(layout, y)

        # Distances are capped at t's: vertices past the sink (or unreached)
        # would otherwise outgrow it and send later arcs into them negative.
        d_t = search.dist[graph.t]
        for v in range(n + 2):
            d_v = search.dist[v]
            if d_v is None or d_v > d_t:
                d_v = d_t
            potential[v] = potential[v] + d_v

        stats.append(IterationStats(
            index=index,
            gap_before=gap_before,
            gap_after=gap_after,
            path_hops=len(path),
            arcs_exchange=graph.count(ArcKind.EXCHANGE),
            arcs_reassign=graph.count(ArcKind.REASSIGN),
            arcs_source=graph.count(ArcKind.SOURCE),
            arcs_sink=graph.count(ArcKind.SINK),
            min_reduced=None if min_reduced is None else _unscaled(min_reduced, graph.scale),
        ))
    return SspResult(x, stats)
