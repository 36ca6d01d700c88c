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

The exchange graph is implicit.  Only the r positions of supp(x), the hubs,
have more than one outgoing arc: an exchange arc to every position outside x
whose swap keeps f finite.  Every other position has at most one, a reassign
arc to y's pick in its block, or the sink arc if it is a pick outside x.  So
a round keeps one r x n array of exchange lengths with its feasibility mask,
y's pick in every block, and the source and sink lists; the arcs are listed
only when something iterates graph.arcs (the --dump-aux writer, the tests).

The search is Dijkstra on the contracted graph over s, supp(x),
supp(y) \\ supp(x) and t: at most 2r + 2 vertices.  A hub reaches the pick
of a block by an exchange arc straight to it, by its own reassign arc, or
through one other position of the block (an exchange arc, then that
position's reassign arc: two hops).  One r x n array of reduced lengths,
reduced per block with np.minimum.reduceat, prices all of those at once.
Labels are (distance, hops) pairs compared lexicographically.  Hubs,
picks and t take theirs from the search and s has (0, 0); every other
position's distance is one more r x n reduction over the hubs, and its
hops are one more than the fewest of the hubs that give it that distance.
Those distances, capped at t's, also update the potential.  The path is
rebuilt backwards from t by one rule, the tie rule of a heap Dijkstra over
the listed arcs: among the arcs into a vertex that give its label, it keeps
the one whose tail pops first, smallest (distance, vertex), then the first
such arc in arc order.  That heap search is the reference
(zfree.reference.heap_search): on the --dump-aux path ssp_intersect runs it
next to the contracted search and raises InvariantError if their paths or
capped distances differ.

All arithmetic is on exact integers: f's kernel (QuadFn.kernel) scales every
finite value by D, so arc lengths, distances and potentials are ints in
units of 1/D (ExchangeGraph.scale).  Exchange lengths come from one r x n
array operation per round, in int64 when the sums fit and in Python ints
otherwise; the search picks int64 again only when a bound on every sum it
forms stays below 2**63 (see _search_dtype).  Infinite pair terms are
counted, never added, so arc lengths are always finite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import repeat
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
    "ContractedSearch",
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


class _ArcView:
    """A graph's arcs as Arc tuples, in arc order; len() lists none."""

    __slots__ = ("_graph",)

    def __init__(self, graph):
        self._graph = graph

    def __len__(self):
        return self._graph.arc_count()

    def __iter__(self):
        g = self._graph
        rows, heads = np.nonzero(g.feasible)
        yield from map(Arc, g.hubs[rows].tolist(), heads.tolist(),
                       g.lengths[rows, heads].tolist(), repeat(ArcKind.EXCHANGE))
        moved = np.flatnonzero(g.target != np.arange(g.n))   # all but the picks
        for w, q in zip(moved.tolist(), g.target[moved].tolist()):
            yield Arc(w, q, 0, ArcKind.REASSIGN)
        for u in g.sources:
            yield Arc(g.s, u, 0, ArcKind.SOURCE)
        for w in g.sinks:
            yield Arc(w, g.t, 0, ArcKind.SINK)


class ExchangeGraph:
    """The implicit exchange graph of one round, on flat positions plus
    source s and sink t.

    hubs (supp(x), ascending), lengths (the r x n exchange lengths in units
    of 1/scale, meaningful where feasible), target (y's pick in each
    position's block), starts (each block's first position), picks (y's
    pick per block), sources and sinks define every arc.  arcs iterates them
    as Arc tuples in a fixed order: exchange, reassign, source, sink, each
    class by tail and then head.  count and arc_count, like len(arcs), read
    counts kept at build time and list no arc.
    """

    __slots__ = ("n", "s", "t", "scale", "hubs", "lengths", "feasible", "target",
                 "starts", "picks", "sources", "sinks", "_counts", "_size")

    def __init__(self, n: int, scale: int):
        self.n = n
        self.s = n
        self.t = n + 1
        self.scale = scale

    @property
    def arcs(self) -> _ArcView:
        return _ArcView(self)

    def count(self, kind: ArcKind) -> int:
        return self._counts[kind]

    def arc_count(self) -> int:
        return self._size


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


def _kernel_arrays(f: QuadFn, r: int):
    # Exchange lengths are differences of two sums of r + 1 values each.
    return f.kernel().arrays(2 * r + 2)


def build_exchange_graph(f: QuadFn, x_mask: int, y_mask: int,
                         layout: OneHotLayout) -> ExchangeGraph:
    """Exchange graph for the current pair (x, y), on f's integer kernel.

    x must be a point of finite f value, y a one-hot point of the same size.
    Exchange arcs u -> w exist for u in supp(x), w outside supp(x), whenever
    x - u + w stays finite; their length is the change of f along the swap.
    Reassign arcs point from every unpicked position of a block to the one y
    picks there; they and the source/sink arcs have length zero.

    The graph is implicit (see ExchangeGraph): one r x n length array and
    its feasibility mask, in the kernel's int64 or object dtype.
    """
    n = f.n
    if layout.n != n:
        raise ValueError("layout does not match the function")
    hubs = np.array(_support(x_mask), dtype=np.intp)
    _check_one_hot(layout, y_mask)
    k = f.kernel()
    linear, by_rank = _kernel_arrays(f, len(hubs))

    # Row a: the pair terms of hubs[a] with every position (the rank matrix
    # is symmetric), 0 where infinite; the diagonal contributes 0.
    ranks = k.ranks[hubs]
    inf = ranks == k.inf_rank
    pair = by_rank[ranks]
    if k.linear_inf[hubs].any() or inf[:, hubs].any():
        raise ValueError("x lies outside the finite domain of f")

    # out_cost[a]: linear plus pair terms inside x of hubs[a], so
    # f(x - u) = f(x) - out_cost.  For w outside x the terms to all of x
    # split into a finite sum and a count of infinite terms, so removing
    # one u needs no infinity subtraction:
    # f(x - u + w) - f(x) = in_fin[w] - pair[a, w] - out_cost[a].
    out_cost = linear[hubs] + pair[:, hubs].sum(axis=1)
    in_fin = linear + pair.sum(axis=0)
    in_infs = inf.sum(axis=0) + k.linear_inf
    outside = np.ones(n, dtype=bool)
    outside[hubs] = False

    g = ExchangeGraph(n, k.scale)
    g.hubs = hubs
    g.lengths = (in_fin - pair) - out_cost[:, None]
    g.feasible = outside & (in_infs == inf)
    g.starts = np.array(layout.offsets[:-1], dtype=np.intp)
    g.picks = np.array(_support(y_mask), dtype=np.intp)   # one per block, in order
    g.target = np.repeat(g.picks, layout.domains)
    in_x, in_y = set(hubs.tolist()), set(g.picks.tolist())
    g.sources = [u for u in hubs.tolist() if u not in in_y]
    g.sinks = [w for w in g.picks.tolist() if w not in in_x]
    g._counts = {ArcKind.EXCHANGE: int(np.count_nonzero(g.feasible)),
                 ArcKind.REASSIGN: n - len(g.picks),   # every position but the picks
                 ArcKind.SOURCE: len(g.sources), ArcKind.SINK: len(g.sinks)}
    g._size = sum(g._counts.values())
    return g


def _negative(value, scale: int, tail: int, head: int) -> InvariantError:
    return InvariantError(f"negative reduced length {Fraction(int(value), scale)} "
                          f"on arc {tail}->{head}")


@dataclass
class ContractedSearch:
    """Contracted-search output.  The search stops once t is final, so it
    knows the s-t path and every vertex's distance capped at t's, not the
    distances past t.

    arcs holds the s-t path's arcs as Arc tuples and capped an array of
    n + 2 distances in the search's dtype; both are None when t is
    unreached.  pops counts the contracted vertices the search made final.
    """

    arcs: list | None
    capped: np.ndarray | None
    pops: int


def _search_dtype(graph: ExchangeGraph, potential):
    """(dtype, big) for the contracted search's arrays.  big exceeds every
    reduced length, distance and sum of the two that the search forms, and
    stands in for "no arc"; the dtype is int64 when 8 * big < 2**63, so that
    sums with big in them cannot overflow either, and Python ints in object
    arrays otherwise.

    With L the largest exchange length and P the largest potential, both in
    absolute value, a reduced length is at most L + 2P, a reassign one at
    most 2P, and a distance at most rL + 2P, since a shortest path leaves
    each of the r hubs at most once.
    """
    lam = int(np.abs(graph.lengths).max()) if graph.lengths.size else 0
    pmax = int(np.abs(potential).max())
    big = (len(graph.hubs) + 1) * lam + 6 * pmax + 1
    return (np.int64 if 8 * big < 2**63 else object), big


def shortest_path_min_hops(g: ExchangeGraph, potential) -> ContractedSearch:
    """Shortest s-t path under reduced lengths, breaking distance ties by
    fewest arcs, then by the tail that a heap Dijkstra over the arcs would
    pop first (smallest distance, then vertex), then by arc order.

    potential holds an int per vertex (n positions, then s, then t), in the
    graph's units, as a sequence or an array.  Every reduced length must
    come out nonnegative; a negative one means the potentials are stale and
    raises InvariantError naming the first such arc in arc order.
    """
    if len(potential) != g.n + 2:
        raise ValueError("potential length does not match the graph")
    n, s, t = g.n, g.s, g.t
    hubs, picks, target = g.hubs, g.picks, g.target
    blocks = len(picks)
    p = potential if isinstance(potential, np.ndarray) else np.array(potential, dtype=object)
    dtype, big = _search_dtype(g, p)
    p = p.astype(dtype, copy=False)

    # Reduced lengths of the exchange arcs, big where there is none, and of
    # the reassign arcs, 0 at the picks, which have none.
    red = np.where(g.feasible, g.lengths.astype(dtype, copy=False)
                   + p[hubs][:, None] - p[:n], big)
    rr = p[:n] - p[target]
    pl = p.tolist()
    _check_nonnegative(g, red, rr, pl)

    # Hub a to the pick of block b, as 2 * length + hops - 1 minimized over
    # the block: through another position of b (its exchange arc, then its
    # reassign arc: two hops), straight to the pick (one hop), or, in a's
    # own block, by a's reassign arc (one hop).
    key = 2 * (red + rr) + 1
    key[:, picks] -= 1
    own = np.flatnonzero(target[hubs] != hubs)
    key[own, hubs[own]] = 2 * rr[hubs[own]]
    best = np.minimum.reduceat(key, g.starts, axis=1)
    weight, weight_hops = (best // 2).tolist(), (best % 2 + 1).tolist()

    # Dijkstra over the blocks' picks and t (index blocks) on (distance,
    # hops) labels, the heap ordered by (distance, hops, vertex).  A hub
    # relaxes every block once its label is final: a source hub at
    # (p[s] - p[u], 1) right away, a hub that is a pick when its block pops.
    hubs_l, picks_l = hubs.tolist(), picks.tolist()
    row_of = {u: a for a, u in enumerate(hubs_l)}
    pick_hub = [row_of.get(q, -1) for q in picks_l]
    hub_lab = [None] * len(hubs_l)
    lab = [None] * (blocks + 1)
    done = [False] * (blocks + 1)
    heap = []

    def relax(d, h, heads, rows):
        for c, w, wh in zip(heads, *rows):
            if w < big:   # no need to skip final vertices: none can improve
                nd = (d + w, h + wh)
                if lab[c] is None or nd < lab[c]:
                    lab[c] = nd
                    heapq.heappush(heap, (*nd, picks_l[c] if c < blocks else t, c))

    for u in g.sources:
        a = row_of[u]
        hub_lab[a] = (pl[s] - pl[u], 1)
        relax(*hub_lab[a], range(blocks), (weight[a], weight_hops[a]))
    pops = 1 + len(g.sources)
    while heap:
        d, h, _, b = heapq.heappop(heap)
        if done[b]:
            continue
        done[b] = True
        pops += 1
        if b == blocks:
            break
        a = pick_hub[b]
        if a < 0:   # a pick outside x: its one arc is the sink arc
            relax(d, h, (blocks,), ((pl[picks_l[b]] - pl[t],), (1,)))
        else:
            hub_lab[a] = (d, h)
            relax(d, h, range(blocks), (weight[a], weight_hops[a]))
    if not done[blocks]:
        return ContractedSearch(None, None, pops)

    # Every vertex's distance, big where unreached: a position's through its
    # cheapest hub, then the picks' and hubs' own (a label that is not final
    # is past t).  The walk reads it, and capped is it capped at t's.
    d_t = lab[blocks][0]
    hub_d = np.array([big if hl is None else hl[0] for hl in hub_lab], dtype=dtype)
    dist = np.empty(n + 2, dtype=dtype)
    dist[:n] = (hub_d[:, None] + red).min(axis=0)
    dist[picks] = [big if lb is None else lb[0] for lb in lab[:blocks]]
    dist[hubs] = hub_d
    dist[s] = 0
    dist[t] = d_t
    arcs = _rebuild(g, lab, hub_lab, dist.tolist(), red, rr.tolist(), pl)
    return ContractedSearch(arcs, np.minimum(dist, d_t), pops)


def _check_nonnegative(g: ExchangeGraph, red, rr, pl) -> None:
    """Raise for the first arc, in arc order, with a negative reduced length."""
    n, s, t = g.n, g.s, g.t
    if red.size and red.min() < 0:   # big is positive: only real arcs count
        a, w = divmod(int(np.argmax(red < 0)), n)
        raise _negative(red[a, w], g.scale, int(g.hubs[a]), w)
    if rr.min() < 0:
        w = int(np.argmax(rr < 0))
        raise _negative(rr[w], g.scale, w, int(g.target[w]))
    for u in g.sources:
        if pl[s] - pl[u] < 0:
            raise _negative(pl[s] - pl[u], g.scale, s, u)
    for w in g.sinks:
        if pl[w] - pl[t] < 0:
            raise _negative(pl[w] - pl[t], g.scale, w, t)


def _rebuild(g, lab, hub_lab, dist, red, rr, pl) -> list:
    """The Arc of each arc on the s-t path, walked back from t with the
    labels and the one rule of the module docstring.  A label that is not
    final is past t and gives no arc on the path.  Two arcs into a vertex
    from one tail differ in kind only; the exchange arc comes first."""
    s, t = g.s, g.t
    hubs_l = g.hubs.tolist()
    row_of = {u: a for a, u in enumerate(hubs_l)}
    block_of = {q: b for b, q in enumerate(g.picks.tolist())}
    bounds = [*g.starts.tolist(), g.n]
    sources = set(g.sources)

    def hops(v):
        if v == s:
            return 0
        if v in row_of:
            return hub_lab[row_of[v]][1]
        if v in block_of:
            return lab[block_of[v]][1]
        return 1 + min(hl[1] for hl, r_av in zip(hub_lab, red[:, v].tolist())
                       if hl is not None and hl[0] + r_av == dist[v])

    out = []
    v, want = t, lab[-1]
    while v != s:
        # The arcs into v as (tail, reduced length, kind), in arc order.
        if v == t:
            into = [(w, pl[w] - pl[t], ArcKind.SINK) for w in g.sinks]
        elif v in sources:
            into = [(s, pl[s] - pl[v], ArcKind.SOURCE)]
        else:
            into = [] if v in row_of else [*zip(hubs_l, red[:, v].tolist(),
                                                repeat(ArcKind.EXCHANGE))]
            b = block_of.get(v)
            if b is not None:
                into += [(w, rr[w], ArcKind.REASSIGN)
                         for w in range(bounds[b], bounds[b + 1]) if w != v]
        # Distance first: a leaf's hops cost a pass over the hubs.
        cands = [(dist[u], u, kind is ArcKind.REASSIGN, kind) for u, rl, kind in into
                 if dist[u] + rl == want[0] and hops(u) + 1 == want[1]]
        if not cands:
            raise InvariantError("the contracted search lost the path it found")
        d, u, _, kind = min(cands)
        length = int(g.lengths[row_of[u], v]) if kind is ArcKind.EXCHANGE else 0
        out.append(Arc(u, v, length, kind))
        v, want = u, (d, want[1] - 1)
    out.reverse()
    return out


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


@dataclass
class SspResult:
    mask: int | None                      # common point, or None if infeasible
    iterations: list[IterationStats] = field(default_factory=list)
    # rounds: exchange graphs built (one more than iterations when the last
    # finds no path); arcs: their arcs by kind; search_pops: vertices the
    # searches made final; kernel_dtype: the exchange lengths' dtype.
    counters: dict = field(default_factory=dict)


def ssp_intersect(f: QuadFn, layout: OneHotLayout, x0_mask: int, y0_mask: int,
                  dump_hook=None) -> SspResult:
    """Drive x (a layer minimizer of f) and y (a one-hot point) together.

    Both start points must have the same number of ones.  Returns the common
    mask, or mask None when some round finds no s-t path, which certifies
    that no one-hot point has finite value.

    dump_hook, when given, is called once per round with
    (index, graph, potential, search) before x and y change; potential is a
    list in the graph's units (graph.scale) and search the PathSearch of
    zfree.reference.heap_search over graph.arcs, which must agree with the
    contracted search on the path's arcs and on every capped distance.  The
    reference module is imported on this path only.
    """
    n = f.n
    if x0_mask.bit_count() != y0_mask.bit_count():
        raise ValueError("x and y must have the same number of ones")
    r = x0_mask.bit_count()
    x, y = x0_mask, y0_mask
    potential = np.zeros(n + 2, dtype=np.int64)
    stats: list[IterationStats] = []
    arcs = dict.fromkeys((kind.value for kind in ArcKind), 0)
    counters = {"rounds": 0, "arcs": arcs, "search_pops": 0,
                "kernel_dtype": _kernel_arrays(f, r)[0].dtype.name}
    index = 0
    while x != y:
        index += 1
        if index > r:
            raise InvariantError("round limit exceeded; gap is not shrinking")
        graph = build_exchange_graph(f, x, y, layout)
        counters["rounds"] += 1
        for kind in ArcKind:
            arcs[kind.value] += graph.count(kind)
        search = shortest_path_min_hops(graph, potential)
        counters["search_pops"] += search.pops
        if dump_hook is not None:
            from .reference import heap_search

            listed = potential.tolist()
            reference = heap_search(graph.n, graph.arcs, listed, graph.scale)
            capped = None if search.capped is None else search.capped.tolist()
            if reference.arcs != search.arcs or reference.capped != capped:
                raise InvariantError(f"round {index}: the contracted search and the "
                                     f"heap search disagree")
            dump_hook(index, graph, listed, reference)
        gap_before = (x ^ y).bit_count()
        path = search.arcs
        if path is None:
            return SspResult(None, stats, counters)

        for tail, head, _, kind in path:
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
        potential = potential + search.capped

        stats.append(IterationStats(
            index=index,
            gap_before=gap_before,
            gap_after=gap_after,
            path_hops=len(path),
            arcs_exchange=graph.count(ArcKind.EXCHANGE),
            arcs_reassign=graph.count(ArcKind.REASSIGN),
            arcs_source=graph.count(ArcKind.SOURCE),
            arcs_sink=graph.count(ArcKind.SINK),
        ))
    return SspResult(x, stats, counters)
