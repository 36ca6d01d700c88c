"""Reference shortest-path search: a heap Dijkstra over an explicit arc list.

The solver's search (intersection.shortest_path_min_hops) runs on the
contracted exchange graph and never lists the arcs.  This one takes every
arc of a graph on n positions plus the source s = n and the sink t = n + 1
and runs Dijkstra over them with the same order: reduced lengths under a
potential, labels (distance, hops), ties broken by the tail that pops first
(smallest distance, then vertex), then by arc order.  Only the --dump-aux
path of ssp_intersect and the tests import it; there it must agree with the
contracted search on the path and on every capped distance.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .intersection import Arc, _negative

__all__ = ["PathSearch", "heap_search"]


@dataclass
class PathSearch:
    """Heap Dijkstra output: reduced distances, hop counts and parent arcs
    per vertex (n positions, then s, then t).

    dist entries are None for unreachable vertices; parent holds the Arc a
    vertex was reached by, None for s and unreachable ones.
    """

    dist: list
    hops: list
    parent: list
    pops: int = 0

    @property
    def arcs(self) -> list | None:
        """The s-t path's arcs as Arc tuples, or None when t is unreached."""
        v = len(self.dist) - 1
        if self.dist[v] is None:
            return None
        out = []
        while self.parent[v] is not None:
            out.append(self.parent[v])
            v = self.parent[v].tail
        out.reverse()
        return out

    @property
    def capped(self) -> list | None:
        """Every vertex's distance capped at t's (unreached ones at t's too),
        or None when t is unreached."""
        d_t = self.dist[-1]
        if d_t is None:
            return None
        return [d_t if d is None or d > d_t else d for d in self.dist]


def heap_search(n: int, arcs: Iterable, potential, scale: int = 1) -> PathSearch:
    """Dijkstra over (tail, head, length, kind) arcs, ordered by (distance,
    hops, vertex); a vertex keeps the first arc, in pop and arc order, that
    gives its label.

    potential holds an int per vertex, as a sequence or an array, in units
    of 1/scale like the lengths.  A negative reduced length raises the
    InvariantError of the contracted search, naming the first such arc in
    arc order.
    """
    arcs = list(map(Arc._make, arcs))
    m = n + 2
    if len(potential) != m:
        raise ValueError("potential length does not match the graph")
    if isinstance(potential, np.ndarray):
        potential = potential.tolist()   # Python ints: the heap keys grow past int64
    reduced = [a.length + potential[a.tail] - potential[a.head] for a in arcs]
    for a, lp in zip(arcs, reduced):
        if lp < 0:
            raise _negative(lp, scale, a.tail, a.head)
    adj = [[] for _ in range(m)]
    for idx, a in enumerate(arcs):
        adj[a.tail].append(idx)

    dist = [None] * m
    hops = [0] * m
    parent = [None] * m
    done = [False] * m
    s = n
    dist[s] = 0
    # One int per heap entry orders by (distance, hops, vertex): hops and
    # vertices are below m.  A vertex's first pop carries its final
    # distance and hops, so only the vertex is decoded.
    mm = m * m
    heap = [s]
    pops = 0
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        v = heappop(heap) % m
        if done[v]:
            continue
        done[v] = True
        pops += 1
        d = dist[v]
        nh = hops[v] + 1
        key_hops = nh * m
        for idx in adj[v]:
            w = arcs[idx].head
            if done[w]:
                continue
            nd = d + reduced[idx]
            dw = dist[w]
            if dw is None or nd < dw or (nd == dw and nh < hops[w]):
                dist[w], hops[w], parent[w] = nd, nh, arcs[idx]
                heappush(heap, nd * mm + key_hops + w)

    return PathSearch(dist, hops, parent, pops)
