"""Anti-ultrametric completion of partial symmetric matrices.

A partial matrix over vertices 0..n-1 assigns nonnegative (possibly
infinite) values to some unordered pairs and leaves the rest undefined.
complete() either fills in the undefined pairs so the full matrix is
anti-ultrametric (every triple attains its pairwise minimum twice) or
raises NotCompletableError with a refutation.

The construction is the bottleneck rule: build a maximum-weight spanning
forest of the defined-pair graph, give each undefined connected pair the
minimum weight along its forest path, and give pairs in different
components the globally smallest defined value (zero when nothing is
defined).  Completability itself is certified independently by
completable_oracle, which searches for a chordless cycle whose minimum
weight edge is unique.

This module is exact, pure Python, and deterministic: edges are processed
in (value descending, index ascending) order.  The pipeline has a separate
vectorized path for the structured matrices induced by instances; this one
handles arbitrary matrices and doubles as its correctness reference.
"""

from __future__ import annotations

import json
import math

from .errors import BudgetExceededError, NotCompletableError, ParseError
from .properties import Violation, ViolationKind, _anti_ultra_scan
from .values import ZERO, ExtValue, _decode_value, format_value

__all__ = [
    "PartialMatrix",
    "CompletedMatrix",
    "validate_partial",
    "complete",
    "completable_oracle",
    "threshold_components",
    "parse_partial_matrix",
    "dump_matrix",
]


def _norm_pair(i: int, j: int, n: int) -> tuple[int, int]:
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    return (i, j) if i < j else (j, i)


class PartialMatrix:
    """A symmetric matrix with some entries undefined.

    entries maps (i, j) pairs (any orientation, normalized internally) to
    ExtValue-convertible values.  Values may be infinite; validate_partial
    reports negative ones.  Immutable after construction.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries=None):
        if n < 1:
            raise ValueError("matrix needs at least one vertex")
        object.__setattr__(self, "n", n)
        store: dict[tuple[int, int], ExtValue] = {}
        items = entries.items() if hasattr(entries, "items") else (entries or [])
        for (i, j), v in items:
            key = _norm_pair(i, j, n)
            if key in store:
                raise ValueError(f"duplicate entry for pair {key}")
            store[key] = ExtValue.of(v)
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("PartialMatrix is immutable")

    def defined(self, i: int, j: int) -> bool:
        return _norm_pair(i, j, self.n) in self._entries

    def value(self, i: int, j: int):
        """The entry for pair (i, j), or None when undefined."""
        return self._entries.get(_norm_pair(i, j, self.n))

    def pairs(self):
        """Defined ((i, j), value) items, ascending by pair."""
        return sorted(self._entries.items())

    @property
    def defined_count(self) -> int:
        return len(self._entries)

    def __repr__(self):
        return f"PartialMatrix(n={self.n}, defined={len(self._entries)})"


class CompletedMatrix:
    """A fully defined symmetric matrix over 0..n-1 (diagonal excluded)."""

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries):
        if n < 1:
            raise ValueError("matrix needs at least one vertex")
        object.__setattr__(self, "n", n)
        store: dict[tuple[int, int], ExtValue] = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (i, j), v in items:
            store[_norm_pair(i, j, n)] = ExtValue.of(v)
        if len(store) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} entries, got {len(store)}")
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("CompletedMatrix is immutable")

    def value(self, i: int, j: int) -> ExtValue:
        return self._entries[_norm_pair(i, j, self.n)]

    def pairs(self):
        return sorted(self._entries.items())

    def __eq__(self, other):
        if not isinstance(other, CompletedMatrix):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._entries.items()))))

    def __repr__(self):
        return f"CompletedMatrix(n={self.n})"


def validate_partial(H: PartialMatrix):
    """Check the two necessary conditions on defined entries.

    Negativity first (pairs ascending), then the anti-ultrametric condition
    over triples whose three entries are all defined (i < j < k ascending).
    Returns None or the first Violation.
    """
    for (i, j), v in H.pairs():
        if v.is_finite and v < ZERO:
            return Violation(
                ViolationKind.NEGATIVE,
                (i, j),
                (v,),
                f"entry ({i + 1},{j + 1}) = {v} is negative",
            )
    ent = H._entries
    n = H.n
    for i in range(n):
        for j in range(i + 1, n):
            vij = ent.get((i, j))
            if vij is None:
                continue
            for k in range(j + 1, n):
                vik = ent.get((i, k))
                if vik is None:
                    continue
                vjk = ent.get((j, k))
                if vjk is None:
                    continue
                trio = (vij.raw, vik.raw, vjk.raw)
                m = min(trio)
                if trio.count(m) == 1:
                    vals = (vij, vik, vjk)
                    return Violation(
                        ViolationKind.ANTI_ULTRAMETRIC,
                        (i, j, k),
                        vals,
                        f"defined triple ({i + 1},{j + 1},{k + 1}) has entries "
                        f"{vals[0]}, {vals[1]}, {vals[2]} with a unique minimum",
                    )
    return None


def _max_spanning_forest(H: PartialMatrix):
    """Kruskal on defined pairs, weight descending, ties by ascending pair.

    Returns (adjacency, component) where adjacency[u] lists (neighbor,
    raw weight) forest edges and component labels connected vertices of the
    defined-pair graph (forest connectivity equals graph connectivity).
    """
    n = H.n
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    adjacency: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    edges = sorted(H.pairs(), key=lambda item: (-item[1].raw, item[0]))
    for (i, j), v in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            adjacency[i].append((j, v.raw))
            adjacency[j].append((i, v.raw))
    component = [find(u) for u in range(n)]
    return adjacency, component


def complete(H: PartialMatrix, *, verify: bool = True) -> CompletedMatrix:
    """Fill the undefined entries so the matrix becomes anti-ultrametric.

    Undefined pairs connected in the defined-pair graph receive the
    bottleneck (minimum) weight along their maximum-spanning-forest path;
    pairs in different components receive the smallest defined value; with
    no defined entries at all, everything becomes zero.  Defined entries are
    never changed.

    With verify=True (default) the result is re-checked against the
    anti-ultrametric condition, which turns both bad inputs and internal
    bugs into NotCompletableError; the check costs O(n^3).

    Raises NotCompletableError carrying a Violation when validation or
    verification fails.
    """
    bad = validate_partial(H)
    if bad is not None:
        raise NotCompletableError(f"not completable: {bad}", violation=bad)

    n = H.n
    if H.defined_count == 0:
        filled = {(i, j): ZERO for i in range(n) for j in range(i + 1, n)}
        return CompletedMatrix(n, filled) if n > 1 else CompletedMatrix(n, {})

    adjacency, component = _max_spanning_forest(H)
    floor_raw = min(v.raw for _, v in H.pairs())

    entries = dict(H._entries)
    todo: dict[int, list[int]] = {}
    for i in range(n):
        targets = [j for j in range(i + 1, n) if (i, j) not in entries]
        if targets:
            todo[i] = targets

    for i, targets in todo.items():
        # One traversal from i gives the bottleneck to every reachable vertex.
        bott = {i: math.inf}
        stack = [i]
        while stack:
            u = stack.pop()
            bu = bott[u]
            for w, raw in adjacency[u]:
                if w not in bott:
                    bott[w] = raw if raw < bu else bu
                    stack.append(w)
        for j in targets:
            if component[j] == component[i]:
                entries[(i, j)] = ExtValue.of(bott[j])
            else:
                entries[(i, j)] = ExtValue.of(floor_raw)

    result = CompletedMatrix(n, entries)
    if verify:
        hit = _anti_ultra_scan(n, lambda i, j: result.value(i, j).raw)
        if hit is not None:
            i, j, k, raws = hit
            vals = tuple(ExtValue.of(v) for v in raws)
            bad = Violation(
                ViolationKind.ANTI_ULTRAMETRIC,
                (i, j, k),
                vals,
                f"completed triple ({i + 1},{j + 1},{k + 1}) has entries "
                f"{vals[0]}, {vals[1]}, {vals[2]} with a unique minimum",
            )
            raise NotCompletableError(f"not completable: {bad}", violation=bad)
    return result


def completable_oracle(H: PartialMatrix, *, max_n: int = 30):
    """Decide completability by exhaustive chordless cycle search.

    Returns None when every chordless cycle of the defined-pair graph
    attains its minimum edge weight at least twice (the matrix is then
    completable), otherwise the first offending cycle as a vertex list
    [v0, v1, ..., vk] in enumeration order.  Independent of complete();
    the two must always agree.
    """
    n = H.n
    if n > max_n:
        raise BudgetExceededError(f"chordless cycle search limited to n <= {max_n}")
    ent = H._entries
    adj: list[set[int]] = [set() for _ in range(n)]
    for (i, j), _ in ent.items():
        adj[i].add(j)
        adj[j].add(i)

    def weight(u, w):
        return ent[(u, w) if u < w else (w, u)].raw

    def cycle_bad(path):
        vals = [weight(path[t], path[t + 1]) for t in range(len(path) - 1)]
        vals.append(weight(path[-1], path[0]))
        m = min(vals)
        return vals.count(m) == 1

    def search(path):
        last = path[-1]
        v0 = path[0]
        internal = path[1:-1]
        for w in sorted(adj[last]):
            if w <= v0 or w in path:
                continue
            if any(w in adj[p] for p in internal):
                continue
            if w in adj[v0]:
                if path[1] < w and cycle_bad(path + [w]):
                    return path + [w]
                # Any longer cycle through w would carry the chord (w, v0).
                continue
            hit = search(path + [w])
            if hit is not None:
                return hit
        return None

    for v0 in range(n):
        for v1 in sorted(adj[v0]):
            if v1 <= v0:
                continue
            hit = search([v0, v1])
            if hit is not None:
                return hit
    return None


def threshold_components(matrix, alpha: ExtValue):
    """Connected components of the threshold graph at level alpha.

    Vertices are the endpoints of defined pairs with value >= alpha; other
    vertices do not appear.  Works on PartialMatrix and CompletedMatrix
    alike.  Returns a sorted list of sorted vertex lists.
    """
    parent: dict[int, int] = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for (i, j), v in matrix.pairs():
        if v >= alpha:
            parent.setdefault(i, i)
            parent.setdefault(j, j)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for u in parent:
        groups.setdefault(find(u), []).append(u)
    return sorted(sorted(g) for g in groups.values())


# ---------------------------------------------------------------------------
# JSON interchange for matrices
#
# {"n": 3, "entries": [{"i": 1, "j": 2, "value": 1}, {"i": 2, "j": 3, "value": "inf"}]}
#
# Vertex indices are 1-based with i < j; duplicate pairs and unknown keys are
# errors; values are nonnegative ints, "p/q", or "inf".
# ---------------------------------------------------------------------------


def parse_partial_matrix(text: str) -> PartialMatrix:
    """Parse the JSON partial matrix format.  Raises ParseError on defects."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be a JSON object")
    unknown = set(doc) - {"n", "entries"}
    if unknown:
        raise ParseError(f"unknown matrix keys: {sorted(unknown)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'n' must be a positive integer")
    entries_doc = doc.get("entries", [])
    if not isinstance(entries_doc, list):
        raise ParseError("'entries' must be a list")
    entries = []
    seen = set()
    for k, e in enumerate(entries_doc):
        if not isinstance(e, dict):
            raise ParseError(f"entries[{k}] must be an object")
        unknown = set(e) - {"i", "j", "value"}
        if unknown:
            raise ParseError(f"entries[{k}]: unknown keys {sorted(unknown)}")
        try:
            i, j, value = e["i"], e["j"], e["value"]
        except KeyError as exc:
            raise ParseError(f"entries[{k}]: missing key {exc.args[0]!r}") from None
        for name, v in (("i", i), ("j", j)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"entries[{k}].{name} must be an integer")
        if not 1 <= i < j <= n:
            raise ParseError(f"entries[{k}]: pair ({i},{j}) must satisfy 1 <= i < j <= n")
        if (i, j) in seen:
            raise ParseError(f"entries[{k}]: duplicate pair ({i},{j})")
        seen.add((i, j))
        try:
            parsed = _decode_value(value)
        except ValueError as exc:
            raise ParseError(f"entries[{k}].value: {exc}") from None
        entries.append(((i - 1, j - 1), parsed))
    return PartialMatrix(n, entries)


def dump_matrix(matrix, *, indent: int | None = None) -> str:
    """Serialize a PartialMatrix or CompletedMatrix (deterministic bytes)."""
    doc = {
        "n": matrix.n,
        "entries": [
            {"i": i + 1, "j": j + 1, "value": format_value(v)}
            for (i, j), v in matrix.pairs()
        ],
    }
    return json.dumps(doc, indent=indent)
