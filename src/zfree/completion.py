"""Anti-ultrametric completion of partial symmetric matrices.

A partial matrix over vertices 0..n-1 assigns nonnegative (possibly
infinite) values to some unordered pairs and leaves the rest undefined.
complete() either fills in the undefined pairs so the full matrix is
anti-ultrametric (every triple attains its pairwise minimum twice) or
raises NotCompletableError with a refutation.

Checking and filling both read one structure, _Forest: a dense n x n int32
matrix of value ranks (0 marks an undefined pair) and floor, the n x n int32
matrix of tree-path minima that Prim's algorithm fills while it grows the
maximum spanning forest of the defined pairs; the two take 8 n^2 bytes.
Ties are broken one way everywhere: the highest offered rank goes next, the
lowest vertex on a tie, each component is rooted at its smallest vertex and
every other vertex hangs off the earliest tree vertex that offered its
rank.  The matrix is completable exactly when every defined pair equals its
floor value; otherwise the first pair (flat order) that ranks below it,
closed by its tree path and shrunk along defined chords, is a chordless
cycle whose minimum is unique.  A completion gives each undefined connected
pair its floor value and pairs in different components the globally
smallest defined value (zero when nothing is defined).  pipeline builds the
same structure over the cross-variable pairs of an instance to check and
complete it.

Values stay exact: the forest works on integer ranks only, and the tests
check completability against completable_oracle, an independent exhaustive
search for a chordless cycle whose minimum weight edge is unique, and the
forest against a brute force maximin closure.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BudgetExceededError, NotCompletableError, ParseError
from .properties import Violation, ViolationKind
from .values import ZERO, ExtValue, _decode_value, format_value

__all__ = [
    "PartialMatrix",
    "CompletedMatrix",
    "validate_partial",
    "complete",
    "completable_oracle",
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


def _ranked(raws):
    """The distinct raw values ascending as ExtValues (the pool) and the map
    from each raw value to its rank, 1 for the smallest."""
    ordered = sorted(set(raws))
    return [ExtValue.of(v) for v in ordered], {v: k + 1 for k, v in enumerate(ordered)}


def _spanning_forest(ranks):
    """Prim's maximum spanning forest of the defined pairs of a rank matrix,
    with the tie rule _Forest states.

    Returns parent, depth and root per vertex (int32 arrays) and floor, the
    n x n int32 matrix of tree-path minima: floor[u, w] is the smallest rank
    on the forest path between u and w, 0 across components and on the
    diagonal.  Each vertex v joins with key, the best rank the tree offers
    it, so floor[v] = minimum(floor[parent], key) over the tree so far.
    """
    n = len(ranks)
    floor = np.zeros((n, n), dtype=np.int32)
    key = np.zeros(n, dtype=np.int32)       # -1 once in the tree
    via = np.zeros(n, dtype=np.int32)       # tree vertex offering key
    outside = np.ones(n, dtype=bool)
    better = np.empty(n, dtype=bool)
    parent = [0] * n
    depth = [0] * n
    root = [0] * n
    for _ in range(n):
        v = int(key.argmax())
        k = key.item(v)
        if k == 0:
            parent[v] = root[v] = v
        else:
            p = parent[v] = via.item(v)
            depth[v] = depth[p] + 1
            root[v] = root[p]
            row = floor[v]
            np.minimum(floor[p], k, out=row)
            row[p] = k
            floor[:, v] = row
        key[v] = -1
        outside[v] = False
        offer = ranks[v]
        np.greater(offer, key, out=better)
        better &= outside
        np.copyto(key, offer, where=better)
        via[better] = v
    return (np.array(parent, dtype=np.int32), np.array(depth, dtype=np.int32),
            np.array(root, dtype=np.int32), floor)


class _Forest:
    """Maximum spanning forest of the defined pairs of a dense rank matrix.

    ranks is a symmetric n x n int32 matrix holding 0 where a pair is
    undefined and otherwise the rank of its value in pool (1 for the
    smallest, pool[rank - 1] the value).  floor holds every pair's
    tree-path minimum, which is its bottleneck (maximin) value over the
    defined-pair graph.  parent, depth and root give each vertex's place in
    the forest; every component is rooted at its smallest vertex, and a
    root is its own parent.

    Tie rule (Prim's algorithm, _spanning_forest): the outside vertex the
    tree offers the highest rank joins next, the lowest such vertex on a
    tie; when every offer is 0 the smallest unvisited vertex starts a new
    component; a joining vertex hangs off the earliest tree vertex that
    offered its rank.  Only the tree path that closes a violating pair into
    a witness cycle depends on this rule, never a verdict or a floor value.
    """

    __slots__ = ("ranks", "pool", "parent", "depth", "root", "floor")

    def __init__(self, ranks, pool):
        self.ranks = ranks
        self.pool = pool
        self.parent, self.depth, self.root, self.floor = _spanning_forest(ranks)

    def tree_path(self, u: int, w: int) -> list[int]:
        """Vertices on the tree path from u to w, both ends included."""
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

    def violation(self):
        """None when every defined pair equals its tree-path minimum, which
        holds exactly when the matrix is completable.  Otherwise a chordless
        cycle of defined pairs with a unique minimum, shrunk from the first
        defined pair (flat order, u < w) that ranks below that minimum and
        its tree path; the minimum is the closing pair (cycle[-1], cycle[0])."""
        ranks = self.ranks
        bad = ranks < self.floor
        bad &= ranks > 0
        # bad is symmetric, so its first cell in flat order has u < w.
        first = int(np.argmax(bad))
        if not bad.flat[first]:
            return None
        u, w = divmod(first, len(ranks))
        return self._chordless(self.tree_path(u, w))

    def _chordless(self, cycle: list[int]) -> list[int]:
        """Shrink a cycle of defined pairs whose closing pair (cycle[-1],
        cycle[0]) is its unique minimum until no defined pair is a chord.

        A chord splits the cycle in two; the half that keeps the closing
        pair still has it as unique minimum unless the chord ranks no
        higher, and then the chord is the unique minimum of the other half,
        rotated to close it.  Chords are taken from cycle[0] first, then in
        flat order of cycle positions.
        """
        ranks = self.ranks
        while True:
            k = len(cycle) - 1
            at = np.array(cycle)
            for p in range(k - 1):
                hits = np.flatnonzero(ranks[cycle[p], at[p + 2:k + (p > 0)]])
                if len(hits):
                    q = p + 2 + int(hits[0])
                    break
            else:
                return cycle
            if ranks[cycle[p], cycle[q]] > ranks[cycle[k], cycle[0]]:
                cycle = cycle[:p + 1] + cycle[q:]
            else:
                cycle = cycle[p:q + 1]


def _partial_forest(H: PartialMatrix) -> _Forest:
    """The maximum spanning forest of the defined pairs of H."""
    n = H.n
    pool, rank_of = _ranked(v.raw for v in H._entries.values())
    ranks = np.zeros((n, n), dtype=np.int32)
    rows, cols = np.array(list(H._entries), dtype=np.intp).T
    vals = np.array([rank_of[v.raw] for v in H._entries.values()], dtype=np.int32)
    ranks[rows, cols] = vals
    ranks[cols, rows] = vals
    return _Forest(ranks, pool)


def _cycle_refutation(H: PartialMatrix, cycle: list[int]) -> Violation:
    """The Violation for a chordless cycle of defined entries with a unique
    minimum; a triangle is reported as its sorted triple."""
    if len(cycle) == 3:
        i, j, k = sorted(cycle)
        vals = (H.value(i, j), H.value(i, k), H.value(j, k))
        return Violation(
            ViolationKind.ANTI_ULTRAMETRIC,
            (i, j, k),
            vals,
            f"defined triple ({i + 1},{j + 1},{k + 1}) has entries "
            f"{vals[0]}, {vals[1]}, {vals[2]} with a unique minimum",
        )
    vals = tuple(H.value(cycle[t - 1], cycle[t]) for t in range(1, len(cycle)))
    vals += (H.value(cycle[-1], cycle[0]),)
    return Violation(
        ViolationKind.ANTI_ULTRAMETRIC,
        tuple(cycle),
        vals,
        f"chordless defined cycle ({','.join(str(u + 1) for u in cycle)}) has "
        f"entries {', '.join(str(v) for v in vals)} with a unique minimum",
    )


def _check(H: PartialMatrix):
    """(violation, cycle, forest): the first refutation of H, the chordless
    cycle behind it (None for a negative entry), and the forest it was read
    from (None when nothing is defined or an entry is negative)."""
    for (i, j), v in H.pairs():
        if v.is_finite and v < ZERO:
            return Violation(
                ViolationKind.NEGATIVE,
                (i, j),
                (v,),
                f"entry ({i + 1},{j + 1}) = {v} is negative",
            ), None, None
    if H.defined_count == 0:
        return None, None, None
    forest = _partial_forest(H)
    cycle = forest.violation()
    if cycle is None:
        return None, None, forest
    return _cycle_refutation(H, cycle), cycle, forest


def validate_partial(H: PartialMatrix):
    """Decide whether H has an anti-ultrametric completion.

    Returns None when it has, otherwise the first refutation: a negative
    entry (pairs ascending), or else a chordless cycle of defined entries
    whose minimum is unique (ViolationKind.ANTI_ULTRAMETRIC, indices the
    cycle's vertices; a triangle is reported as its sorted triple).  The
    cycle comes from the maximum spanning forest of the defined pairs: the
    first defined pair in flat order that ranks below the minimum edge on
    its forest path, closed by that path and shrunk along defined chords.
    complete() runs the same check.
    """
    return _check(H)[0]


def complete(H: PartialMatrix) -> CompletedMatrix:
    """Fill the undefined entries so the matrix becomes anti-ultrametric.

    Undefined pairs connected in the defined-pair graph receive the
    bottleneck (minimum) weight along their maximum-spanning-forest path;
    pairs in different components receive the smallest defined value; with
    no defined entries at all, everything becomes zero.  Defined entries are
    never changed.

    Raises NotCompletableError when validate_partial refutes H, carrying its
    Violation and, unless an entry is negative, the chordless cycle.
    """
    bad, cycle, forest = _check(H)
    if bad is not None:
        raise NotCompletableError(f"not completable: {bad}", violation=bad, cycle=cycle)

    n = H.n
    if forest is None:
        return CompletedMatrix(n, {(i, j): ZERO for i in range(n) for j in range(i + 1, n)})
    rows, cols = np.triu_indices(n, 1)
    undefined = forest.ranks[rows, cols] == 0
    rows, cols = rows[undefined], cols[undefined]
    # Rank 1, the smallest defined value, across components (floor 0).
    fill = np.maximum(forest.floor[rows, cols], 1)
    pool = forest.pool
    entries = dict(H._entries)
    entries.update(zip(zip(rows.tolist(), cols.tolist()),
                       [pool[k - 1] for k in fill.tolist()]))
    return CompletedMatrix(n, entries)


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
