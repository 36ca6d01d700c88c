"""Anti-ultrametric completion of partial symmetric matrices.

A partial matrix over vertices 0..n-1 assigns nonnegative (possibly
infinite) values to some unordered pairs and leaves the rest undefined.
complete() either fills in the undefined pairs so the full matrix is
anti-ultrametric (every triple attains its pairwise minimum twice) or
raises NotCompletableError with a refutation.

PartialMatrix and CompletedMatrix store no per-pair objects: ranks, the
read-only symmetric n x n int32 matrix of value ranks (0 marks an undefined
pair and the diagonal), and pool, the ascending tuple of distinct values
(pool[rank - 1] is a pair's value).  value(), pairs() and defined() read
them, and the entries constructors build them.  MAX_RANK_BYTES caps their
4 n^2 bytes as it does an instance's: a larger n is a ParseError as soon
as "n" is read, a ValueError in the constructors.

Checking and filling both read one structure, _Forest: the matrix's ranks
and Prim's maximum spanning forest of the defined pairs, kept as its join
order, the join key of each vertex (the rank it joined with) and floor, the
n x n int32 matrix of bottleneck ranks (tree-path minima); ranks and floor
take 8 n^2 bytes.  Prim's order keeps every bottleneck cluster contiguous,
so a joining vertex's floor row is the row of the vertex that joined just
before it, capped at its key.  Ties are broken one way everywhere: the
highest offered rank goes next, the lowest vertex on a tie, each component
is rooted at its smallest vertex and every other vertex hangs off the
earliest-joined vertex whose rank to it is its join key.  The tree itself
is never stored: a refutation derives and climbs the parents on its tree
path only.  The matrix is completable exactly when every defined pair
equals its floor value; otherwise the first pair (flat order) that ranks
below it, closed by its tree path and shrunk along defined chords, is a
chordless cycle whose minimum is unique.  That verdict is decided band by
band, before anything overwrites floor.  A completion gives each
undefined connected pair its floor value and pairs in different
components the globally smallest defined value (zero when nothing is
defined, through the pool (ZERO,)).  It is written into floor in place
(_Forest.fill), so it takes no n x n array beyond floor, and otherwise it
shares the partial matrix's pool.  pipeline builds the same structure over
the cross-variable pairs of an instance; the same fill makes its
relaxation.

parse_partial_matrix decodes its text as parse_instance does (orjson, with
json.loads as the exact fallback), then checks a well-formed entries list
in bulk (exact int indices as int64 arrays, repeated pairs by flat index,
each distinct value decoded once) and writes ranks and pool directly.  A
list with any defect is read again entry by entry, which raises the
ParseError for its first defect, so the messages do not depend on the fast
path.  dump_matrix writes the same bytes as json.dumps, with or without
indent, from one template per entry over (i, j) and its value's JSON text,
formatted once per pool value.

Values stay exact: the forest works on integer ranks only, and the tests
check completability against completable_oracle, an independent exhaustive
search for a chordless cycle whose minimum weight edge is unique, and the
forest against a brute force maximin closure.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import countOf

import numpy as np

from .errors import BudgetExceededError, InvariantError, NotCompletableError, ParseError
from .instance import _check_size, _parse_json
from .properties import Violation, ViolationKind
from .values import ZERO, ExtValue, _decode_value, _ranked, format_value

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


def _rank_arrays(n: int, store: dict):
    """(ranks, pool) of a {(i, j): ExtValue} store, i < j: the symmetric
    n x n int32 rank matrix, 0 for a pair not in store, and the ascending
    pool of the stored values."""
    pool, rank_of = _ranked(v.raw for v in store.values())
    ranks = np.zeros((n, n), dtype=np.int32)
    if store:
        rows, cols = np.array(list(store), dtype=np.intp).T
        vals = np.array([rank_of[v.raw] for v in store.values()], dtype=np.int32)
        ranks[rows, cols] = vals
        ranks[cols, rows] = vals
    return ranks, pool


def _defined(ranks):
    """Rows, columns and ranks (lists) of the defined pairs (i, j), i < j,
    of a rank matrix, ascending by pair."""
    upper = np.triu(ranks, 1)
    rows, cols = np.nonzero(upper)
    return rows.tolist(), cols.tolist(), upper[rows, cols].tolist()


def _first_negative(ranks, pool):
    """The first pair (u, w) in flat order whose value in pool is negative,
    or None.  Ranks 1..k hold the k negative values, and ranks is
    symmetric, so u < w."""
    k = bisect_left(pool, ZERO)
    if not k:
        return None
    return divmod(int(np.argmax((ranks > 0) & (ranks <= k))), len(ranks))


class _RankMatrix:
    """A symmetric matrix over vertices 0..n-1 stored as two arrays: ranks,
    the read-only n x n int32 matrix giving each defined pair the rank of
    its value in pool (1 for the smallest; 0 on the diagonal and for an
    undefined pair), and pool, the ascending tuple of distinct ExtValues,
    every one of them the value of some pair."""

    __slots__ = ("n", "ranks", "pool")

    def _init(self, n: int, ranks, pool) -> None:
        ranks.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def _of(cls, n: int, ranks, pool):
        """The matrix over ranks and pool as given: no check, no copy."""
        matrix = object.__new__(cls)
        matrix._init(n, ranks, pool)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def value(self, i: int, j: int):
        """The entry for pair (i, j), or None when undefined."""
        i, j = _norm_pair(i, j, self.n)
        k = self.ranks.item(i, j)
        return self.pool[k - 1] if k else None

    def pairs(self):
        """Defined ((i, j), value) items, ascending by pair."""
        rows, cols, ks = _defined(self.ranks)
        by_rank = (None, *self.pool)
        return list(zip(zip(rows, cols), map(by_rank.__getitem__, ks)))

    @property
    def _entries(self) -> dict:
        """The defined pairs as a {(i, j): value} dict, i < j."""
        return dict(self.pairs())


def _check_vertices(n: int) -> None:
    if n < 1:
        raise ValueError("matrix needs at least one vertex")
    _check_size(n, "vertices")


class PartialMatrix(_RankMatrix):
    """A symmetric matrix with some entries undefined.

    entries maps (i, j) pairs (any orientation, normalized internally) to
    ExtValue-convertible values.  Values may be infinite; validate_partial
    reports negative ones.  Immutable after construction.  An n whose rank
    matrix would pass instance.MAX_RANK_BYTES raises ValueError.
    """

    __slots__ = ()

    def __init__(self, n: int, entries=None):
        _check_vertices(n)
        store: dict[tuple[int, int], ExtValue] = {}
        items = entries.items() if hasattr(entries, "items") else (entries or [])
        for (i, j), v in items:
            key = _norm_pair(i, j, n)
            if key in store:
                raise ValueError(f"duplicate entry for pair {key}")
            store[key] = ExtValue.of(v)
        self._init(n, *_rank_arrays(n, store))

    def defined(self, i: int, j: int) -> bool:
        return self.ranks.item(*_norm_pair(i, j, self.n)) > 0

    @property
    def defined_count(self) -> int:
        return int(np.count_nonzero(self.ranks)) // 2

    def __repr__(self):
        return f"PartialMatrix(n={self.n}, defined={self.defined_count})"


class CompletedMatrix(_RankMatrix):
    """A fully defined symmetric matrix over 0..n-1 (diagonal excluded)."""

    __slots__ = ()

    def __init__(self, n: int, entries):
        _check_vertices(n)
        store: dict[tuple[int, int], ExtValue] = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (i, j), v in items:
            store[_norm_pair(i, j, n)] = ExtValue.of(v)
        if len(store) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} entries, got {len(store)}")
        self._init(n, *_rank_arrays(n, store))

    def __eq__(self, other):
        if not isinstance(other, CompletedMatrix):
            return NotImplemented
        # Pools hold only values in use, so equal matrices have equal arrays.
        return (self.n == other.n and self.pool == other.pool
                and np.array_equal(self.ranks, other.ranks))

    def __hash__(self):
        return hash((self.n, self.pool, self.ranks.tobytes()))

    def __repr__(self):
        return f"CompletedMatrix(n={self.n})"


# Rows per band of the passes over floor (mirroring it, deciding the
# verdict, filling it): each allocates band-sized temporaries at most, never
# an n x n one.
_BAND = 64
_OUTSIDE = np.iinfo(np.int32).max
_UNDECIDED = object()   # _Forest._cycle before violation() first runs


def _spanning_forest(ranks):
    """Prim's maximum spanning forest of the defined pairs of a rank matrix,
    with the tie rule _Forest states, kept as its join order.

    Returns order, the vertices in the order they joined (intp), keys, the
    join key of each (int32, keys[t] for order[t]: the highest rank the tree
    offered it, 0 for a component's first vertex), and floor, the n x n
    int32 matrix of bottleneck ranks: floor[u, w] is the smallest rank on
    the forest path between u and w, 0 across components and on the
    diagonal.

    Prim's order keeps every bottleneck cluster contiguous, so the floor of
    two vertices is the smallest join key from just after the earlier one
    up to the later one.  A joining vertex v therefore takes its row from
    prev, the vertex that joined just before it: floor[v] = minimum(
    floor[prev], key), then floor[v, prev] = key.  Entries for vertices that
    join later stay 0, and every row descends from its component's first
    row, which is all 0.  Per vertex that is four n-length numpy calls:
    argmax picks v, maximum raises the offers by v's rank row, minimum
    against cap keeps the tree's keys at -1, and the floor row.  The filled
    half is mirrored at the end, band by band, with no n x n temporary.
    """
    n = len(ranks)
    floor = np.zeros((n, n), dtype=np.int32)
    key = np.zeros(n, dtype=np.int32)
    cap = np.full(n, _OUTSIDE, dtype=np.int32)    # -1 once in the tree
    k0 = np.zeros((), dtype=np.int32)   # the key as an array: a faster operand
    maximum, minimum = np.maximum, np.minimum
    argmax, item = key.argmax, key.item
    order = np.empty(n, dtype=np.intp)
    prev, prev_row = 0, None
    for t in range(n):
        v = argmax()
        k = item(v)
        row = floor[v]
        if k:
            k0[()] = k
            minimum(prev_row, k0, out=row)
            row[prev] = k
        order[t] = prev = v
        prev_row = row
        cap[v] = -1
        maximum(key, ranks[v], out=key)
        minimum(key, cap, out=key)
    for a in range(0, n, _BAND):
        b = a + _BAND
        block = floor[a:b, a:b]
        block += block.T        # numpy buffers the overlapping block
        strip = floor[a:b, b:]
        strip += floor[b:, a:b].T
        floor[b:, a:b] = strip.T
    # A vertex's join key is its floor to the vertex that joined before it.
    keys = np.zeros(n, dtype=np.int32)
    keys[1:] = floor[order[1:], order[:-1]]
    return order, keys, floor


class _Forest:
    """Maximum spanning forest of the defined pairs of a dense rank matrix.

    ranks is a symmetric n x n int32 matrix holding 0 where a pair is
    undefined and otherwise the rank of its value in pool (1 for the
    smallest, pool[rank - 1] the value).  The forest is kept as Prim's join
    order (order) and the join key of each vertex in it (keys), plus floor,
    every pair's tree-path minimum, which is its bottleneck (maximin) value
    over the defined-pair graph.  A join key of 0 starts a new component, so
    the graph is connected exactly when no key after the first is 0.

    The tree itself is never stored.  A vertex's parent (_parent_of) is the
    earliest-joined vertex whose rank to it equals its join key (a
    component's first vertex is its own parent, so every component is
    rooted at its smallest vertex); tree_path climbs the parents of its two
    ends only.

    Tie rule (Prim's algorithm, _spanning_forest): the outside vertex the
    tree offers the highest rank joins next, the lowest such vertex on a
    tie; when every offer is 0 the smallest unvisited vertex starts a new
    component; a joining vertex hangs off the earliest tree vertex that
    offered its rank.  Only the tree path that closes a violating pair into
    a witness cycle depends on this rule, never a verdict or a floor value.

    violation() is decided once, from floor as built, and kept.  fill()
    decides it before it writes the completion over floor, so the verdict
    stays true to the matrix the forest was built from.  That one verdict
    also decides the filled matrix: a defined rank never exceeds its floor,
    so the fill is anti-ultrametric exactly when no defined pair ranks
    below its floor, which is violation() is None.  complete() and
    pipeline.build_relaxation both take the fill; QuadFn.mnatural_violation
    reads the bad pairs of _spanning_forest on a function's own pair matrix.
    """

    __slots__ = ("ranks", "pool", "order", "keys", "floor", "_at", "_cycle")

    def __init__(self, ranks, pool):
        self.ranks = ranks
        self.pool = pool
        self.order, self.keys, self.floor = _spanning_forest(ranks)
        self._at = None
        self._cycle = _UNDECIDED

    def _positions(self):
        """Each vertex's place in the join order."""
        if self._at is None:
            self._at = np.empty(len(self.order), dtype=np.intp)
            self._at[self.order] = np.arange(len(self.order))
        return self._at

    def _parent_of(self, v: int) -> int:
        """v's parent: the earliest-joined vertex whose rank to v is v's join
        key; v itself when it starts a component."""
        t = self._positions().item(v)
        k = self.keys.item(t)
        if not k:
            return v
        before = self.order[:t]
        return before.item(int(np.argmax(self.ranks[v][before] == k)))

    def tree_path(self, u: int, w: int) -> list[int]:
        """Vertices on the tree path from u to w, both ends included.  A
        parent joined before its child, so the later-joined end climbs
        until the two meet."""
        at = self._positions()
        left, right = [u], [w]
        while u != w:
            if at[u] > at[w]:
                u = self._parent_of(u)
                left.append(u)
            else:
                w = self._parent_of(w)
                right.append(w)
        right.pop()
        return left + right[::-1]

    def violation(self):
        """None when every defined pair equals its tree-path minimum, which
        holds exactly when the matrix is completable.  Otherwise a chordless
        cycle of defined pairs with a unique minimum, shrunk from the first
        defined pair (flat order, u < w) that ranks below that minimum and
        its tree path; the minimum is the closing pair (cycle[-1], cycle[0]).
        Decided on the first call, band by band up to the first band with a
        hit, and kept (fill() asks before it overwrites floor)."""
        if self._cycle is _UNDECIDED:
            self._cycle = None
            ranks, floor = self.ranks, self.floor
            for a in range(0, len(ranks), _BAND):
                rows = ranks[a:a + _BAND]
                bad = rows < floor[a:a + _BAND]
                bad &= rows > 0
                # bad is symmetric, so its first cell in flat order has u < w.
                first = int(np.argmax(bad))
                if bad.flat[first]:
                    u, w = divmod(first, len(ranks))
                    self._cycle = self._chordless(self.tree_path(a + u, w))
                    break
        return self._cycle

    def fill(self):
        """The completion as (ranks, pool).  Its ranks are written over
        floor band by band and returned read-only: a defined pair keeps its
        rank, an undefined pair takes its floor rank, a pair across
        components rank 1 and the diagonal 0.  Rank 1 is the smallest
        defined value, or 0 when nothing is defined: the pool is then
        (ZERO,), or () for a single vertex.  violation() is decided first,
        from floor as built.  The only temporaries are band-sized masks."""
        self.violation()
        ranks, floor = self.ranks, self.floor
        apart = not self.keys[1:].all()     # floor is 0 across components
        for a in range(0, len(floor), _BAND):
            band, rows = floor[a:a + _BAND], ranks[a:a + _BAND]
            np.copyto(band, rows, where=rows > 0)
            if apart:
                np.maximum(band, 1, out=band)
        np.fill_diagonal(floor, 0)
        floor.flags.writeable = False
        return floor, self.pool or ((ZERO,) if len(floor) > 1 else ())

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
    from (None when an entry is negative)."""
    negative = _first_negative(H.ranks, H.pool)
    if negative is not None:
        i, j = negative
        v = H.value(i, j)
        return Violation(
            ViolationKind.NEGATIVE,
            (i, j),
            (v,),
            f"entry ({i + 1},{j + 1}) = {v} is negative",
        ), None, None
    forest = _Forest(H.ranks, H.pool)
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
    never changed.  The completion is the (ranks, pool) of _Forest.fill:
    the forest's floor filled in place, as pipeline.build_relaxation fills
    it.

    Raises NotCompletableError when validate_partial refutes H, carrying its
    Violation and, unless an entry is negative, the chordless cycle.
    """
    bad, cycle, forest = _check(H)
    if bad is not None:
        raise NotCompletableError(f"not completable: {bad}", violation=bad, cycle=cycle)
    return CompletedMatrix._of(H.n, *forest.fill())


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
    """Parse the JSON partial matrix format from a str, bytes or bytearray.
    Raises ParseError on defects.

    The text is decoded the way parse_instance decodes an instance
    (instance._parse_json: orjson, and json.loads for every error and for
    what orjson reads differently), so the result and every message are
    those of the json.loads document."""
    return _parse_json(text, _matrix_from_dict)


def _matrix_from_dict(doc) -> PartialMatrix:
    """The PartialMatrix of a decoded document.  A well-formed entries list
    is written straight into the rank matrix (_read_entries); one with any
    defect is read again entry by entry only to raise the ParseError for
    its first defect (_parse_entries).  An n whose rank matrix would pass
    instance.MAX_RANK_BYTES is refused before any entry is read."""
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be a JSON object")
    unknown = set(doc) - {"n", "entries"}
    if unknown:
        raise ParseError(f"unknown matrix keys: {sorted(unknown)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'n' must be a positive integer")
    try:
        _check_size(n, "vertices")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    entries_doc = doc.get("entries", [])
    if not isinstance(entries_doc, list):
        raise ParseError("'entries' must be a list")
    matrix = _read_entries(n, entries_doc)
    if matrix is None:
        _parse_entries(n, entries_doc)
    return matrix


def _read_entries(n: int, entries_doc: list):
    """The PartialMatrix of a well-formed entries list, or None when any
    entry has a defect.  Indices are checked as int64 arrays after an
    exact type check (a bool is not an int), pairs are written into the
    rank matrix by flat index, and each distinct value is decoded once."""
    m = len(entries_doc)
    # Three keys per entry, and each has "i", "j" and "value": no other key.
    if not set(map(type, entries_doc)) <= {dict} or countOf(map(len, entries_doc), 3) != m:
        return None
    try:
        columns = [[e[key] for e in entries_doc] for key in ("i", "j", "value")]
    except KeyError:
        return None
    index = []
    for column in columns[:2]:
        if countOf(map(type, column), int) != m:
            return None
        try:
            index.append(np.fromiter(column, dtype=np.int64, count=m) - 1)
        except OverflowError:
            return None
    i, j = index
    if m and not ((i >= 0).all() and (i < j).all() and (j < n).all()):
        return None
    values = columns[2]
    if not set(map(type, values)) <= {int, str}:
        return None
    try:
        raw_of = {v: _decode_value(v).raw for v in set(values)}
    except ValueError:
        return None
    pool, rank_of = _ranked(raw_of.values())
    rank = {v: rank_of[raw] for v, raw in raw_of.items()}
    vals = np.fromiter(map(rank.__getitem__, values), dtype=np.int32, count=m)
    ranks = np.zeros((n, n), dtype=np.int32)
    ranks.flat[i * n + j] = vals
    if np.count_nonzero(ranks) != m:        # a pair repeats
        return None
    ranks.flat[j * n + i] = vals
    return PartialMatrix._of(n, ranks, pool)


def _parse_entries(n: int, entries_doc: list) -> None:
    """Read an entries list _read_entries refused entry by entry, raising
    the ParseError for its first defect in document order; a list with no
    defect is a broken _read_entries and raises InvariantError."""
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
            _decode_value(value)
        except ValueError as exc:
            raise ParseError(f"entries[{k}].value: {exc}") from None
    raise InvariantError("_read_entries refused entries that parse one by one")


def dump_matrix(matrix, *, indent: int | None = None) -> str:
    """Serialize a PartialMatrix or CompletedMatrix (deterministic bytes).

    The text is byte for byte json.dumps(doc, indent=indent) of the document
    {"n": n, "entries": [{"i": i, "j": j, "value": v}, ...]}, pairs
    ascending, but written from the arrays: one template per entry over
    (i, j) and the JSON text of its value, each pool value formatted once.
    """
    n = matrix.n
    if indent is None:
        head, sep, tail = f'{{"n": {n}, "entries": [', ", ", "]}"
        a, b, c, d = '{"i": ', ', "j": ', ', "value": ', "}"
        empty = head + tail
    else:
        p1, p2, p3 = ("\n" + " " * (indent * k) for k in (1, 2, 3))
        head, sep, tail = f'{{{p1}"n": {n},{p1}"entries": [{p2}', f",{p2}", f"{p1}]\n}}"
        a, b, c, d = f'{{{p3}"i": ', f',{p3}"j": ', f',{p3}"value": ', f"{p2}}}"
        empty = f'{{{p1}"n": {n},{p1}"entries": []\n}}'
    # An entry is left[i] + nums[j] + right[rank].
    nums = [str(k) for k in range(1, n + 1)]
    left = [a + k + b for k in nums]
    right = [None, *(c + json.dumps(format_value(v)) + d for v in matrix.pool)]
    text = sep.join([left[i] + nums[j] + right[k] for i, j, k in zip(*_defined(matrix.ranks))])
    # One f-string: a + chain would copy the whole text once per operand.
    return f"{head}{text}{tail}" if text else empty
