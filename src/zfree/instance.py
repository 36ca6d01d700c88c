"""Problem instances: binary valued CSPs over finite domains.

An instance has r variables; variable i ranges over a finite domain of size
d_i.  Costs are a finite nonnegative unary table per variable plus an
optional nonnegative (possibly infinite) binary table per variable pair.
A missing binary table means that pair contributes zero cost.

The Python API is 0-based throughout: variables are 0..r-1, domain values
of variable i are 0..d_i-1, and assignments are r-tuples of ints.  The JSON
interchange format is 1-based in its pair indices (see parse_instance).

One-hot encoding flattens the disjoint union of the domains into positions
0..n-1, n = sum d_i, ordering pairs (variable, value) lexicographically.
0/1 vectors over the flat positions are represented as Python int bitmasks:
bit u set means position u is selected.

An Instance stores its pair costs as two arrays, not as cells: ranks, the
symmetric n x n int32 matrix giving every cross-variable pair of flat
positions the rank of its cost (0 within a variable), and pool, the
ascending tuple of distinct costs (pool[rank - 1] is the cost; 0 is in it
when some table is omitted).  ranks is read-only, and it is the matrix the
solver's spanning forest is built on (pipeline._build_forest), so a solve
creates no per-cell objects.  table() and binary_pairs() build ExtValue
tables from the two on first use and cache them, for the exhaustive
oracles, the JSON writer and other callers.

Instance() and instance_from_dict fill ranks and pool in one pass over the
pair tables (_rank_tables, then _rank), each with its own cell decoder: the
tables whose cells are all of type int are read together as int64 in
batches of _CHUNK_CELLS cells, each distinct cell of the others is decoded
once, and one lookup, made from the int cells themselves, gives every cell
its rank before any block of ranks is written.

parse_instance first reads the text itself (_read_instance): the tables'
texts are cut out and orjson decodes the rest (the skeleton); numpy reads
the digits of each table of integer tokens, so such a table gets no Python
object per cell or per row, and orjson decodes each table that holds
strings on its own.  A text the reader declines is decoded whole, by orjson
with json.loads as the fallback (_parse_json).  Either way the unary rows
are decoded together.  Rows or tables with a defect are read again cell by
cell only to raise the ParseError for the first defect in document order,
so the messages do not depend on the fast paths.

MAX_RANK_BYTES caps the 4 n^2 bytes of ranks.  A larger instance is refused
before anything is allocated: parse_instance raises ParseError as soon as
"domains" is read (the text reader checks the tables' texts first but
ranks no cell), the constructor ValueError.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import chain, combinations
from operator import countOf

import numpy as np
import orjson

from .errors import InvariantError, NotOneHotError, ParseError
from .values import (_INF_RAW, INF, ZERO, ExtValue, _decode_value, _ranked,
                     format_value)

__all__ = [
    "OneHotLayout",
    "Instance",
    "one_hot_encode",
    "one_hot_decode",
    "evaluate_instance",
    "parse_instance",
    "dump_instance",
    "instance_from_dict",
    "instance_to_dict",
]


class OneHotLayout:
    """Bijection between (variable, value) pairs and flat positions."""

    __slots__ = ("domains", "offsets", "n")

    def __init__(self, domains):
        self.domains = tuple(domains)
        offsets = [0]
        for d in self.domains:
            offsets.append(offsets[-1] + d)
        self.offsets = tuple(offsets)
        self.n = offsets[-1]

    def flat(self, i: int, a: int) -> int:
        """Flat position of value a of variable i."""
        return self.offsets[i] + a

    def pair(self, u: int) -> tuple[int, int]:
        """Inverse of flat: (variable, value) owning position u."""
        if not 0 <= u < self.n:
            raise IndexError(f"flat position {u} out of range")
        i = bisect_right(self.offsets, u) - 1
        return i, u - self.offsets[i]

    def block(self, i: int) -> range:
        """Flat positions belonging to variable i."""
        return range(self.offsets[i], self.offsets[i + 1])

    def pairs(self):
        """All (variable, value) pairs in flat order."""
        for i, d in enumerate(self.domains):
            for a in range(d):
                yield i, a


# The cap on the 4 n^2 bytes of an n x n int32 rank matrix (n = 16384), for
# Instance.ranks and the matrices of the completion module alike.
MAX_RANK_BYTES = 1 << 30


def _check_size(n: int, what: str = "one-hot positions") -> None:
    """Refuse n positions (or vertices, as what names them) whose rank
    matrix would pass MAX_RANK_BYTES."""
    if 4 * n * n > MAX_RANK_BYTES:
        raise ValueError(f"{n} {what} need a {4 * n * n}-byte rank "
                         f"matrix, more than the {MAX_RANK_BYTES}-byte limit")


# Cell types whose distinct values can share a dict without two of them
# comparing equal (a bool would collide with 0 and 1, a float with an int).
_KEYABLE = {int, str}

# Int tables whose values all lie below this are ranked through one lookup
# of this many entries, a bool and an int32 each: 5 MB, less than the ranks
# of 1200 positions.  A per-table np.unique would cost more in call overhead
# on small tables.
_LOOKUP_SIZE = 1 << 20

# Int tables are read as int64 about _CHUNK_CELLS cells at a time (a larger
# table on its own), and ranks is mirrored in bands of about as many cells,
# whole rows from the diagonal on.  An instance of up to 128 positions takes
# one read and one band.
_CHUNK_CELLS = 1 << 14


def _rank_tables(layout: "OneHotLayout", tables: dict, raw_of):
    """(ranks, pool) of an instance's pair tables, ranks read-only; None
    when a cell has a defect: raw_of raises on it, or its value is negative.

    tables maps pairs (i, j), i < j, to d_i x d_j lists of rows, shapes
    checked.  raw_of(cell) is a cell's raw value and keeps a raw value as
    it is.  The int tables (every cell's type int, since numpy reads True
    and 1.5 as 1) are read together as int64, _CHUNK_CELLS cells at a time
    (numpy before 2.0 wraps an int past int32 without an error); a batch
    past int64, and the other tables, go to _rank by their rows.
    """
    dom = layout.domains
    batches, filled, other = [], 0, []
    for (i, j), table in tables.items():
        size = dom[i] * dom[j]
        if countOf(map(type, chain.from_iterable(table)), int) != size:
            other.append((i, j))
        elif batches and filled + size <= _CHUNK_CELLS:
            batches[-1].append((i, j))
            filled += size
        else:
            batches.append([(i, j)])
            filled = size
    flats = []
    for batch in batches:
        try:
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(map(
                tables.__getitem__, batch))), np.int64, sum(dom[i] * dom[j] for i, j in batch))
        except OverflowError:   # past int64: ranked from the Python ints
            other += batch
            continue
        if flat.min() < 0:
            return None
        flats.append((batch, flat.astype(np.min_scalar_type(int(flat.max())))))
    return _rank(layout, flats, [(p, tables[p]) for p in other], raw_of, tables.keys())


def _rank(layout: "OneHotLayout", flats: list, other: list, raw_of, pairs):
    """(ranks, pool) of an instance whose tables are flats, a list of
    (batch, flat) with flat the nonnegative int cells of the tables of the
    pairs in batch, row by row and table after table, in an unsigned dtype
    as narrow as they allow (they are kept until the lookup), and other, a list
    of (pair, rows) with rows a table as a list of rows; pairs are the
    pairs that have a table.  None when raw_of raises on a cell of other or
    its value is negative.

    The lookup from each int value to its rank is made from the flat cells
    themselves, which then take their ranks a batch at a time, before any
    block is written.  A table with a value at _LOOKUP_SIZE or above goes
    to other.  Each distinct cell of other is decoded once and coded in its
    block, which the lookup of those codes then overwrites.
    """
    dom, off, n = layout.domains, layout.offsets, layout.n
    ranks = np.zeros((n, n), dtype=np.int32)

    def block(i, j):
        return ranks[off[i]:off[i + 1], off[j]:off[j + 1]]

    kept, top = [], 0
    for batch, flat in flats:
        sizes = [dom[i] * dom[j] for i, j in batch]
        high = int(flat.max())
        if high < _LOOKUP_SIZE:
            kept.append((batch, sizes, flat))
            top = max(top, high)
            continue
        starts = np.cumsum([0, *sizes[:-1]]).tolist()
        highs = np.maximum.reduceat(flat, starts).tolist()
        for pair, start, size, high in zip(batch, starts, sizes, highs):
            cells = flat[start:start + size]
            if high >= _LOOKUP_SIZE:
                other.append((pair, cells.reshape(dom[pair[0]], dom[pair[1]]).tolist()))
            else:
                kept.append(([pair], [size], cells))
                top = max(top, high)
    codes, raws = {}, []     # a cell of other (its raw value where a bool or a
    try:                     # float would share a key with an equal int) -> its code
        for (i, j), rows in other:
            cells = list(chain.from_iterable(rows))
            if not set(map(type, cells)) <= _KEYABLE:
                cells = list(map(raw_of, cells))
            for cell in set(cells).difference(codes):
                codes[cell] = len(raws)
                raws.append(raw_of(cell))
            block(i, j)[...] = np.fromiter(map(codes.__getitem__, cells), np.int32,
                                           len(cells)).reshape(dom[i], dom[j])
    except (ArithmeticError, TypeError, ValueError):
        return None
    if raws and min(raws) < 0:
        return None

    seen = np.zeros(top + 1, dtype=bool)
    for _, _, flat in kept:
        seen[flat] = True
    keys = np.flatnonzero(seen).tolist()
    missing = [(i, j) for i, j in combinations(range(len(dom)), 2) if (i, j) not in pairs]
    pool, rank_of = _ranked({*keys, *raws, *([0] if missing else [])})
    lookup = np.zeros(top + 1, dtype=np.int32)
    lookup[keys] = [rank_of[v] for v in keys]
    for batch, sizes, flat in kept:
        got, start = np.take(lookup, flat), 0
        for (i, j), size in zip(batch, sizes):
            ranks[off[i]:off[i + 1], off[j]:off[j + 1]] = got[start:start + size].reshape(
                dom[i], dom[j])
            start += size
    del kept, flats
    if raws:
        other_rank = np.array([rank_of[v] for v in raws], dtype=np.int32)
        for (i, j), _ in other:
            blk = block(i, j)
            blk[...] = np.take(other_rank, blk)
    for i, j in missing:
        block(i, j)[...] = rank_of[0]

    # Bands of rows a:b from column a on.  Their cells below the diagonal
    # still hold 0 and then take the ranks of the cells they mirror (numpy
    # copies square.T before adding it).
    rows = max(1, _CHUNK_CELLS // n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        square = ranks[a:b, a:b]
        square += square.T
        ranks[b:, a:b] = ranks[a:b, b:].T
    ranks.flags.writeable = False
    return ranks, pool


def _check_cells(tables) -> None:
    """Raise the constructor's error for the first bad cell of tables, in
    order: a cell ExtValue refuses, then a table's negative entry."""
    for (i, j), table in tables.items():
        if min(ExtValue.of(v).raw for row in table for v in row) < 0:
            raise ValueError(f"binary table ({i},{j}) has a negative entry")


class Instance:
    """An immutable binary valued CSP.

    Parameters
    ----------
    domains:
        Sequence of domain sizes, one per variable, each >= 1.
    unary:
        Sequence of r rows; row i has d_i finite nonnegative ExtValue costs.
    binary:
        Mapping from variable pairs (i, j) with i < j to a d_i x d_j table of
        nonnegative ExtValue costs (infinity allowed).  Pairs may be omitted;
        an omitted pair costs zero everywhere.

    Construction validates shapes and signs.  The pair costs are stored as
    ranks, the symmetric n x n int32 matrix giving each cross-variable pair
    of flat positions the rank of its cost in pool (1 for the smallest,
    pool[rank - 1] the value; 0 within a variable), and pool, the ascending
    tuple of distinct costs, 0 included when a table is omitted.  ranks is
    read-only.  table() and binary_pairs() build ExtValue tables from them
    on first use.  Treat instances as immutable after construction.
    """

    __slots__ = ("domains", "r", "unary", "ranks", "pool", "_tables", "layout")

    def __init__(self, domains, unary, binary=None):
        domains = tuple(domains)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                   for d in domains):
            raise ValueError("domain sizes must be integers")
        domains = tuple(map(int, domains))
        if len(domains) == 0:
            raise ValueError("instance needs at least one variable")
        if any(d < 1 for d in domains):
            raise ValueError("domain sizes must be >= 1")
        _check_size(sum(domains))
        r = len(domains)

        if len(unary) != r:
            raise ValueError(f"expected {r} unary rows, got {len(unary)}")
        rows = []
        for i, row in enumerate(unary):
            row = tuple(map(ExtValue.of, row))
            if len(row) != domains[i]:
                raise ValueError(f"unary row {i} has {len(row)} entries, expected {domains[i]}")
            for a, v in enumerate(row):
                if not v.is_finite:
                    raise ValueError(f"unary cost ({i},{a}) must be finite")
                if v < ZERO:
                    raise ValueError(f"unary cost ({i},{a}) is negative")
            rows.append(row)

        layout = OneHotLayout(domains)
        tables = {}
        try:
            for (i, j), table in (binary or {}).items():
                if not (0 <= i < j < r):
                    raise ValueError(f"binary pair ({i},{j}) must satisfy 0 <= i < j < r")
                if (i, j) in tables:
                    raise ValueError(f"duplicate binary pair ({i},{j})")
                if len(table) != domains[i] or any(len(row) != domains[j] for row in table):
                    raise ValueError(f"binary table ({i},{j}) is not {domains[i]}x{domains[j]}")
                tables[(i, j)] = table
        except (TypeError, ValueError):
            _check_cells(tables)    # an earlier table's defect comes first
            raise
        ranked = _rank_tables(layout, tables, lambda v: ExtValue.of(v).raw)
        if ranked is None:
            _check_cells(tables)
            raise InvariantError("_rank_tables refused tables that pass cell by cell")
        self._init(domains, tuple(rows), tables, layout, *ranked)

    def _init(self, domains, unary, pairs, layout, ranks, pool):
        self.domains = domains
        self.r = len(domains)
        self.unary = unary
        self.ranks = ranks
        self.pool = pool
        self._tables = dict.fromkeys(sorted(pairs))   # ExtValue tables, built lazily
        # Assigned last: its presence is what freezes the object (__setattr__).
        self.layout = layout

    @property
    def n(self) -> int:
        """Total number of (variable, value) pairs."""
        return self.layout.n

    def has_table(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self._tables

    def table(self, i: int, j: int):
        """The stored table for pair (i, j) with i < j, or None if absent;
        built from ranks and pool on the first call."""
        if (i, j) not in self._tables:
            return None
        t = self._tables[(i, j)]
        if t is None:
            off = self.layout.offsets
            by_rank = (None, *self.pool)
            blk = self.ranks[off[i]:off[i + 1], off[j]:off[j + 1]]
            t = tuple(tuple(map(by_rank.__getitem__, row)) for row in blk.tolist())
            self._tables[(i, j)] = t
        return t

    def binary_pairs(self):
        """Stored (pair, table) items, ascending by pair."""
        return [(pair, self.table(*pair)) for pair in self._tables]

    def binary_value(self, i: int, a: int, j: int, b: int) -> ExtValue:
        """c_ij(a, b), symmetric in the two (variable, value) arguments."""
        if i == j:
            raise ValueError("no binary cost within a single variable")
        dom = self.domains
        if not (0 <= i < self.r and 0 <= j < self.r and 0 <= a < dom[i] and 0 <= b < dom[j]):
            raise IndexError(f"no value pair ({i},{a}), ({j},{b}) in domains {dom}")
        lay = self.layout
        return self.pool[self.ranks[lay.flat(i, a), lay.flat(j, b)] - 1]

    def __setattr__(self, name, value):
        if name in self.__slots__ and not hasattr(self, "layout"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("Instance is immutable")

    def __repr__(self):
        return f"Instance(r={self.r}, domains={self.domains}, tables={len(self._tables)})"


def _check_assignment(inst: Instance, x) -> tuple[int, ...]:
    x = tuple(x)
    if len(x) != inst.r:
        raise ValueError(f"assignment has {len(x)} entries, expected {inst.r}")
    for i, a in enumerate(x):
        if not 0 <= a < inst.domains[i]:
            raise ValueError(f"assignment value {a} out of range for variable {i}")
    return x


def one_hot_encode(inst: Instance, x) -> int:
    """Bitmask of the one-hot vector selecting assignment x."""
    x = _check_assignment(inst, x)
    mask = 0
    for i, a in enumerate(x):
        mask |= 1 << inst.layout.flat(i, a)
    return mask


def one_hot_decode(inst: Instance, mask: int) -> tuple[int, ...]:
    """Assignment selected by a one-hot bitmask.

    Raises NotOneHotError unless the mask sets exactly one position in
    every variable's block.
    """
    lay = inst.layout
    if mask < 0 or mask >> lay.n:
        raise NotOneHotError("mask has bits outside the flat range")
    out = []
    for i in range(inst.r):
        lo, hi = lay.offsets[i], lay.offsets[i + 1]
        block = (mask >> lo) & ((1 << (hi - lo)) - 1)
        if block == 0 or block & (block - 1):
            raise NotOneHotError(f"variable {i} has {bin(block).count('1')} selected values")
        out.append(block.bit_length() - 1)
    return tuple(out)


def evaluate_instance(inst: Instance, x) -> ExtValue:
    """Total cost of assignment x: unary terms plus all pair terms, summed
    as exact raw values."""
    x = _check_assignment(inst, x)
    total = sum(inst.unary[i][a].raw for i, a in enumerate(x))
    at = [inst.layout.flat(i, a) for i, a in enumerate(x)]
    for i, row in enumerate(inst.ranks[at][:, at].tolist()):
        for k in row[i + 1:]:
            raw = inst.pool[k - 1].raw
            if raw is _INF_RAW:
                return INF
            total += raw
    return ExtValue.of(total)


# ---------------------------------------------------------------------------
# JSON interchange
#
# {
#   "r": 2,
#   "domains": [2, 3],
#   "unary": [[0, 1], [0, 2, "1/2"]],
#   "binary": [{"i": 1, "j": 2, "table": [[5, 0, "inf"], [0, 0, 0]]}]
# }
#
# Variables in "binary" entries are 1-based and must satisfy i < j; each pair
# appears at most once; "binary" may be omitted.  Values are nonnegative
# integers, "p/q" strings, or "inf" (unary values must be finite).  Unknown
# keys anywhere are an error.
# ---------------------------------------------------------------------------


def _parse_cells(row, where) -> list:
    """Decode a row of cells one by one.  where(b) labels cell b; it is
    formatted only when that cell fails, for the ParseError message."""
    out = []
    for b, v in enumerate(row):
        try:
            out.append(_decode_value(v))
        except ValueError as exc:
            raise ParseError(f"{where(b)}: {exc}") from None
    return out


def _read_unary(rows, domains):
    """The unary rows as ExtValue tuples, each distinct cell of all of them
    decoded once; None when any row or cell has a defect."""
    if any(type(row) is not list or len(row) != d for row, d in zip(rows, domains)):
        return None
    if not set(map(type, chain.from_iterable(rows))) <= _KEYABLE:
        return None
    try:
        decoded = {v: _decode_value(v) for v in set(chain.from_iterable(rows))}
    except ValueError:
        return None
    if not all(v.is_finite for v in decoded.values()):
        return None
    return [tuple(map(decoded.__getitem__, row)) for row in rows]


def _parse_tables(tables, domains) -> None:
    """Read tables, the binary entries in document order, row by row and
    cell by cell, raising the ParseError for the first defect."""
    for k, ((_, j), table) in enumerate(tables.items()):
        for a, row in enumerate(table):
            if not isinstance(row, list) or len(row) != domains[j]:
                raise ParseError(f"binary[{k}]: row {a + 1} must have {domains[j]} values")
            _parse_cells(row, lambda b: f"binary[{k}].table[{a + 1}][{b + 1}]")


def instance_from_dict(doc) -> Instance:
    """Build an instance from a decoded JSON document.  Raises ParseError on
    any defect.

    doc holds the plain types json.loads gives.  Well-formed unary rows are
    decoded together (_read_unary), and the tables, once every entry's
    keys and shape are checked, are ranked together (_rank_tables).  Rows
    or tables those readers refuse have a defect, since _decode_value
    accepts exactly the cells they accept (nonnegative ints and strings).
    They are read again row by row and cell by cell only to raise the
    ParseError for the first defect in document order; a re-read that
    finds none raises InvariantError."""
    r, domains = _header(doc)
    try:
        _check_size(sum(domains))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    unary = _unary(doc, r, domains)
    layout = OneHotLayout(domains)
    tables, ranked = {}, None
    try:
        if _entries(doc, r, domains, tables, False):
            ranked = _rank_tables(layout, tables, _raw)
    except ParseError:
        _parse_tables(tables, domains)   # an earlier entry's bad cell comes first
        raise
    if ranked is None:
        _parse_tables(tables, domains)
        raise InvariantError("_rank_tables or a row check refused tables that parse cell by cell")
    return _new_instance(domains, unary, tables, layout, ranked)


def _raw(cell):
    """The raw value of a document's cell; ValueError for a cell with a defect."""
    return _decode_value(cell).raw


def _new_instance(domains, unary, tables, layout, ranked) -> Instance:
    inst = object.__new__(Instance)
    inst._init(tuple(domains), tuple(unary), tables, layout, *ranked)
    return inst


def _header(doc) -> tuple:
    """(r, domains) of a document, or the ParseError of the first defect of
    its object, its keys, "r" or "domains"."""
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    unknown = set(doc) - {"r", "domains", "unary", "binary"}
    if unknown:
        raise ParseError(f"unknown instance keys: {sorted(unknown)}")
    for key in ("r", "domains", "unary"):
        if key not in doc:
            raise ParseError(f"missing instance key {key!r}")

    r = doc["r"]
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParseError("'r' must be a positive integer")
    domains = doc["domains"]
    if (not isinstance(domains, list) or len(domains) != r
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in domains)):
        raise ParseError(f"'domains' must list {r} positive integers")
    return r, domains


def _unary(doc, r, domains) -> list:
    """The unary rows of a document as ExtValue tuples, or the ParseError
    of the first defect."""
    unary_doc = doc["unary"]
    if not isinstance(unary_doc, list) or len(unary_doc) != r:
        raise ParseError(f"'unary' must list {r} rows")
    unary = _read_unary(unary_doc, domains)
    if unary is None:
        for i, row in enumerate(unary_doc):
            if not isinstance(row, list) or len(row) != domains[i]:
                raise ParseError(f"unary row {i + 1} must list {domains[i]} values")
            vals = _parse_cells(row, lambda a: f"unary[{i + 1}][{a + 1}]")
            for a, v in enumerate(vals):
                if not v.is_finite:
                    raise ParseError(f"unary[{i + 1}][{a + 1}]: unary costs must be finite")
        raise InvariantError("_read_unary refused unary rows that parse cell by cell")
    return unary


# The keys a binary entry may have.
_ENTRY_KEYS = frozenset(("i", "j", "table"))


def _entries(doc, r, domains, tables: dict, placeholders: bool) -> bool:
    """Check a document's binary entries in order, putting each one's table
    into tables under its 0-based pair, or raise the ParseError of the
    first entry with a defect in its keys, its pair or its row count.

    With placeholders, entry k's table must be the int k, which stands for
    a table _read_instance reads from the text.  Otherwise the tables are
    lists, and False means that the last table put in has a row that is not
    a list of d_j cells."""
    binary_doc = doc.get("binary", [])
    if not isinstance(binary_doc, list):
        raise ParseError("'binary' must be a list of pair entries")
    for k, entry in enumerate(binary_doc):
        if not isinstance(entry, dict):
            raise ParseError(f"binary[{k}] must be an object")
        if not entry.keys() <= _ENTRY_KEYS:
            raise ParseError(f"binary[{k}]: unknown keys {sorted(entry.keys() - _ENTRY_KEYS)}")
        try:
            i, j, table = entry["i"], entry["j"], entry["table"]
        except KeyError as exc:
            raise ParseError(f"binary[{k}]: missing key {exc.args[0]!r}") from None
        if type(i) is not int or type(j) is not int:
            for name, v in (("i", i), ("j", j)):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"binary[{k}].{name} must be an integer")
        if not 1 <= i < j <= r:
            raise ParseError(f"binary[{k}]: pair ({i},{j}) must satisfy 1 <= i < j <= r")
        pair = (i - 1, j - 1)
        if pair in tables:
            raise ParseError(f"binary[{k}]: duplicate pair ({i},{j})")
        if (not (type(table) is int and table == k) if placeholders
                else not isinstance(table, list) or len(table) != domains[i - 1]):
            raise ParseError(f"binary[{k}]: table must have {domains[i - 1]} rows")
        tables[pair] = table
        if not placeholders and (set(map(type, table)) != {list}
                                 or set(map(len, table)) != {domains[j - 1]}):
            return False        # read again by the caller
    return True


# The deepest nesting of a document either parser accepts: a table row,
# {"binary": [{"table": [[...]]}]}.
_MAX_DEPTH = 5
# Every byte but the brackets, the quote and the backslash.
_NOT_MARKS = bytes(range(256)).translate(None, b'[]{}"\\')


def _utf8(text):
    """text as the bytes orjson reads, or None when it is not a str, bytes or
    bytearray (the types json.loads takes; orjson would also read a
    memoryview).  A str's lone surrogates are kept, so orjson refuses them."""
    if type(text) is str:
        return text.encode("utf-8", "surrogatepass")
    if type(text) is bytes or type(text) is bytearray:
        return text
    return None


def _fast_loads(text):
    """The document orjson decodes from text, or None when text is left to
    json.loads: _utf8 gives None for it, orjson refuses it, or its nesting
    outside strings may pass _MAX_DEPTH.

    The depth bound keeps orjson off deep documents: it has no depth limit
    and overflows the C stack on a million nested lists, where json.loads
    raises RecursionError.  A document within it holds no value json.loads
    would refuse for its depth, not even one that a repeated key drops.
    The depth is counted over the text's brackets once its strings are
    removed.  A string without brackets or backslashes is two adjacent
    quotes among the text's brackets, quotes and backslashes, and is removed
    as such; any other string leaves a quote or a backslash behind, and the
    text is then left to json.loads.
    """
    data = _utf8(text)
    if data is None:
        return None
    brackets = data.translate(None, _NOT_MARKS).replace(b'""', b"")
    if b'"' in brackets or b"\\" in brackets:
        return None
    # '[' and '{' have bit 1 set, ']' and '}' clear: steps of +1 and -1.
    steps = (np.frombuffer(brackets, np.int8) & 2) - 1
    if steps.cumsum().max(initial=0) > _MAX_DEPTH:
        return None
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return None


def _parse_json(text, build):
    """build(doc) for the JSON document in text (str, bytes or bytearray),
    the whole-document decoding path of parse_partial_matrix and of
    parse_instance (for a text _read_instance declines).

    The document comes from orjson when _fast_loads gives one and build
    accepts it.  Otherwise that document is let go, json.loads decodes the
    text again and build runs on that: so json.loads alone gives every
    error (invalid JSON, nesting too deep, its TypeError for other input
    types) and decodes what orjson does not read the same way (ints outside
    [-2**63, 2**64), which orjson makes floats that every field refuses;
    lone surrogates; NaN, Infinity and 1e400; a UTF-8 BOM in bytes), and
    every ParseError comes from build on the json.loads document.  The two
    decoders agree on every other document, repeated keys included (the
    last one wins).
    """
    doc = _fast_loads(text)
    if doc is not None:
        try:
            return build(doc)
        except ParseError:
            doc = None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return build(doc)


# ---------------------------------------------------------------------------
# The text reader of parse_instance: a document's pair tables are cut out of
# its text and the rest of it, the skeleton, decoded by orjson; numpy reads
# the tables of integer tokens, orjson each of the others on its own.

_WS = b" \t\n\r"
_WS_COMMA = _WS + b","
_DIGITS = b"0123456789"
_TO_ZEROS = bytes.maketrans(_DIGITS, b"0" * 10)
# The most digits a cell may have: 10**18 - 1 < 2**63.
_MAX_DIGITS = 18


def _cut_tables(data):
    """(skeleton, spans, quoted) for the JSON text data, or None.

    Each "table" key's span (start, end) runs from just after the key to
    the last "]" before the next quote or "}": its value, when that is an
    array of arrays of numbers and the quote is a key.  When no "]"
    precedes the quote, or more than whitespace and commas lie between
    them, the quote is a cell's: the span runs to the last "]" before the
    "}" instead, and its index is put in quoted.  The next key is sought
    from the span's end, so a key repeated after a quoted span is cut too.
    The skeleton is data with span k replaced by ":k".  None when data has
    no "table" key, or a quoted span has no "]".  _fast_loads leaves a
    skeleton with a backslash to json.loads, so in every skeleton it
    decodes each quote starts or ends a string, and a "table" followed by
    ":" is a key.
    """
    find, rfind = data.find, data.rfind
    spans, quoted, parts, prev = [], [], [], 0
    key = find(b'"table"')
    while key >= 0:
        start = key + 7
        brace = find(b"}", start)
        if brace < 0:
            brace = len(data)
        stop = find(b'"', start, brace)
        if stop < 0:
            stop = brace
        if data[stop - 1] == 93:       # "]"
            end = stop
        else:
            end = rfind(b"]", start, stop) + 1
            if not end or data[end:stop].strip(_WS_COMMA):
                quoted.append(len(spans))
                stop = brace
                end = rfind(b"]", start, stop) + 1
                if not end:
                    return None
        parts += (data[prev:start], b":%d" % len(spans))
        spans.append((start, end))
        prev = end
        key = find(b'"table"', end)
    if not spans:
        return None
    parts.append(data[prev:])
    return b"".join(parts), spans, quoted


def _template(shapes: list, width: int) -> bytes:
    """The compact text of the spans of tables of these shapes one after
    the other, each ":" and its array, with every cell width zeros."""
    texts = {}
    for di, dj in set(shapes):
        row = b"[" + b",".join([b"0" * width] * dj) + b"]"
        texts[di, dj] = b":[" + b",".join([row] * di) + b"]"
    return b"".join([texts[shape] for shape in shapes])


def _cell_tokens(seg: bytes, shapes: list):
    """The integer tokens of seg, the spans of tables of these shapes one
    after the other, as _cell_values reads them: (v, starts, lens, width),
    v the bytes of seg without whitespace less 48 (a digit's value; every
    other byte is 10 or more), starts and lens each token's place in v,
    width the longest token's length; starts and lens are None when every
    token has width digits and v holds only the digits.  None unless each
    span is a JSON array of its shape's rows of nonnegative integer tokens
    of at most _MAX_DIGITS digits.

    With its whitespace deleted, a span must have a token in every cell's
    place of the compact template and nowhere else; no token of two or more
    digits may start with 0; and whitespace may not split a token, so seg
    must hold as many runs of digits as cells.  Tokens of one width are
    checked by one comparison with that width's template and read column by
    column, which is faster than the general path's token positions.
    """
    cells = sum(di * dj for di, dj in shapes)
    stripped = seg.translate(None, _WS)
    width, extra = divmod(len(stripped) - sum(2 + di * (dj + 2) for di, dj in shapes), cells)
    if width < 1:       # too short for a digit a cell; the templates below are then
        return None     # no longer than stripped
    uniform = (extra == 0 and width <= _MAX_DIGITS
               and stripped.translate(_TO_ZEROS) == _template(shapes, width))
    if (width > 1 or not uniform) and len(stripped) < len(seg):
        digit = (np.frombuffer(seg, np.uint8) - 48) < 10
        if np.count_nonzero(digit[1:] > digit[:-1]) != cells:
            return None
    del seg             # the caller holds no other reference to it
    if uniform:
        v = np.frombuffer(stripped.translate(None, b":[],"), np.uint8) - 48
        if width > 1 and not v[::width].all():
            return None
        return v, None, None, width
    tmpl = _template(shapes, 0)
    if stripped.translate(None, _DIGITS) != tmpl:
        return None
    v = np.frombuffer(stripped, np.uint8) - 48
    digits = len(stripped) - len(tmpl)
    del stripped
    # int32 positions: under MAX_RANK_BYTES a chunk's text is below 2**31 bytes.
    marks = np.flatnonzero(v >= 10).astype(np.int32)
    t = np.frombuffer(tmpl, np.uint8)
    slot = (t[:-1] != ord("]")) & (t[1:] != ord("["))   # after "[" or ",", before "," or "]"
    lens = np.diff(marks)[slot]     # in place from here: a chunk's arrays
    lens -= 1                        # are the largest beside ranks
    if lens.min() < 1 or lens.sum() != digits:
        return None
    starts = marks[:-1][slot]
    del marks
    starts += 1
    width = int(lens.max())
    if width > _MAX_DIGITS or ((v[starts] == 0) & (lens > 1)).any():
        return None
    return v, starts, lens, width


def _cell_values(v, starts, lens, width: int):
    """The values of the tokens _cell_tokens found, in order, in the
    narrowest unsigned dtype that holds width digits."""
    dtype = np.min_scalar_type(10 ** width - 1)
    if starts is None:
        digits = v.reshape(-1, width)
        values = digits[:, 0].astype(dtype)
        for k in range(1, width):
            values *= 10
            values += digits[:, k]
        return values
    values = v[starts].astype(dtype)
    for k in range(1, width):
        more = np.flatnonzero(lens > k)
        values[more] = values[more] * 10 + v[starts[more] + k]
    return values


def _table_rows(span: bytes, di: int, dj: int):
    """The rows of a quoted span, decoded by _fast_loads, or None unless
    the span is ":" and an array of di arrays of dj values."""
    span = span.lstrip(_WS)
    rows = _fast_loads(span[1:]) if span[:1] == b":" else None
    if (type(rows) is not list or len(rows) != di or set(map(type, rows)) != {list}
            or set(map(len, rows)) != {dj}):
        return None
    return rows


def _read_instance(text):
    """parse_instance(text) read from the text, or None to leave text to the
    whole-document route (_parse_json), which gives every error message.

    The tables' spans are cut out (_cut_tables) and the skeleton decoded
    (_fast_loads); its header, unary rows and entries are checked as
    instance_from_dict checks them, each entry's table being its span's
    placeholder, and every span must be an entry's table (a repeated key
    drops one), so that none goes unchecked.  Each quoted span is decoded
    and its shape checked (_table_rows); the others are checked against
    their shapes and read (_cell_tokens, _cell_values), _CHUNK_CELLS cells
    at a time (a larger table alone).  Then the cells are ranked (_rank).
    Any defect declines, with one exception: a document whose skeleton is
    too large for MAX_RANK_BYTES raises that ParseError once its spans pass
    their checks, since the whole text is then valid JSON and the route
    would raise it too; those checks rank no cell and hold one decoded
    quoted span at a time.
    """
    data = _utf8(text)
    if data is None:
        return None
    cut = _cut_tables(data)
    if cut is None:
        return None
    skeleton, spans, quoted = cut
    doc = _fast_loads(skeleton)
    if doc is None:
        return None
    tables, too_large = {}, None
    try:
        r, domains = _header(doc)
        try:
            _check_size(sum(domains))
        except ValueError as exc:
            too_large = ParseError(str(exc))
        else:
            unary = _unary(doc, r, domains)
        _entries(doc, r, domains, tables, True)
    except ParseError:
        return None
    if len(tables) != len(spans):
        return None
    pairs = list(tables)
    shapes = [(domains[i], domains[j]) for i, j in pairs]
    other = []
    for k in quoted:
        rows = _table_rows(data[spans[k][0]:spans[k][1]], *shapes[k])
        if rows is None:
            return None
        if too_large is None:
            other.append((pairs[k], rows))
        del rows    # so a document too large holds one quoted table at a time
    if quoted:      # numpy reads the other spans
        ints = sorted(set(range(len(spans))).difference(quoted))
        pairs, shapes, spans = ([seq[k] for k in ints] for seq in (pairs, shapes, spans))
    flats, tokens, first, filled = [], None, 0, 0
    for k, (di, dj) in enumerate(shapes + [(_CHUNK_CELLS, 1)]):
        if k > first and filled + di * dj > _CHUNK_CELLS:    # chunk first:k is full
            tokens = _cell_tokens(b"".join([data[start:end] for start, end in spans[first:k]]),
                                  shapes[first:k])
            if tokens is None:
                return None
            if too_large is None:
                flats.append((pairs[first:k], _cell_values(*tokens)))
            first, filled = k, 0
        filled += di * dj
    if too_large is not None:
        raise too_large
    del data, skeleton, doc, tokens   # before ranks is allocated
    layout = OneHotLayout(domains)
    ranked = _rank(layout, flats, other, _raw, tables)
    if ranked is None:
        return None
    return _new_instance(domains, unary, tables, layout, ranked)


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format from a str, bytes or bytearray.
    Raises ParseError on any defect, with the message and result
    instance_from_dict(json.loads(text)) gives.  The text is read by
    _read_instance: orjson decodes it without its tables, and each table
    is read by numpy from its digits or, when it holds strings, by orjson.
    A text the reader declines is decoded whole (_parse_json)."""
    inst = _read_instance(text)
    if inst is not None:
        return inst
    return _parse_json(text, instance_from_dict)


def instance_to_dict(inst: Instance) -> dict:
    doc: dict = {
        "r": inst.r,
        "domains": list(inst.domains),
        "unary": [[format_value(v) for v in row] for row in inst.unary],
    }
    binary = []
    for (i, j), t in inst.binary_pairs():
        binary.append({
            "i": i + 1,
            "j": j + 1,
            "table": [[format_value(v) for v in row] for row in t],
        })
    if binary:
        doc["binary"] = binary
    return doc


def dump_instance(inst: Instance, *, indent: int | None = None) -> str:
    """Serialize to the JSON instance format (deterministic byte output)."""
    return json.dumps(instance_to_dict(inst), indent=indent)
