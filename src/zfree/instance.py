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
pair tables (_rank_tables), each with its own cell decoder: int tables are
read together as int64 in batches of _CHUNK_CELLS cells, each distinct cell
of the others is decoded once, and one lookup, applied in bands of about
_CHUNK_CELLS cells, turns every cell into its rank; at n = 126 that is one
read and one band.  Which tables are int tables is read from each cell's
type, except in a document parse_instance decoded with orjson whose text
passes a screen (_int_text: no number but integer tokens, no true, false or
null), where a table's sum is an int exactly when its cells are.
parse_instance decodes the text with orjson, json.loads as the fallback
(_parse_json), and the unary rows together.  Rows or tables with a defect
are read again cell by cell only to raise the ParseError for the first
defect in document order, so the messages do not depend on the fast paths.

MAX_RANK_BYTES caps the 4 n^2 bytes of ranks.  A larger instance is refused
before anything is allocated: parse_instance raises ParseError as soon as
"domains" is read, the constructor ValueError.
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
# of this many entries (plus one per distinct cell of the other tables), a
# bool and an int32 each: 5 MB, less than the ranks of 1200 positions.  A
# per-table np.unique would cost more in call overhead on small tables.
_LOOKUP_SIZE = 1 << 20

# Int tables are read as int64 about _CHUNK_CELLS cells at a time (a larger
# table on its own), and their codes ranked in bands of about as many cells
# of ranks, whole rows from the diagonal on (a band's lookup takes 12 bytes
# a cell: its codes as intp indices and its ranks).  An instance of up to
# 128 positions takes one read and one band, and at n = 2000 the arrays
# beside the rank matrix stay as small.
_CHUNK_CELLS = 1 << 14


def _all_int(table, size: int, screened: bool) -> bool:
    """Whether every cell of table, size cells, is exactly an int.  In a
    screened document (_int_text) a cell is an int, a float (orjson's for
    an int token past 2**64), a str, a list or a dict, so the table's sum
    is an int exactly when every cell is; else each cell's type is read."""
    if not screened:
        return countOf(map(type, chain.from_iterable(table)), int) == size
    try:
        return type(sum(map(sum, table))) is int
    except TypeError:
        return False


def _rank_tables(layout: "OneHotLayout", tables: dict, raw_of, screened: bool):
    """(ranks, pool) of an instance's pair tables, ranks read-only; None
    when a cell has a defect: raw_of raises on it, or its value is negative.

    tables maps pairs (i, j), i < j, to d_i x d_j lists of rows, shapes
    checked.  raw_of(cell) is a cell's raw value and keeps a raw value as
    it is.  screened says the tables come from a document that passed
    _int_text, so _all_int may sum a table instead of reading each cell's
    type.  Each block above the diagonal first gets a code per cell:
    value + 1 for the int tables (every cell exactly int, since numpy reads
    True and 1.5 as 1), read as int64 _CHUNK_CELLS cells at a time (numpy
    before 2.0 wraps an int past int32 without an error); 1 for an
    omitted pair (cost 0); and a code past those per distinct cell of the
    other tables (and of int tables too large for the lookup), decoded once.
    One lookup then turns codes into ranks, in bands of about _CHUNK_CELLS
    cells, and mirrors each.
    """
    dom, off, n = layout.domains, layout.offsets, layout.n
    ranks = np.zeros((n, n), dtype=np.int32)

    def block(i, j):
        return ranks[off[i]:off[i + 1], off[j]:off[j + 1]]

    batches, filled, other = [], 0, []
    for (i, j), table in tables.items():
        size = dom[i] * dom[j]
        if not _all_int(table, size, screened):
            other.append((i, j))
        elif batches and filled + size <= _CHUNK_CELLS:
            batches[-1].append((i, j))
            filled += size
        else:
            batches.append([(i, j)])
            filled = size
    top = 0             # the largest int value written into a block, or 0
    for batch in batches:
        sizes = [dom[i] * dom[j] for i, j in batch]
        try:
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(map(
                tables.__getitem__, batch))), np.int64, sum(sizes))
        except OverflowError:   # past int64: coded from the Python ints
            other += batch
            continue
        if flat.min() < 0:
            return None
        starts = np.cumsum([0, *sizes[:-1]])
        highs = np.maximum.reduceat(flat, starts).tolist()
        flat += 1       # the codes; a table it wraps is past the lookup
        for (i, j), start, size, high in zip(batch, starts.tolist(), sizes, highs):
            if high >= _LOOKUP_SIZE:
                other.append((i, j))
            else:
                block(i, j)[...] = flat[start:start + size].reshape(dom[i], dom[j])
                top = max(top, high)
        del flat        # before the lookup's arrays
    # A cell of the other tables (its raw value, where a bool or a float
    # would share a key with an equal int) -> its code, and each code's value.
    codes, raws = {}, []
    try:
        for i, j in other:
            cells = list(chain.from_iterable(tables[(i, j)]))
            if not set(map(type, cells)) <= _KEYABLE:
                cells = list(map(raw_of, cells))
            for cell in set(cells).difference(codes):
                codes[cell] = top + 2 + len(raws)
                raws.append(raw_of(cell))
            block(i, j)[...] = np.fromiter(map(codes.__getitem__, cells), np.int32,
                                           len(cells)).reshape(dom[i], dom[j])
    except (ArithmeticError, TypeError, ValueError):
        return None
    if raws and min(raws) < 0:
        return None
    r = len(dom)
    for i, j in combinations(range(r), 2):
        if (i, j) not in tables:
            block(i, j)[...] = 1

    # Bands of rows a:b from column a on.  Their cells below the diagonal
    # still hold code 0, which looks up rank 0, and then take the ranks of
    # the cells they mirror (numpy copies square.T before adding it).
    rows = max(1, _CHUNK_CELLS // n)
    bands = [(a, min(a + rows, n)) for a in range(0, n, rows)]
    seen = np.zeros(top + 2 + len(raws), dtype=bool)
    for a, b in bands:
        seen[ranks[a:b, a:]] = True
    keys = np.flatnonzero(seen[1:top + 2])
    pool, rank_of = _ranked({*keys.tolist(), *raws})
    lookup = np.zeros(len(seen), dtype=np.int32)
    lookup[keys + 1] = [rank_of[v] for v in keys.tolist()]
    lookup[top + 2:] = [rank_of[v] for v in raws]
    for a, b in bands:
        ranks[a:b, a:] = np.take(lookup, ranks[a:b, a:])
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
        ranked = _rank_tables(layout, tables, lambda v: ExtValue.of(v).raw, False)
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
    return _instance_from_doc(doc, False)


def _instance_from_doc(doc, screened: bool) -> Instance:
    """instance_from_dict(doc); screened says doc was decoded from a text
    that passed _int_text, which _rank_tables may rely on."""
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
    try:
        _check_size(sum(domains))
    except ValueError as exc:
        raise ParseError(str(exc)) from None

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

    binary_doc = doc.get("binary", [])
    if not isinstance(binary_doc, list):
        raise ParseError("'binary' must be a list of pair entries")
    layout = OneHotLayout(domains)
    tables, ranked = {}, None
    try:
        for k, entry in enumerate(binary_doc):
            if not isinstance(entry, dict):
                raise ParseError(f"binary[{k}] must be an object")
            unknown = set(entry) - {"i", "j", "table"}
            if unknown:
                raise ParseError(f"binary[{k}]: unknown keys {sorted(unknown)}")
            try:
                i, j, table = entry["i"], entry["j"], entry["table"]
            except KeyError as exc:
                raise ParseError(f"binary[{k}]: missing key {exc.args[0]!r}") from None
            for name, v in (("i", i), ("j", j)):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"binary[{k}].{name} must be an integer")
            if not 1 <= i < j <= r:
                raise ParseError(f"binary[{k}]: pair ({i},{j}) must satisfy 1 <= i < j <= r")
            if (i - 1, j - 1) in tables:
                raise ParseError(f"binary[{k}]: duplicate pair ({i},{j})")
            di, dj = domains[i - 1], domains[j - 1]
            if not isinstance(table, list) or len(table) != di:
                raise ParseError(f"binary[{k}]: table must have {di} rows")
            tables[(i - 1, j - 1)] = table
            if set(map(type, table)) != {list} or set(map(len, table)) != {dj}:
                break           # read again below
        else:
            ranked = _rank_tables(layout, tables, lambda v: _decode_value(v).raw,
                                  screened)
    except ParseError:
        _parse_tables(tables, domains)   # an earlier entry's bad cell comes first
        raise
    if ranked is None:
        _parse_tables(tables, domains)
        raise InvariantError("_rank_tables or a row check refused tables that parse cell by cell")

    inst = object.__new__(Instance)
    inst._init(tuple(domains), tuple(unary), tables, layout, *ranked)
    return inst


# The deepest nesting of a document either parser accepts: a table row,
# {"binary": [{"table": [[...]]}]}.
_MAX_DEPTH = 5
# Every byte but the brackets, the quote and the backslash.
_NOT_MARKS = bytes(range(256)).translate(None, b'[]{}"\\')


def _fast_loads(text):
    """The document orjson decodes from text, or None when text is left to
    json.loads: text is not a str, bytes or bytearray (the types json.loads
    takes; orjson would also read a memoryview), orjson refuses it, or its
    nesting outside strings may pass _MAX_DEPTH.

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
    if type(text) is str:
        data = text.encode("utf-8", "surrogatepass")   # orjson then refuses them
    elif type(text) is bytes or type(text) is bytearray:
        data = text
    else:
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


# The bytes a document may hold outside its strings and still pass
# _int_text: digits, "-", ",", ":", brackets, braces and JSON whitespace.
_INT_TEXT = b"0123456789-,:[]{} \t\n\r"


def _int_text(text) -> bool:
    """Whether text, which _fast_loads decoded, has no number but integer
    tokens and no true, false or null.

    On that route no string holds a backslash, so every quote starts or
    ends a string.  Once the bytes of _INT_TEXT are removed, the pieces
    between the quotes that lie outside strings must then be empty: no
    letter, ".", "+" or other byte is left there.
    """
    data = text.encode() if type(text) is str else text
    return not any(data.translate(None, _INT_TEXT).split(b'"')[::2])


def _parse_json(text, build, screened_build=None):
    """build(doc) for the JSON document in text (str, bytes or bytearray),
    the one decoding path of parse_instance and parse_partial_matrix.

    The document comes from orjson when _fast_loads gives one and build
    accepts it; screened_build, when given, builds it instead when its text
    passes _int_text.  Otherwise json.loads decodes the text again and build
    runs on that: so json.loads alone gives every error (invalid JSON,
    nesting too deep, its TypeError for other input types) and decodes what
    orjson does not read the same way (ints outside [-2**63, 2**64), which
    orjson makes floats that every field refuses; lone surrogates; NaN,
    Infinity and 1e400; a UTF-8 BOM in bytes), and every ParseError comes
    from build on the json.loads document.  The two decoders agree on every
    other document, repeated keys included (the last one wins).
    """
    doc = _fast_loads(text)
    if doc is not None:
        try:
            if screened_build is not None and _int_text(text):
                return screened_build(doc)
            return build(doc)
        except ParseError:
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return build(doc)


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format from a str, bytes or bytearray.
    Raises ParseError on any defect, with the message and result
    instance_from_dict(json.loads(text)) gives; orjson decodes the text
    when it reads it the same way, and a text whose numbers are all
    integer tokens, with no true, false or null, has its tables checked
    for int cells by their sums (see _parse_json and _int_text)."""
    return _parse_json(text, instance_from_dict, lambda doc: _instance_from_doc(doc, True))


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
