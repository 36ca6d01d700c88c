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
"""

from __future__ import annotations

import json
from bisect import bisect_right

from .errors import NotOneHotError, ParseError
from .values import INF, ZERO, ExtValue, _decode_value, format_value

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

    Construction validates shapes and signs and normalizes all cells to
    ExtValue.  Treat instances as immutable after construction.
    """

    __slots__ = ("domains", "r", "unary", "_binary", "layout")

    def __init__(self, domains, unary, binary=None):
        domains = tuple(int(d) for d in domains)
        if len(domains) == 0:
            raise ValueError("instance needs at least one variable")
        if any(d < 1 for d in domains):
            raise ValueError("domain sizes must be >= 1")
        self.domains = domains
        self.r = len(domains)

        if len(unary) != self.r:
            raise ValueError(f"expected {self.r} unary rows, got {len(unary)}")
        rows = []
        for i, row in enumerate(unary):
            row = tuple(ExtValue.of(v) for v in row)
            if len(row) != domains[i]:
                raise ValueError(f"unary row {i} has {len(row)} entries, expected {domains[i]}")
            for a, v in enumerate(row):
                if not v.is_finite:
                    raise ValueError(f"unary cost ({i},{a}) must be finite")
                if v < ZERO:
                    raise ValueError(f"unary cost ({i},{a}) is negative")
            rows.append(row)
        self.unary = tuple(rows)

        tables: dict[tuple[int, int], tuple[tuple[ExtValue, ...], ...]] = {}
        for (i, j), table in (binary or {}).items():
            if not (0 <= i < j < self.r):
                raise ValueError(f"binary pair ({i},{j}) must satisfy 0 <= i < j < r")
            if (i, j) in tables:
                raise ValueError(f"duplicate binary pair ({i},{j})")
            t = tuple(tuple(map(ExtValue.of, row)) for row in table)
            if len(t) != domains[i] or any(len(row) != domains[j] for row in t):
                raise ValueError(f"binary table ({i},{j}) is not {domains[i]}x{domains[j]}")
            if any(v.raw < 0 for row in t for v in row):
                raise ValueError(f"binary table ({i},{j}) has a negative entry")
            tables[(i, j)] = t
        self._binary = tables
        # Assigned last: its presence is what freezes the object (__setattr__).
        self.layout = OneHotLayout(domains)

    @property
    def n(self) -> int:
        """Total number of (variable, value) pairs."""
        return self.layout.n

    def has_table(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self._binary

    def table(self, i: int, j: int):
        """The stored table for pair (i, j) with i < j, or None if absent."""
        return self._binary.get((i, j))

    def binary_pairs(self):
        """Stored (pair, table) items, ascending by pair."""
        return sorted(self._binary.items())

    def binary_value(self, i: int, a: int, j: int, b: int) -> ExtValue:
        """c_ij(a, b), symmetric in the two (variable, value) arguments."""
        if i == j:
            raise ValueError("no binary cost within a single variable")
        if i > j:
            i, j, a, b = j, i, b, a
        t = self._binary.get((i, j))
        return t[a][b] if t is not None else ZERO

    def __setattr__(self, name, value):
        if name in self.__slots__ and not hasattr(self, "layout"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("Instance is immutable")

    def __repr__(self):
        return f"Instance(r={self.r}, domains={self.domains}, tables={len(self._binary)})"


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
    """Total cost of assignment x: unary terms plus all pair terms."""
    x = _check_assignment(inst, x)
    total = ZERO
    for i, a in enumerate(x):
        total = total + inst.unary[i][a]
    for (i, j), t in inst._binary.items():
        v = t[x[i]][x[j]]
        if not v.is_finite:
            return INF
        total = total + v
    return total


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
    """Decode a row of cells.  where(b) labels cell b; it is formatted only
    when that cell fails, for the ParseError message."""
    out = []
    for b, v in enumerate(row):
        try:
            out.append(_decode_value(v))
        except ValueError as exc:
            raise ParseError(f"{where(b)}: {exc}") from None
    return out


def instance_from_dict(doc) -> Instance:
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

    unary_doc = doc["unary"]
    if not isinstance(unary_doc, list) or len(unary_doc) != r:
        raise ParseError(f"'unary' must list {r} rows")
    unary = []
    for i, row in enumerate(unary_doc):
        if not isinstance(row, list) or len(row) != domains[i]:
            raise ParseError(f"unary row {i + 1} must list {domains[i]} values")
        vals = _parse_cells(row, lambda a: f"unary[{i + 1}][{a + 1}]")
        for a, v in enumerate(vals):
            if not v.is_finite:
                raise ParseError(f"unary[{i + 1}][{a + 1}]: unary costs must be finite")
        unary.append(vals)

    binary: dict[tuple[int, int], list] = {}
    binary_doc = doc.get("binary", [])
    if not isinstance(binary_doc, list):
        raise ParseError("'binary' must be a list of pair entries")
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
        if (i - 1, j - 1) in binary:
            raise ParseError(f"binary[{k}]: duplicate pair ({i},{j})")
        di, dj = domains[i - 1], domains[j - 1]
        if not isinstance(table, list) or len(table) != di:
            raise ParseError(f"binary[{k}]: table must have {di} rows")
        rows = []
        for a, row in enumerate(table):
            if not isinstance(row, list) or len(row) != dj:
                raise ParseError(f"binary[{k}]: row {a + 1} must have {dj} values")
            rows.append(_parse_cells(
                row, lambda b: f"binary[{k}].table[{a + 1}][{b + 1}]"))
        binary[(i - 1, j - 1)] = rows

    try:
        return Instance(domains, unary, binary)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format.  Raises ParseError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return instance_from_dict(doc)


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
