"""The exact ordered value of the API and file boundary: a rational or
plus infinity.

Every cost and weight at the API and file boundary is an ExtValue.  The
paper's conditions only compare values ("the minimum is attained at least
twice"), so the type carries order, not arithmetic: the forest works on
integer ranks of the values, and the solver's sums live in the exact
integer kernel (quadratic.QuadFn.kernel), which scales the raw values, and
in the final check on raw ints and Fractions.  Finite values are exact
rationals (stored as int when integral, fractions.Fraction otherwise); the
single non-finite value is positive infinity, whose raw value is always the
one object math.inf: every constructor normalizes to it, so infinity is
tested by identity (raw is math.inf), not by a comparison that would send a
Fraction through its float equality.  No finite value is ever represented
as a float, so equality and order are exact everywhere, and infinity is
above every finite value.

The class itself does not restrict sign: the test oracles exercise
quadratics with negative coefficients.  Nonnegativity of instance data is
enforced where the data enters the system (file parsing, instance and
matrix validation).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

__all__ = ["ExtValue", "INF", "ZERO", "parse_value", "format_value"]

_INF_RAW = math.inf

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


@functools.total_ordering
class ExtValue:
    """An exact rational number or positive infinity.

    Construct from an int, a Fraction, another ExtValue, the string "inf",
    a rational string like "3" or "5/2", or math.inf.  Floats other than
    math.inf are rejected: they would silently destroy exactness.

    Instances are immutable, hashable and totally ordered, and comparable
    only with each other; values equal as rationals compare and hash equal
    regardless of how they were constructed.
    """

    # raw is the underlying int, Fraction, or math.inf.  A slot, not a
    # property, so hot loops read it without a Python call.
    __slots__ = ("raw",)

    def __init__(self, value: "int | Fraction | str | float | ExtValue" = 0):
        if isinstance(value, ExtValue):
            raw = value.raw
        elif isinstance(value, bool):
            raise TypeError("bool is not a valid cost value")
        elif isinstance(value, int):
            raw = value
        elif isinstance(value, Fraction):
            raw = _normalize(value)
        elif isinstance(value, float):
            if value == _INF_RAW:
                raw = _INF_RAW
            else:
                raise TypeError("floats are not exact; use int, Fraction, or 'p/q'")
        elif isinstance(value, str):
            raw = _parse_raw(value)
        else:
            raise TypeError(f"cannot build ExtValue from {type(value).__name__}")
        object.__setattr__(self, "raw", raw)

    # A small cache so that tables holding millions of repeated cells share
    # objects.  Values are immutable, so sharing is safe.
    _cache: dict[object, "ExtValue"] = {}

    @classmethod
    def of(cls, value) -> "ExtValue":
        """Like the constructor, but interns small and repeated values."""
        if isinstance(value, ExtValue):
            return value
        return cls._interned(value if type(value) is int else cls(value).raw)

    @classmethod
    def _interned(cls, raw) -> "ExtValue":
        """The shared ExtValue of a normalized raw value: one cache lookup,
        and a new object over raw on a miss."""
        v = cls._cache.get(raw)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "raw", raw)
            if len(cls._cache) < 4096:
                cls._cache[raw] = v
        return v

    @property
    def is_finite(self) -> bool:
        return self.raw is not _INF_RAW

    def __setattr__(self, name, value):
        raise AttributeError("ExtValue is immutable")

    def __eq__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw == other.raw

    def __lt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw < other.raw

    def __hash__(self):
        return hash(self.raw)

    def __bool__(self):
        return self.raw != 0

    def __str__(self):
        raw = self.raw
        if raw is _INF_RAW:
            return "inf"
        if isinstance(raw, int):
            return str(raw)
        return f"{raw.numerator}/{raw.denominator}"

    def __repr__(self):
        return f"ExtValue({str(self)!r})"


def _normalize(raw):
    if isinstance(raw, Fraction) and raw.denominator == 1:
        return raw.numerator
    return raw


def _parse_raw(s: str):
    s = s.strip()
    if s == "inf":
        return _INF_RAW
    m = _RATIONAL_RE.match(s)
    if not m:
        raise ValueError(f"malformed value string {s!r}; expected 'p/q' or 'inf'")
    num, den = m.groups()
    if den is None:
        return int(num)
    den = int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return _normalize(Fraction(int(num), den))


INF = ExtValue(math.inf)
ZERO = ExtValue(0)


def parse_value(obj, *, where: str = "value") -> ExtValue:
    """Decode one JSON-level cost: a nonnegative int, "p/q", or "inf".

    This is the file-format boundary, so it is stricter than the ExtValue
    constructor: floats are rejected outright and negative values are an
    error.  `where` names the offending location in error messages.
    """
    try:
        return _decode_value(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _decode_value(obj) -> ExtValue:
    """parse_value without the location prefix on its error messages, for
    parsers that format the location only once a cell fails."""
    if isinstance(obj, bool):
        raise ValueError("booleans are not values")
    if isinstance(obj, int):
        if obj < 0:
            raise ValueError(f"negative value {obj}")
        return ExtValue.of(obj)
    if isinstance(obj, float):
        raise ValueError("floats are not exact; write integers, 'p/q', or 'inf'")
    if isinstance(obj, str):
        try:
            raw = _parse_raw(obj)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from None
        if raw is _INF_RAW:
            return INF
        if raw < 0:
            raise ValueError(f"negative value {obj!r}")
        return ExtValue._interned(raw)
    raise ValueError(f"expected int, 'p/q', or 'inf', got {type(obj).__name__}")


def _ranked(raws):
    """The distinct raw values ascending as ExtValues (the pool, a tuple)
    and the map from each raw value to its rank, 1 for the smallest."""
    ordered = sorted(set(raws))
    return (tuple(ExtValue.of(v) for v in ordered),
            {v: k + 1 for k, v in enumerate(ordered)})


def format_value(v: ExtValue):
    """Encode an ExtValue as its JSON form: int, "p/q", or "inf"."""
    raw = v.raw
    if raw is _INF_RAW:
        return "inf"
    if isinstance(raw, int):
        return raw
    return f"{raw.numerator}/{raw.denominator}"
