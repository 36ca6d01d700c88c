"""Exact scalar arithmetic for costs: rationals extended with plus infinity.

Every cost and weight at the API and file boundary is an ExtValue; inside
the solver, quadratic.QuadFn.kernel scales them to exact integers.  Finite
values are exact rationals (stored as int when integral, fractions.Fraction
otherwise); the single non-finite value is positive infinity, whose raw
value is always the one object math.inf: every constructor and operation
normalizes to it, so infinity is tested by identity (raw is math.inf), not
by a comparison that would send a Fraction through its float equality.  No
finite value is ever represented as a float, so equality and comparison
are exact everywhere.

Arithmetic follows the extended conventions:

    a + inf = inf            for every a
    k * inf = inf            for every integer k >= 1
    0 * inf = 0
    inf > a                  for every finite a

Subtraction is defined when the right operand is finite (inf - a = inf,
a - b exact); inf - inf raises.

The class itself does not restrict sign: differences of finite values are
legitimate intermediate quantities, and the test oracles exercise quadratics
with negative coefficients.  Nonnegativity of instance data is enforced where
the data enters the system (file parsing, instance and matrix validation).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["ExtValue", "INF", "ZERO", "parse_value", "format_value"]

_INF_RAW = math.inf

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class ExtValue:
    """An exact rational number or positive infinity.

    Construct from an int, a Fraction, another ExtValue, the string "inf",
    a rational string like "3" or "5/2", or math.inf.  A two-argument form
    ExtValue(p, q) builds the fraction p/q.  Floats other than math.inf are
    rejected: they would silently destroy exactness.

    Instances are immutable and hashable; values equal as rationals compare
    and hash equal regardless of how they were constructed.
    """

    # raw is the underlying int, Fraction, or math.inf.  A slot, not a
    # property, so hot loops read it without a Python call.
    __slots__ = ("raw",)

    def __init__(self, value: "int | Fraction | str | float | ExtValue" = 0, den: int | None = None):
        if den is not None:
            if not isinstance(value, int) or isinstance(value, bool) or not isinstance(den, int):
                raise TypeError("two-argument form requires integers")
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            raw: object = _normalize(Fraction(value, den))
        elif isinstance(value, ExtValue):
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
        and _wrap on a miss."""
        v = cls._cache.get(raw)
        if v is None:
            v = cls._wrap(raw)
            if len(cls._cache) < 4096:
                cls._cache[raw] = v
        return v

    @classmethod
    def _wrap(cls, raw) -> "ExtValue":
        v = object.__new__(cls)
        object.__setattr__(v, "raw", raw)
        return v

    @property
    def is_finite(self) -> bool:
        return self.raw is not _INF_RAW

    @property
    def numerator(self) -> int:
        if self.raw is _INF_RAW:
            raise ValueError("infinity has no numerator")
        return self.raw.numerator

    @property
    def denominator(self) -> int:
        if self.raw is _INF_RAW:
            raise ValueError("infinity has no denominator")
        return self.raw.denominator

    def __setattr__(self, name, value):
        raise AttributeError("ExtValue is immutable")

    def __add__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        a, b = self.raw, other.raw
        if a is _INF_RAW or b is _INF_RAW:
            return INF
        return ExtValue._wrap(_normalize(a + b))

    def __sub__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        a, b = self.raw, other.raw
        if b is _INF_RAW:
            raise ValueError("cannot subtract infinity")
        if a is _INF_RAW:
            return INF
        return ExtValue._wrap(_normalize(a - b))

    def __mul__(self, k):
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("multiplier must be a nonnegative integer")
        if self.raw is _INF_RAW:
            return ZERO if k == 0 else INF
        return ExtValue._wrap(_normalize(self.raw * k))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw == other.raw

    def __ne__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw != other.raw

    def __lt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw < other.raw

    def __le__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw <= other.raw

    def __gt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw > other.raw

    def __ge__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.raw >= other.raw

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
