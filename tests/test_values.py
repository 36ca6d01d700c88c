import math
from fractions import Fraction

import pytest

from zfree import INF, ExtValue, format_value, parse_value


def test_construction_from_int_and_fraction():
    assert ExtValue(3).raw == 3
    assert ExtValue(Fraction(3, 4)).raw == Fraction(3, 4)
    # denominator 1 collapses to int
    assert ExtValue(Fraction(8, 4)).raw == 2
    assert isinstance(ExtValue(Fraction(8, 4)).raw, int)


def test_construction_from_strings():
    assert ExtValue("7").raw == 7
    assert ExtValue("3/4").raw == Fraction(3, 4)
    assert ExtValue("inf").raw == math.inf
    assert ExtValue("-2").raw == -2


def test_rejects_bool_and_float():
    with pytest.raises(TypeError):
        ExtValue(True)
    with pytest.raises(TypeError):
        ExtValue(1.5)
    # math.inf is the one float allowed
    assert ExtValue(math.inf) == INF


def test_total_order():
    vals = [ExtValue("1/2"), ExtValue(0), INF, ExtValue(3), ExtValue("7/2")]
    ordered = sorted(vals)
    assert [str(v) for v in ordered] == ["0", "1/2", "3", "7/2", "inf"]
    assert INF > ExtValue(10**9)
    assert ExtValue(1) <= ExtValue(1)
    assert ExtValue(3) >= ExtValue("5/2") and not ExtValue("5/2") >= ExtValue(3)
    assert INF >= INF and INF <= INF and not INF > INF
    assert ExtValue(1) != ExtValue(2) and not ExtValue(1) != ExtValue("2/2")
    # A Fraction and an int equal as rationals are one value.
    assert ExtValue("4/2") == ExtValue(2) and ExtValue(Fraction(4, 2)) == ExtValue(2)
    assert hash(ExtValue("4/2")) == hash(ExtValue(2))
    assert hash(ExtValue("3/2")) == hash(ExtValue(Fraction(6, 4)))
    # Only ExtValues compare: order against a plain number is a TypeError.
    for compare in (lambda: ExtValue(1) < 1, lambda: ExtValue(1) <= 1,
                    lambda: ExtValue(1) > 1, lambda: ExtValue(1) >= 1,
                    lambda: 1 < ExtValue(1)):
        with pytest.raises(TypeError):
            compare()
    assert ExtValue(1) != 1 and not ExtValue(1) == 1


def test_truth_is_nonzero():
    assert not ExtValue(0) and not ExtValue("0/3")
    assert ExtValue("1/2") and ExtValue(-1) and INF


def test_interning_small_values():
    assert ExtValue.of(0) is ExtValue.of(0)
    assert ExtValue.of(math.inf) is ExtValue.of(math.inf)
    v = ExtValue.of(ExtValue(5))
    assert v.raw == 5


def test_immutable():
    v = ExtValue(1)
    with pytest.raises(AttributeError):
        v.raw = 2


def test_str_and_format_value():
    assert str(ExtValue(3)) == "3"
    assert str(ExtValue("3/4")) == "3/4"
    assert str(INF) == "inf"
    assert format_value(ExtValue(3)) == 3
    assert format_value(ExtValue("3/4")) == "3/4"
    assert format_value(INF) == "inf"


def test_parse_value_accepts_json_forms():
    assert parse_value(4).raw == 4
    assert parse_value("3/4").raw == Fraction(3, 4)
    assert parse_value("inf") == INF


def test_parse_value_rejections():
    for bad in (1.5, -1, "-1", True, "3/0", "abc", "1/2/3", None, [1]):
        with pytest.raises(ValueError):
            parse_value(bad, where="cell")


def test_parse_value_interns_decoded_strings():
    half = parse_value("5/2")
    assert half is parse_value(" 5/2 ") is ExtValue.of(Fraction(5, 2))
    assert parse_value("4/2") is ExtValue.of(2) and type(parse_value("4/2").raw) is int
    for bad, message in (("3/0", "zero denominator"), ("-1/2", "negative value '-1/2'"),
                         (" x ", "malformed value string 'x'; expected 'p/q' or 'inf'")):
        with pytest.raises(ValueError) as exc:
            parse_value(bad, where="cell")
        assert str(exc.value) == f"cell: {message}"


def test_every_infinity_is_the_one_math_inf_object():
    # ExtValue tests infinity by identity, so no constructor may hand back a different float object.
    made = [
        ExtValue(float("inf")),
        ExtValue.of(1e309),
        ExtValue.of(float("inf")),
        ExtValue("inf"),
        ExtValue(" inf "),
        ExtValue(INF),
        parse_value("inf"),
    ]
    for v in made:
        assert v.raw is math.inf
        assert not v.is_finite
        assert v == INF


def test_is_finite_numerator_and_denominator():
    assert ExtValue(7).is_finite
    half = ExtValue("3/4")
    assert half.is_finite
