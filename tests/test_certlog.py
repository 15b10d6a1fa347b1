from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dioph.certlog import ln_enclosure, ln_frac, log2_lo
from dioph.enclosure import Enclosure

# 50 digits, more than enough to check 96-bit enclosures against
LN2 = F("0.69314718055994530941723212145817656807550013436026")
LN10 = F("2.30258509299404568401799145468436420760110148862877")


def test_ln_one_is_exact_zero():
    e = ln_frac(1, 64)
    assert e.lo == e.hi == 0


@pytest.mark.parametrize("k", [16, 48, 96, 200])
def test_ln2_width_and_containment(k):
    e = ln_frac(2, k)
    assert e.width <= F(1, 1 << k)
    # the literal is truncated after 50 digits, so allow that much slack
    assert e.lo - F(1, 10**49) <= LN2 <= e.hi + F(1, 10**49)


def test_ln_ten_containment():
    e = ln_frac(10, 96)
    assert e.lo <= LN10 <= e.hi


def test_ln_reciprocal_is_negated():
    a = ln_frac(F(1, 2), 96)
    assert a.lo <= -LN2 <= a.hi
    assert a.hi < 0


def test_ln_additivity_overlap():
    # ln(6) and ln(2) + ln(3) are computed along different reductions but
    # must agree as intervals
    lhs = ln_frac(6, 96)
    rhs = ln_frac(2, 96) + ln_frac(3, 96)
    lhs.intersect(rhs)


def test_ln_monotone():
    assert ln_frac(2, 96).strictly_lt(ln_frac(3, 96))
    assert ln_frac(F(999, 1000), 96).hi < 0


def test_ln_power_identity():
    e = ln_frac(F(1024), 96)
    ten_ln2 = ln_frac(2, 96) * 10
    e.intersect(ten_ln2)


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_frac(0, 32)
    with pytest.raises(ValueError):
        ln_frac(F(-3, 2), 32)


def test_ln_enclosure_over_interval():
    e = ln_enclosure(Enclosure(F(2), F(4)), 96)
    assert e.lo <= LN2 <= 2 * LN2 <= e.hi
    with pytest.raises(ValueError):
        ln_enclosure(Enclosure(F(0), F(1)), 32)


def test_ln_enclosure_point_matches_ln_frac():
    assert ln_enclosure(Enclosure.point(F(7, 2)), 64) == ln_frac(F(7, 2), 64)


def test_huge_argument():
    e = ln_frac(F(2) ** 500, 64)
    target = ln_frac(2, 64) * 500
    e.intersect(target)
    assert e.width <= F(1, 1 << 55)  # width grows mildly with the exponent


sizes = st.integers(min_value=1, max_value=1 << 200) | st.integers(min_value=1, max_value=64)


@settings(max_examples=300)
@given(sizes, st.integers(min_value=0, max_value=6))
def test_log2_lo_is_a_tight_lower_bound(x, b):
    # r / 2**b <= log2 x < (r + 2) / 2**b, checked exactly on powers
    r = log2_lo(x, b)
    assert 1 << r <= x ** (1 << b) < 1 << (r + 2)


def test_log2_lo_is_exact_on_powers_of_two():
    for e in (0, 1, 5, 64, 1000):
        assert log2_lo(1 << e, 16) == e << 16
