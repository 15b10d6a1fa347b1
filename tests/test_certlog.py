import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dioph import certlog
from dioph.certlog import _RATIOS, _SPLITS, _atanh_frac, ln_enclosure, ln_frac, log2_lo
from dioph.enclosure import Enclosure

# 50 digits, more than enough to check 96-bit enclosures against
LN2 = F("0.69314718055994530941723212145817656807550013436026")
LN10 = F("2.30258509299404568401799145468436420760110148862877")


def test_ln_one_is_exact_zero():
    e = ln_frac(1, 64)
    assert e.lo == e.hi == 0


@pytest.mark.parametrize("k", [16, 48, 96, 200, 600, 20000])
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


def test_table_leaves_z_below_one_97th():
    # each prefix floor(2**20 n/d) in [split_(m-1), split_m) holds n/d in
    # [split_(m-1), split_m) / 2**20, and there ratio m's z = (x - r)/(x + r)
    # stays below 1/97
    ratios = [F(P, R) for P, R, *_ in _RATIOS]
    assert ratios == sorted(ratios) and ratios[0] == 1 and ratios[-1] == 2
    for (P, R, i, j, l), r, r_next in zip(_RATIOS, ratios, ratios[1:]):
        assert r == F(2) ** i * F(3) ** j * F(5) ** l
        assert r_next / r <= F(25, 24)
    for t, r, r_next in zip(_SPLITS, ratios, ratios[1:]):
        assert t * t <= (r * r_next) * 2**40 < (t + 1) ** 2
    ends = [1 << 20, *_SPLITS, 1 << 21]
    for lo, hi, r in zip(ends, ends[1:], ratios):
        for x in (F(lo, 1 << 20), F(hi, 1 << 20)):
            assert abs((x - r) / (x + r)) < F(1, 97)


@pytest.mark.parametrize("x", [5, F(125, 27), F(125, 108), F(2**61 - 1, 3**40), 10**100 + 1])
def test_width_at_large_k(x):
    # above 8192 bits the guard grows with k, as the constants' ulp counts do
    e = ln_frac(x, 20000)
    assert e.width <= F(1, 1 << 20000)
    e.intersect(ln_frac(x, 96))


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


def _ln_near_one(x, k):
    """ln x as ln_frac sums it where its table ratio is 1 (x >= 1) or 2 (x <
    1, doubled into [1, 2)) and no constant enters: 2 atanh((x - 1)/(x + 1))
    at w = k + max(16, bits(k) + 3) bits."""
    n, d = x.numerator, x.denominator
    w = k + max(16, k.bit_length() + 3)
    s, terms = _atanh_frac(abs(n - d), n + d, w)
    lo, hi = 2 * s, 2 * (s + 2 * terms + 2)
    return Enclosure.from_ints(*((lo, hi) if n >= d else (-hi, -lo)), 1 << w)


@pytest.mark.parametrize("x", [1 + F(1, 2**600), 1 - F(1, 2**600), F(2**700 + 3, 2**700), 1 - F(1, 2**60000)])
@pytest.mark.parametrize("k", [96, 1024, 4096])
def test_near_one_sums_no_constant_series(monkeypatch, x, k):
    # e = j = l = 0: the ln 2, ln 3 and ln 5 series above 512 bits were summed
    # only to be multiplied by 0, 0.85 s for lemma1_bound(1 - 2**-60000, 3)
    def forbidden(m, w):
        raise AssertionError("a constant's series was summed")

    monkeypatch.setattr(certlog, "_atanh_inv", forbidden)
    assert ln_frac(x, k) == _ln_near_one(x, k)


def test_only_certlog_writes_the_log_precision():
    """96 is written once in src/, as certlog.LOG_BITS, and no call of
    ln_frac or ln_enclosure outside certlog.py passes a literal precision."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    nineties, log_bits, literal = [], [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LOG_BITS"]:
                log_bits.append((path.name, node.value.lineno, node.value.col_offset))
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 96:
                nineties.append((path.name, node.lineno, node.col_offset))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("ln_frac", "ln_enclosure"):
                if path.name != "certlog.py" and any(isinstance(a, ast.Constant) for a in node.args[1:]):
                    literal.append((path.name, node.lineno))
    assert nineties == log_bits and [name for name, _, _ in log_bits] == ["certlog.py"]
    assert literal == []
    assert certlog.LOG_BITS == 96
