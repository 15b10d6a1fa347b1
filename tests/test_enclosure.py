import copy
import pickle
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from dioph.enclosure import (
    Enclosure,
    as_integers,
    dyadic_above,
    dyadic_below,
    iroot,
    root_enclosure,
    sqrt_enclosure,
    sqrt_lower,
    sqrt_upper,
)
from dioph.errors import PreconditionError
from dioph.oracle import CATALOG, SEPARATION_BITS, _certified_prefix, is_separated, parse_oracle


def test_construction_and_accessors():
    e = Enclosure(F(1, 3), F(1, 2))
    assert e.width == F(1, 6)
    assert e.mid == F(5, 12)
    assert not e.is_point()
    assert e.contains(F(2, 5))
    assert not e.contains(F(3, 5))
    p = Enclosure.point(7)
    assert p.is_point() and p.lo == p.hi == 7


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Enclosure(F(1, 2), F(1, 3))


def test_int_endpoints_coerced():
    e = Enclosure(1, 2)
    assert isinstance(e.lo, F) and isinstance(e.hi, F)


def test_immutable_equal_hashable_copyable_picklable():
    e = Enclosure(F(1, 3), 2)
    for name in ("lo", "hi"):
        with pytest.raises(AttributeError):
            setattr(e, name, F(0))
        with pytest.raises(AttributeError):
            delattr(e, name)
    with pytest.raises(AttributeError):
        e.extra = 1
    assert (e.lo, e.hi) == (F(1, 3), F(2))
    same = Enclosure(F(1, 3), F(2))
    assert e == same and hash(e) == hash(same) == hash((F(1, 3), F(2)))
    assert e != Enclosure(F(1, 3), F(3)) and e != (F(1, 3), F(2))
    assert len({e, same, -(-e)}) == 1
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and type(twin) is Enclosure
        assert type(twin.lo) is F and type(twin.hi) is F
    assert pickle.loads(pickle.dumps(Enclosure.point(-7))) == Enclosure(-7, -7)


ends = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=100),
)
# a common factor multiplied into the ends and the denominator
factors = st.one_of(st.just(1), st.integers(min_value=2, max_value=10**6))


def _encode(lo, hi, g=1):
    """[lo, hi] as integers over g times the least common denominator: unreduced for g > 1."""
    lo, hi = F(lo), F(hi)
    d = lcm(lo.denominator, hi.denominator) * g
    return Enclosure.from_ints(lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d)


@st.composite
def encodings(draw):
    """Unreduced enclosures with ends of either sign, zero-width points among them."""
    x = draw(ends)
    y = draw(st.one_of(st.just(x), ends))
    return _encode(min(x, y), max(x, y), draw(factors))


def _hull(values):
    """The checked constructor's enclosure of ``values``."""
    return Enclosure(min(values), max(values))


def _corners(f, a, b):
    return [f(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]


def _assert_well_formed(e):
    """Integer ends l <= h over an integer d > 0, never a float."""
    assert type(e) is Enclosure
    assert type(e.l) is int and type(e.h) is int and type(e.d) is int
    assert e.d > 0 and e.l <= e.h
    assert type(e.lo) is F and type(e.hi) is F


@settings(deadline=None, max_examples=300)
@given(encodings(), encodings(), ends, st.integers(min_value=-4, max_value=4))
def test_unchecked_results_match_the_checked_constructor(a, b, s, n):
    """The class's own results skip the constructor's check: each has
    integer ends l <= h over d > 0, equal to the checked enclosure of the
    corner values, for unreduced operands and for Enclosure, int and
    ``Fraction`` operands of both signs."""
    point = Enclosure(s, s)
    got = [
        (Enclosure.point(s), point),
        (-a, _hull([-a.hi, -a.lo])),
        (a + b, _hull(_corners(lambda x, y: x + y, a, b))),
        (a - b, _hull(_corners(lambda x, y: x - y, a, b))),
        (a * b, _hull(_corners(lambda x, y: x * y, a, b))),
        (a + s, _hull(_corners(lambda x, y: x + y, a, point))),
        (s + a, _hull(_corners(lambda x, y: x + y, a, point))),
        (a - s, _hull(_corners(lambda x, y: x - y, a, point))),
        (s - a, _hull(_corners(lambda x, y: y - x, a, point))),
        (a * s, _hull(_corners(lambda x, y: x * y, a, point))),
        (s * a, _hull(_corners(lambda x, y: x * y, a, point))),
        (a.abs(), _hull([abs(a.lo), abs(a.hi)] + ([0] if a.contains_zero() else []))),
        (a.hull(b), _hull([a.lo, a.hi, b.lo, b.hi])),
        (a.max(b), Enclosure(max(a.lo, b.lo), max(a.hi, b.hi))),
    ]
    if s != 0:
        got.append((a / s, _hull(_corners(lambda x, y: x / y, a, point))))
    if not b.contains_zero():
        got.append((b.recip(), _hull([1 / b.lo, 1 / b.hi])))
        got.append((a / b, _hull(_corners(lambda x, y: x / y, a, b))))
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo <= hi:
        got.append((a.intersect(b), Enclosure(lo, hi)))
    else:
        with pytest.raises(ValueError):
            a.intersect(b)
    base = a if n >= 0 else b
    if n >= 0 or not b.contains_zero():
        power = base.pow_int(n)
        assert power.contains(base.lo**n) and power.contains(base.hi**n)
        got.append((power, Enclosure(power.lo, power.hi)))
    # a float operand is read exactly, and no float reaches an end
    x = float(s) / 3
    got += [(a + x, a + F(x)), (x - a, F(x) - a), (a * x, a * F(x)), (Enclosure.point(x), Enclosure(F(x), F(x)))]
    got.append((Enclosure(-abs(x), abs(x)), Enclosure(-abs(F(x)), abs(F(x)))))
    if x:
        got.append((a / x, a / F(x)))
    for result, checked in got:
        _assert_well_formed(result)
        assert result == checked


def _ref_sign(lo, hi):
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0 if lo == hi == 0 else None


@settings(deadline=None, max_examples=400)
@given(encodings(), encodings(), ends)
def test_integer_methods_match_the_fraction_formulas(a, b, s):
    """Every decision the class makes on its integers against the same
    decision on its reduced ``Fraction`` ends, for unreduced operands."""
    lo, hi = a.lo, a.hi
    w = abs(F(s))
    assert a.floor_unique() == (lo.__floor__() if lo.__floor__() == hi.__floor__() else None)
    assert a.sign() == _ref_sign(lo, hi)
    assert a.is_point() == (lo == hi) and a.contains_zero() == (lo <= 0 <= hi)
    assert (a.width, a.mid) == (hi - lo, (lo + hi) / 2)
    assert a.width_le(w) == (hi - lo <= w)
    for other, olo, ohi in ((s, s, s), (b, b.lo, b.hi)):
        assert a.strictly_lt(other) == (hi < olo)
        assert a.strictly_gt(other) == (lo > ohi)
        assert a.le_certain(other) == (hi <= olo)
        assert a.ge_certain(other) == (lo >= ohi)
        assert a.contains(other) == (lo <= olo and ohi <= hi)
    # nearest_int's step: floor(lo + 1/2), unless hi reaches the next half
    m = (lo + F(1, 2)).__floor__()
    assert (a + F(1, 2)).floor_unique() == (None if hi >= m + F(1, 2) else m)
    assert is_separated(a) == (lo * hi > 0 and hi - lo <= min(abs(lo), abs(hi)) / (1 << SEPARATION_BITS))
    assert _certified_prefix(a) == _certified_prefix(Enclosure(lo, hi))


@settings(deadline=None, max_examples=200)
@given(ends, ends, factors)
def test_encodings_of_one_value_are_equal_and_hash_and_pickle_alike(x, y, g):
    reduced, scaled = Enclosure(min(x, y), max(x, y)), _encode(min(x, y), max(x, y), g)
    assert reduced == scaled and hash(reduced) == hash(scaled)
    assert pickle.dumps(reduced) == pickle.dumps(scaled) and repr(reduced) == repr(scaled)
    for twin in (copy.copy(scaled), copy.deepcopy(scaled), pickle.loads(pickle.dumps(scaled))):
        assert twin == reduced and hash(twin) == hash(reduced)


@settings(deadline=None, max_examples=200)
@given(encodings(), ends, ends, factors)
def test_intersect_of_nested_enclosures_returns_the_inner_operand(inner, s, t, g):
    assume(s or t)  # a proper superset; one end may be shared
    outer = _encode(inner.lo - abs(F(s)), inner.hi + abs(F(t)), g)
    assert outer.intersect(inner) is inner and inner.intersect(outer) is inner


@pytest.mark.parametrize(
    "spec, growth",
    [(f"const:{name}", 2) for name in sorted(CATALOG)]
    + [("affine:7/2/-2/1:affine:-6/1:const:e", 2)],
)
def test_enclose_denominators_stay_within_the_level_read(spec, growth):
    # a level_for(k) < 2k enclosure is computed at its level plus a working
    # pad and cut by the coarser cached ones: denominators never accumulate
    oracle = parse_oracle(spec)
    for j in range(15):
        for k in sorted({2**j - 1, 2**j, 2**j + 1, 3 * 2**j // 2} - {0}):
            d = oracle.enclose(k).d
            assert d.bit_length() <= growth * max(k, 32) + 64, (k, d.bit_length())


def test_arithmetic():
    a = Enclosure(F(1), F(2))
    b = Enclosure(F(-1), F(3))
    assert (a + b) == Enclosure(F(0), F(5))
    assert (a - b) == Enclosure(F(-2), F(3))
    assert (a * b) == Enclosure(F(-2), F(6))
    assert (-a) == Enclosure(F(-2), F(-1))
    assert (a + 1) == Enclosure(F(2), F(3))
    assert (3 * a) == Enclosure(F(3), F(6))
    assert (a * -2) == Enclosure(F(-4), F(-2))
    assert (1 - a) == Enclosure(F(-1), F(0))


def test_mul_contains_products():
    a = Enclosure(F(-3, 2), F(1, 3))
    b = Enclosure(F(-2), F(5, 7))
    prod = a * b
    for x in (a.lo, a.hi, a.mid):
        for y in (b.lo, b.hi, b.mid):
            assert prod.contains(x * y)


def test_division_and_recip():
    a = Enclosure(F(1), F(2))
    assert a.recip() == Enclosure(F(1, 2), F(1))
    assert (a / 2) == Enclosure(F(1, 2), F(1))
    assert (a / Enclosure(F(2), F(4))) == Enclosure(F(1, 4), F(1))
    with pytest.raises(ZeroDivisionError):
        Enclosure(F(-1), F(1)).recip()
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_abs_and_sign():
    assert Enclosure(F(-3), F(-1)).abs() == Enclosure(F(1), F(3))
    assert Enclosure(F(-2), F(5)).abs() == Enclosure(F(0), F(5))
    assert Enclosure(F(1), F(2)).sign() == 1
    assert Enclosure(F(-2), F(-1)).sign() == -1
    assert Enclosure(F(0), F(0)).sign() == 0
    assert Enclosure(F(-1), F(1)).sign() is None


def test_pow_int():
    a = Enclosure(F(-2), F(3))
    assert a.pow_int(2) == Enclosure(F(-6), F(9))  # interval square, not range
    assert a.pow_int(0) == Enclosure.point(1)
    assert Enclosure(F(1, 2), F(2)).pow_int(-1) == Enclosure(F(1, 2), F(2))
    assert Enclosure(F(2), F(3)).pow_int(3) == Enclosure(F(8), F(27))


def test_intersect_hull():
    a = Enclosure(F(0), F(2))
    b = Enclosure(F(1), F(3))
    assert a.intersect(b) == Enclosure(F(1), F(2))
    assert a.hull(b) == Enclosure(F(0), F(3))
    with pytest.raises(ValueError):
        a.intersect(Enclosure(F(5), F(6)))


def test_order_predicates():
    a = Enclosure(F(0), F(1))
    b = Enclosure(F(2), F(3))
    assert a.strictly_lt(b) and b.strictly_gt(a)
    assert a.le_certain(2) and b.ge_certain(F(3, 2))
    assert not a.strictly_lt(Enclosure(F(1, 2), F(4)))


def test_floor_unique():
    assert Enclosure(F(3, 2), F(7, 4)).floor_unique() == 1
    assert Enclosure(F(3, 2), F(5, 2)).floor_unique() is None
    assert Enclosure(F(-3, 2), F(-5, 4)).floor_unique() == -2


@pytest.mark.parametrize("x", [F(1, 3), F(7, 5), F(355, 113), F(0)])
def test_dyadic_bounds(x):
    lo = dyadic_below(x, 30)
    hi = dyadic_above(x, 30)
    assert lo <= x <= hi
    assert hi - lo <= F(2, 1 << 30)
    assert (lo * (1 << 30)).denominator == 1
    assert (hi * (1 << 30)).denominator == 1


def test_dyadic_exact_passthrough():
    assert dyadic_below(F(3, 4), 10) == F(3, 4)
    assert dyadic_above(F(3, 4), 10) == F(3, 4)


@pytest.mark.parametrize("x", [2, 3, F(2, 3), F(10007, 13)])
def test_sqrt_enclosure(x):
    e = sqrt_enclosure(x, 80)
    assert e.lo >= 0
    assert e.lo * e.lo <= x <= e.hi * e.hi
    assert e.width <= F(2, 1 << 80)


def test_sqrt_directed_bounds():
    assert sqrt_lower(2, 20) ** 2 <= 2
    assert sqrt_upper(2, 20) ** 2 >= 2
    with pytest.raises(ValueError):
        sqrt_lower(-1, 10)


def test_iroot():
    assert iroot(0, 5) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(28, 3) == 3
    assert iroot(10**30, 1) == 10**30
    assert iroot(2**64 - 1, 2) == 2**32 - 1
    n = 7**40
    assert iroot(n, 40) == 7
    assert iroot(n - 1, 40) == 6
    with pytest.raises(ValueError):
        iroot(-1, 2)


@pytest.mark.parametrize("x,k", [(F(7, 3), 3), (2, 5), (F(1, 1000), 4)])
def test_root_enclosure(x, k):
    e = root_enclosure(x, k, 60)
    assert e.lo ** k <= x <= e.hi ** k
    assert e.width <= F(2, 1 << 60)


def test_root_enclosure_of_interval():
    inner = Enclosure(F(8), F(27))
    e = root_enclosure(inner, 3, 60)
    assert e.lo <= 2 and e.hi >= 3


def test_as_integers_keeps_an_int_list_and_converts_any_other():
    xs = [3, -1, 10**40]
    got = as_integers(iter(xs))
    assert got == xs and all(type(x) is int for x in got)
    # one element that is not an int sends the whole list through as_integer
    got = as_integers([1, True, 2.0, F(7), 5])
    assert got == [1, 1, 2, 7, 5] and all(type(x) is int for x in got)
    with pytest.raises(PreconditionError, match="is not an integer"):
        as_integers([1, 2, F(5, 2)])
