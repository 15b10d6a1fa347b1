"""Exact rational interval arithmetic.

An :class:`Enclosure` is a closed interval with ``Fraction`` endpoints that is
guaranteed to contain the (possibly irrational) number under discussion. All
operations are outward-correct: the result interval contains every attainable
value, with no floating point anywhere. The constructor checks lo <= hi; the
class's own results, ordered ``Fraction`` pairs by construction, skip it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Enclosure:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise ValueError(f"empty enclosure [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"an Enclosure is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is Enclosure and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return Enclosure, (self.lo, self.hi)

    @staticmethod
    def point(x: Rat) -> "Enclosure":
        f = _frac(x)
        return _make(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Rat) -> bool:
        f = _frac(x)
        return self.lo <= f <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self):
        """-1, 0 or +1 when certain, None while the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __neg__(self) -> "Enclosure":
        return _make(-self.hi, -self.lo)

    def __add__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return _make(self.lo + other.lo, self.hi + other.hi)
        f = _frac(other)
        return _make(self.lo + f, self.hi + f)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return _make(self.lo - other.hi, self.hi - other.lo)
        f = _frac(other)
        return _make(self.lo - f, self.hi - f)

    def __rsub__(self, other) -> "Enclosure":
        return (-self) + other

    def __mul__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            prods = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return _make(min(prods), max(prods))
        f = _frac(other)
        if f >= 0:
            return _make(self.lo * f, self.hi * f)
        return _make(self.hi * f, self.lo * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return self * other.recip()
        f = _frac(other)
        if f == 0:
            raise ZeroDivisionError("division of enclosure by zero")
        return self * (1 / f)

    def recip(self) -> "Enclosure":
        if self.contains_zero():
            raise ZeroDivisionError("reciprocal of enclosure containing zero")
        return _make(1 / self.hi, 1 / self.lo)

    def abs(self) -> "Enclosure":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return _make(Fraction(0), max(-self.lo, self.hi))

    def pow_int(self, e: int) -> "Enclosure":
        if e < 0:
            return self.recip().pow_int(-e)
        out = Enclosure.point(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("disjoint enclosures have no intersection")
        return _make(lo, hi)

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def strictly_lt(self, other) -> bool:
        """Certified ``x < y`` for every x here and y there."""
        if isinstance(other, Enclosure):
            return self.hi < other.lo
        return self.hi < _frac(other)

    def strictly_gt(self, other) -> bool:
        if isinstance(other, Enclosure):
            return self.lo > other.hi
        return self.lo > _frac(other)

    def le_certain(self, other) -> bool:
        if isinstance(other, Enclosure):
            return self.hi <= other.lo
        return self.hi <= _frac(other)

    def ge_certain(self, other) -> bool:
        if isinstance(other, Enclosure):
            return self.lo >= other.hi
        return self.lo >= _frac(other)

    def floor_unique(self):
        """The common floor of every point, or None if not yet determined."""
        flo = self.lo.__floor__()
        fhi = self.hi.__floor__()
        return flo if flo == fhi else None

    def __repr__(self):
        return f"Enclosure({self.lo!r}, {self.hi!r})"


_set_lo, _set_hi = Enclosure.lo.__set__, Enclosure.hi.__set__


def _make(lo: Fraction, hi: Fraction) -> Enclosure:
    """The unchecked constructor, for ``Fraction`` ends with lo <= hi."""
    e = object.__new__(Enclosure)
    _set_lo(e, lo)
    _set_hi(e, hi)
    return e


def dyadic_below(x: Rat, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= x."""
    f = _frac(x)
    return Fraction((f.numerator << bits) // f.denominator, 1 << bits)


def dyadic_above(x: Rat, bits: int) -> Fraction:
    f = _frac(x)
    num = -((-f.numerator << bits) // f.denominator)
    return Fraction(num, 1 << bits)


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, exact."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    r = 1 << (n.bit_length() // k + 1)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > n:
        r -= 1
    return r


def root_lower(x: Rat, k: int, bits: int) -> Fraction:
    """Dyadic lower bound of x ** (1/k) for x >= 0."""
    f = _frac(x)
    if f < 0:
        raise ValueError("root of a negative rational")
    scaled = (f.numerator << (k * bits)) // f.denominator
    return Fraction(iroot(scaled, k), 1 << bits)


def root_upper(x: Rat, k: int, bits: int) -> Fraction:
    f = _frac(x)
    if f < 0:
        raise ValueError("root of a negative rational")
    scaled = -((-f.numerator << (k * bits)) // f.denominator)
    r = iroot(scaled, k)
    if r**k < scaled:
        r += 1
    return Fraction(r, 1 << bits)


def root_enclosure(x: "Enclosure | Rat", k: int, bits: int) -> Enclosure:
    if isinstance(x, Enclosure):
        return Enclosure(root_lower(x.lo, k, bits), root_upper(x.hi, k, bits))
    return Enclosure(root_lower(x, k, bits), root_upper(x, k, bits))


def sqrt_lower(x: Rat, bits: int) -> Fraction:
    return root_lower(x, 2, bits)


def sqrt_upper(x: Rat, bits: int) -> Fraction:
    return root_upper(x, 2, bits)


def sqrt_enclosure(x: Rat, bits: int) -> Enclosure:
    return root_enclosure(x, 2, bits)
