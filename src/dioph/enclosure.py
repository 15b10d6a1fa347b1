"""Exact rational interval arithmetic.

An :class:`Enclosure` is a closed interval guaranteed to contain the
(possibly irrational) number under discussion, as integers ``l <= h`` over one
denominator ``d`` > 0, left unreduced: its outward-correct arithmetic,
compares, floors and width tests run on integers, with no gcd and no float (a
float operand is read exactly). ``lo`` and ``hi`` are the reduced
``Fraction`` ends. The constructors check lo <= hi; the class's results skip it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import PreconditionError

Rat = Union[int, Fraction]


def as_rational(x, code: str = "BAD_PARAMS", what: str = "value") -> Fraction:
    """``x`` as a Fraction, unchanged if it is one, read exactly from an int,
    a finite float or another finite number; anything else, a string too, raises ``code``."""
    if x.__class__ is Fraction:
        return x
    if not isinstance(x, str):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise PreconditionError(code, f"{what} {x!r} is not a finite rational")


def as_integer(x, code: str = "BAD_PARAMS", what: str = "value") -> int:
    """``x`` as an int, unchanged if it is one, or an integral value such as
    2.0 or Fraction(4); anything else, 2.5 or a string, raises ``code``."""
    if x.__class__ is int:
        return x
    try:
        n = int(x)
        if n == x:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise PreconditionError(code, f"{what} {x!r} is not an integer")


def as_integers(xs, code: str = "BAD_PARAMS", what: str = "value") -> list:
    """``xs`` as a new list of ints by :func:`as_integer`, in one pass if all
    are ints; ``xs`` not iterable raises ``code`` too."""
    try:
        xs = list(xs)
    except TypeError as exc:
        raise PreconditionError(code, f"{what} list {xs!r} is not iterable") from exc
    for x in xs:
        if x.__class__ is not int:
            return [as_integer(x, code, what) for x in xs]
    return xs


def _ends(x):
    """(lo, hi, den) of an Enclosure, or of a rational x as the point (n, n, m)."""
    if x.__class__ is Enclosure:
        return x.l, x.h, x.d
    if x.__class__ is int:
        return x, x, 1
    x = x if x.__class__ is Fraction else Fraction(x)
    return x.numerator, x.numerator, x.denominator


class Enclosure:
    __slots__ = ("l", "h", "d")

    def __init__(self, lo: Rat, hi: Rat):
        lo, hi = (as_rational(x, "BAD_PARAMS", "enclosure end") for x in (lo, hi))
        (ln, _, ld), (hn, _, hd) = _ends(lo), _ends(hi)
        if ld != hd:
            ln, hn, ld = ln * hd, hn * ld, ld * hd
        if ln > hn:
            raise ValueError(f"empty enclosure [{Fraction(ln, ld)}, {Fraction(hn, ld)}]")
        _set_l(self, ln)
        _set_h(self, hn)
        _set_d(self, ld)

    @staticmethod
    def from_ints(l: int, h: int, d: int) -> "Enclosure":
        """[l/d, h/d] for integers l <= h and d > 0, kept unreduced."""
        if not (d > 0 and l <= h):
            raise ValueError(f"need l <= h and d > 0, got ({l}, {h}, {d})")
        return _make(l, h, d)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"an Enclosure is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    lo = property(lambda self: Fraction(self.l, self.d))
    hi = property(lambda self: Fraction(self.h, self.d))

    def __eq__(self, other):
        return other.__class__ is Enclosure and (
            self.l * other.d == other.l * self.d and self.h * other.d == other.h * self.d
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return Enclosure, (self.lo, self.hi)

    @staticmethod
    def point(x: Rat) -> "Enclosure":
        n, _, m = _ends(x)
        return _make(n, n, m)

    @property
    def width(self) -> Fraction:
        return Fraction(self.h - self.l, self.d)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.l + self.h, 2 * self.d)

    def width_le(self, w: Fraction) -> bool:
        return (self.h - self.l) * w.denominator <= w.numerator * self.d

    def is_point(self) -> bool:
        return self.l == self.h

    def contains(self, x) -> bool:
        """Whether x, a rational or every point of an Enclosure, lies in here."""
        xl, xh, xd = _ends(x)
        return self.l * xd <= xl * self.d and xh * self.d <= self.h * xd

    def contains_zero(self) -> bool:
        return self.l <= 0 <= self.h

    def sign(self):
        """-1, 0 or +1 when certain, None while the interval straddles zero."""
        if self.l > 0:
            return 1
        if self.h < 0:
            return -1
        if self.l == self.h == 0:
            return 0
        return None

    def __neg__(self) -> "Enclosure":
        return _make(-self.h, -self.l, self.d)

    def __add__(self, other) -> "Enclosure":
        ol, oh, od = _ends(other)
        l, h, d = self.l, self.h, self.d
        return _make(l * od + ol * d, h * od + oh * d, d * od)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        ol, oh, od = _ends(other)
        l, h, d = self.l, self.h, self.d
        return _make(l * od - oh * d, h * od - ol * d, d * od)

    def __rsub__(self, other) -> "Enclosure":
        return (-self) + other

    def __mul__(self, other) -> "Enclosure":
        ol, oh, od = _ends(other)
        l, h = self.l, self.h
        d = self.d if od == 1 else self.d * od
        if ol == oh:
            return _make(l * ol, h * ol, d) if ol >= 0 else _make(h * ol, l * ol, d)
        prods = (l * ol, l * oh, h * ol, h * oh)
        return _make(min(prods), max(prods), d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        if other.__class__ is Enclosure:
            return self * other.recip()
        n, _, m = _ends(other)
        if n == 0:
            raise ZeroDivisionError("division of enclosure by zero")
        return self * (_make(m, m, n) if n > 0 else _make(-m, -m, -n))

    def recip(self) -> "Enclosure":
        if self.contains_zero():
            raise ZeroDivisionError("reciprocal of enclosure containing zero")
        l, h, d = self.l, self.h, self.d
        # 1/hi = d l/(l h) <= 1/lo = d h/(l h), with l h > 0
        return _make(d * l, d * h, l * h)

    def abs(self) -> "Enclosure":
        if self.l >= 0:
            return self
        if self.h <= 0:
            return -self
        return _make(0, max(-self.l, self.h), self.d)

    def pow_int(self, e: int) -> "Enclosure":
        if e < 0:
            return self.recip().pow_int(-e)
        out, base = _make(1, 1, 1), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def intersect(self, other: "Enclosure") -> "Enclosure":
        """The common part; an operand itself when it nests in the other."""
        d, od, empty = self.d, other.d, "disjoint enclosures have no intersection"
        return _join(self, other, _cmp(self.l * od, other.l * d), _cmp(other.h * d, self.h * od), empty)

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def max(self, other: "Enclosure") -> "Enclosure":
        """Enclosure of max(x, y) for x here and y in ``other``."""
        d, od = self.d, other.d
        return _join(self, other, _cmp(self.l * od, other.l * d), _cmp(self.h * od, other.h * d))

    def strictly_lt(self, other) -> bool:
        """Certified ``x < y`` for every x here and y there."""
        ol, _, od = _ends(other)
        return self.h * od < ol * self.d

    def strictly_gt(self, other) -> bool:
        _, oh, od = _ends(other)
        return self.l * od > oh * self.d

    def le_certain(self, other) -> bool:
        ol, _, od = _ends(other)
        return self.h * od <= ol * self.d

    def ge_certain(self, other) -> bool:
        _, oh, od = _ends(other)
        return self.l * od >= oh * self.d

    def floor_unique(self):
        """The common floor of every point, or None if not yet determined."""
        f = self.l // self.d
        return f if f == self.h // self.d else None

    def __repr__(self):
        return f"Enclosure({self.lo!r}, {self.hi!r})"


_set_l, _set_h, _set_d = Enclosure.l.__set__, Enclosure.h.__set__, Enclosure.d.__set__


def _make(l: int, h: int, d: int) -> Enclosure:
    """The unchecked constructor, for integers l <= h over d > 0."""
    e = object.__new__(Enclosure)
    _set_l(e, l)
    _set_h(e, h)
    _set_d(e, d)
    return e


def _cmp(x: int, y: int) -> int:
    return (x > y) - (x < y)


def _join(a: Enclosure, b: Enclosure, lo_a: int, hi_a: int, empty=None) -> Enclosure:
    """a's lo if ``lo_a`` > 0 else b's, a's hi if ``hi_a`` > 0 else b's (0: equal): an operand
    itself where its ends do, else over one denominator; ValueError ``empty`` if they cross."""
    if lo_a >= 0 and hi_a >= 0:
        return a
    if lo_a <= 0 and hi_a <= 0:
        return b
    g = gcd(a.d, b.d)
    sa, sb = b.d // g, a.d // g
    lo = a.l * sa if lo_a > 0 else b.l * sb
    hi = a.h * sa if hi_a > 0 else b.h * sb
    if empty is not None and lo > hi:
        raise ValueError(empty)
    return _make(lo, hi, a.d * sa)


def dyadic_below(x: Rat, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= x, an int or a Fraction."""
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def dyadic_above(x: Rat, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


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


def _root_scaled(n: int, m: int, k: int, bits: int, up: bool) -> int:
    """The floor, or the ceiling if ``up``, of (n/m) ** (1/k) 2**bits, m > 0."""
    if n < 0:
        raise ValueError("root of a negative rational")
    scaled = -((-n << (k * bits)) // m) if up else (n << (k * bits)) // m
    r = iroot(scaled, k)
    return r + 1 if up and r**k < scaled else r


def root_lower(x: Rat, k: int, bits: int) -> Fraction:
    """Dyadic lower bound of x ** (1/k) for x >= 0."""
    n, _, m = _ends(x)
    return Fraction(_root_scaled(n, m, k, bits, False), 1 << bits)


def root_upper(x: Rat, k: int, bits: int) -> Fraction:
    n, _, m = _ends(x)
    return Fraction(_root_scaled(n, m, k, bits, True), 1 << bits)


def root_enclosure(x: "Enclosure | Rat", k: int, bits: int) -> Enclosure:
    """x ** (1/k), for a rational or an enclosure x, between ints over 2**bits."""
    l, h, d = _ends(x)
    return _make(_root_scaled(l, d, k, bits, False), _root_scaled(h, d, k, bits, True), 1 << bits)


def sqrt_lower(x: Rat, bits: int) -> Fraction:
    return root_lower(x, 2, bits)


def sqrt_upper(x: Rat, bits: int) -> Fraction:
    return root_upper(x, 2, bits)


def sqrt_enclosure(x: Rat, bits: int) -> Enclosure:
    return root_enclosure(x, 2, bits)
