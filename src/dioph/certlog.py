"""Certified natural logarithm with directed rational bounds.

``ln_frac(x, k)`` returns an :class:`Enclosure` of ln(x) for rational x > 0
with width at most about 2**-k. The reduction works on the integer pair,
x = N/D = 2**e * n/d with n/d in [1, 2), and ln(n/d) = 2 atanh((n-d)/(n+d))
is summed in fixed point with per-term directed rounding and an explicit ulp
budget, ln 2 from 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), each
atanh(1/m) summed by dividing by m**2 and by the odd numbers; both are added
as integers over 2**w, with no Fraction arithmetic. No floating point is
involved, so results are deterministic and safe for certificates.
"""

from __future__ import annotations

from functools import lru_cache

from .enclosure import Enclosure, Rat, _frac


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _atanh_inv(m: int, w: int):
    """(s, n): s <= atanh(1/m) 2**w < s + n + 2 for an integer m >= 2, n the
    number of terms summed.

    p_j = floor(2**w / m**(2j+1)) exactly, as floor(floor(x)/d) = floor(x/d),
    and writing p_j = (2j+1) q + r with r <= 2j, the true term
    2**w / ((2j+1) m**(2j+1)) < (p_j + 1)/(2j+1) <= q + 1: each summed term q
    is below its true term by under 1 and never above it. The first p_n = 0
    puts the true p_n below 1 and the tail from it below 1/(1 - m**-2) < 2."""
    s, p, odd, m2 = 0, (1 << w) // m, 1, m * m
    while p:
        s += p // odd
        p //= m2
        odd += 2
    return s, odd // 2


@lru_cache(maxsize=None)
def _ln2_fixed(w: int):
    """(lo, hi) integers with lo/2^w <= ln 2 <= hi/2^w, from ln 2 =
    18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749) and the bounds of
    :func:`_atanh_inv`, each taken at the end its sign calls for."""
    (a, na), (b, nb), (c, nc) = (_atanh_inv(m, w) for m in (26, 4801, 8749))
    lo = 18 * a - 2 * (b + nb + 2) + 8 * c
    return lo, lo + 18 * (na + 2) + 2 * (nb + 2) + 8 * (nc + 2)


def log2_lo(x: int, b: int) -> int:
    """An integer r with r / 2**b <= log2 x and 2**(r + 2) > x**(2**b), x >= 1.

    With x = 2**e m, m in [1, 2), start at r = e and y = floor(m 2**P); b
    times square y with a floor and double r, then halve y and add 1 to r if
    y >= 2**(P + 1). So y stays in [2**P, 2**(P + 1)) and (r + log2(y/2**P))
    / 2**i <= log2 x after i squarings, floors only lowering y. One step's
    floors lose under 3 * 2**-P of that sum, doubled by each later squaring:
    with P = b + 8, r ends below 2**b log2 x by under 1 + 2**-5."""
    P, r = b + 8, x.bit_length() - 1
    y = (x << P) >> r
    for _ in range(b):
        y, r = (y * y) >> P, 2 * r
        if y >> (P + 1):
            y, r = y >> 1, r + 1
    return r


def _atanh_fixed(num: int, den: int, w: int):
    """(lo, hi) integers bounding atanh(num/den) * 2^w, for 0 <= num/den <= 1/3."""
    if num == 0:
        return 0, 0
    z_lo = (num << w) // den
    z_hi = _ceil_div(num << w, den)
    z2_lo = (z_lo * z_lo) >> w
    z2_hi = _ceil_div(z_hi * z_hi, 1 << w)
    p_lo, p_hi = z_lo, z_hi
    sum_lo = 0
    sum_hi = 0
    terms = 0
    odd = 1
    while p_hi > 1:
        sum_lo += p_lo // odd
        sum_hi += _ceil_div(p_hi, odd)
        p_lo = (p_lo * z2_lo) >> w
        p_hi = _ceil_div(p_hi * z2_hi, 1 << w)
        odd += 2
        terms += 1
    # Tail after the last added term: geometric with ratio z^2 <= 1/9, so the
    # remaining mass is below 2 * p_hi <= 2; add the per-term flooring budget.
    return sum_lo, sum_hi + terms + 4


def ln_frac(x: Rat, k: int) -> Enclosure:
    """Enclosure of ln(x) for rational x > 0, width about 2**-k."""
    f = _frac(x)
    if f <= 0:
        raise ValueError("ln of a nonpositive rational")
    # equal bit lengths put n/d in (1/2, 2)
    e = f.numerator.bit_length() - f.denominator.bit_length()
    n, d = f.numerator << max(-e, 0), f.denominator << max(e, 0)
    if n < d:
        e -= 1
        n *= 2
    w = k + 32 + abs(e).bit_length()
    lo2, hi2 = _ln2_fixed(w)
    lo, hi = (lo2 * e, hi2 * e) if e >= 0 else (hi2 * e, lo2 * e)
    if n != d:
        alo, ahi = _atanh_fixed(n - d, n + d, w)
        lo += 2 * alo
        hi += 2 * ahi
    return Enclosure.from_ints(lo, hi, 1 << w)


def ln_enclosure(x, k: int) -> Enclosure:
    """Enclosure of ln over a rational point or an Enclosure with lo > 0."""
    if isinstance(x, Enclosure):
        if not x.strictly_gt(0):
            raise ValueError("ln of an enclosure touching (-inf, 0]")
        if x.is_point():
            return ln_frac(x.lo, k)
        return Enclosure(ln_frac(x.lo, k).lo, ln_frac(x.hi, k).hi)
    return ln_frac(x, k)
