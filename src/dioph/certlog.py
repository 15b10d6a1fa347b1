"""Certified natural logarithm with directed rational bounds.

``ln_frac(x, k)`` returns an :class:`Enclosure` of ln(x) for rational x > 0,
a number or an integer pair (N, D), with width at most 2**-k. The reduction
is table-driven (Tang, ACM TOMS 1990; Brent and Zimmermann, Modern Computer
Arithmetic, 4.2) and works on the integer pair: x = N/D = 2**e * n/d with
n/d in [1, 2), a 20-bit prefix of n/d picks the nearest ratio P/R = 2**i
3**j 5**l of a literal table, and

    ln x = (e + i) ln 2 + j ln 3 + l ln 5 + 2 atanh(z),
    z = (nR - dP)/(nR + dP), |z| < 1/97,

so the atanh series needs about 9 terms at k = 96, against about 41 with z
up to 1/3. ln 2, ln 3 and ln 5 are (14, 10, 6), (22, 16, 10) and (32, 24, 14)
times atanh(1/31), atanh(1/49) and atanh(1/161), three series summed once at
import at _W bits; a call cuts those immutable integers down with a shift,
and only above _W bits runs the series again. Everything is added as
integers over 2**w with directed floors and an explicit ulp budget: no
Fraction arithmetic, no floating point and no cache, so results are
deterministic and safe for certificates.

``ln_quotient`` is the one directed bound on a quotient of two log
enclosures (rate condition, tau, omega, mu), read at :data:`LOG_BITS` bits.

``log2_lo(x, b)`` is a separate, one-sided integer bound by repeated
squaring. omega0 takes two per record, one of q for its cap and its floor
and one of the cap's score excess, and divides two integers; on
``ln_frac(., 24)`` it would build three enclosures and divide Fractions, and
the forms benchmark's median latency rose by about 65 % that way.
"""

from __future__ import annotations

from bisect import bisect
from typing import Tuple, Union

from .enclosure import Enclosure, Rat

LOG_BITS = 96  # bits of every logarithm read at a fixed precision


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


def _atanh_frac(a: int, b: int, w: int):
    """(s, n): s <= atanh(a/b) 2**w < s + 2n + 2 for integers 0 <= a <= b/3,
    n the number of terms summed.

    With z = a/b, Z = z 2**w and U = z**2 2**w, the powers start at p_0 =
    floor(Z) and step p_(j+1) = floor(p_j u / 2**w) with u = floor(p_0**2 /
    2**w) <= U, so p_j <= P_j = z**(2j+1) 2**w, and U - u < 1 + 2z. Then e_j =
    P_j - p_j has e_0 < 1 and e_(j+1) < z**2 e_j + z (1 + 2z) + 1 <= e_j/9 +
    14/9, so e_j < 7/4; the summed term floor(p_j / (2j+1)) is below its true
    term by under e_j/3 + 1 < 2 (under 1 at j = 0). The first p_n = 0 leaves
    P_n < 2 and a tail from it below P_n / ((2n+1)(1 - z**2)) < 2."""
    p = (a << w) // b
    u = (p * p) >> w
    s, odd = 0, 1
    while p:
        s += p // odd
        p = (p * u) >> w
        odd += 2
    return s, odd // 2


_W = 512  # bits of the import-time logarithms


def _ln235_series(w: int):
    """[(lo, hi)] for ln 2, ln 3, ln 5: lo/2**w <= ln <= hi/2**w, from their
    positive combinations of atanh(1/31), atanh(1/49) and atanh(1/161)."""
    sums = [_atanh_inv(m, w) for m in (31, 49, 161)]
    out = []
    for row in ((14, 10, 6), (22, 16, 10), (32, 24, 14)):
        lo = sum(c * s for c, (s, _) in zip(row, sums))
        out.append((lo, lo + sum(c * (n + 2) for c, (_, n) in zip(row, sums))))
    return out


_LN235_W = tuple(_ln235_series(_W))


def _ln235(w: int):
    """[(lo, hi)] for ln 2, ln 3, ln 5 over 2**w: the import-time bounds with
    a floor and a ceiling shift, each at most 2 ulps wide for w <= _W - 12,
    or the series at w above _W."""
    if w > _W:
        return _ln235_series(w)
    s = _W - w
    return [(lo >> s, -(-hi >> s)) for lo, hi in _LN235_W]


# (P, R, i, j, l) with P/R = 2**i 3**j 5**l: 19 ratios of [1, 2), each with
# |i| + |j| + |l| <= 8, no two neighbours (nor 48/25 and 2) more than 25/24
# apart, then 2 itself
_RATIOS = (
    (1, 1, 0, 0, 0), (25, 24, -3, -1, 2), (16, 15, 4, -1, -1), (10, 9, 1, -2, 1),
    (125, 108, -2, -3, 3), (32, 27, 5, -3, 0), (100, 81, 2, -4, 2), (32, 25, 5, 0, -2),
    (4, 3, 2, -1, 0), (25, 18, -1, -2, 2), (36, 25, 2, 2, -2), (40, 27, 3, -3, 1),
    (125, 81, 0, -4, 3), (8, 5, 3, 0, -1), (5, 3, 0, -1, 1), (125, 72, -3, -2, 3),
    (16, 9, 4, -2, 0), (50, 27, 1, -3, 2), (48, 25, 4, 1, -2), (2, 1, 1, 0, 0),
)
# floor(2**20 sqrt(r r')) for neighbours r, r': a prefix floor(2**20 n/d) at
# or above the m-th split and below the next one picks ratio m + 1
_SPLITS = (
    1070198, 1105296, 1141544, 1189109, 1228106, 1268383, 1318142, 1369853, 1426931,
    1482910, 1531543, 1585479, 1647678, 1712317, 1783663, 1842160, 1902574, 1977213,
    2054780,
)


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


def ln_frac(x: Union[Rat, Tuple[int, int]], k: int) -> Enclosure:
    """Enclosure of ln(x) for x > 0 an int, a Fraction or a pair (n, d) of
    ints standing for n/d, d > 0, width at most 2**-k. A pair need not be
    reduced: the exponent, the prefix and the atanh floors below are floors
    of the value, so (n, d) and n/d give the same enclosure.

    The sum runs at w = k + g + bits(c) bits, c = |e + i| + |j| + |l| the
    weight of the constants and g = 16 (bits(k) + 3 from k = 8192 on). The
    constants' widths, each under 6.4 w + 220 ulps, add at most c of them,
    and 2 atanh(z) adds 4n + 4: in all under 2**(w - k) ulps."""
    n, d = x if x.__class__ is tuple else (x.numerator, x.denominator)
    if n <= 0:
        raise ValueError("ln of a nonpositive rational")
    # equal bit lengths put n/d in (1/2, 2)
    e = n.bit_length() - d.bit_length()
    n, d = n << max(-e, 0), d << max(e, 0)
    if n < d:
        e -= 1
        n *= 2
    P, R, i, j, l = _RATIOS[bisect(_SPLITS, (n << 20) // d)]
    e += i
    w = k + max(16, k.bit_length() + 3) + (abs(e) + abs(j) + abs(l)).bit_length()
    a = n * R - d * P
    lo = hi = 0
    if a:
        s, terms = _atanh_frac(abs(a), n * R + d * P, w)
        lo, hi = 2 * s, 2 * (s + 2 * terms + 2)
        if a < 0:
            lo, hi = -hi, -lo
    # near 1, e = j = l = 0: the constants would only be multiplied by 0
    for c, (c_lo, c_hi) in zip((e, j, l), _ln235(w) if e or j or l else ()):
        if c >= 0:
            lo, hi = lo + c * c_lo, hi + c * c_hi
        else:
            lo, hi = lo + c * c_hi, hi + c * c_lo
    return Enclosure.from_ints(lo, hi, 1 << w)


def ln_quotient(num: Enclosure, den: Enclosure, up: bool = False):
    """(p, q), q > 0, bounding num/den for enclosures ``num`` and ``den`` of
    two logs, num >= 0 < den: from above if ``up``, num's upper end over den's
    lower end, else from below, num's lower end over den's upper end; None
    where that end of den is not positive."""
    n, d = (num.h, den.l) if up else (num.l, den.h)
    return (n * den.d, num.d * d) if d > 0 else None


def ln_enclosure(x, k: int) -> Enclosure:
    """Enclosure of ln over a rational point or an Enclosure with lo > 0."""
    if isinstance(x, Enclosure):
        if not x.strictly_gt(0):
            raise ValueError("ln of an enclosure touching (-inf, 0]")
        if x.is_point():
            return ln_frac(x.lo, k)
        return Enclosure(ln_frac(x.lo, k).lo, ln_frac(x.hi, k).hi)
    return ln_frac(x, k)
