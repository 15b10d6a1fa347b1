"""Real-number oracles with certified enclosures.

An oracle stands for one well-defined real number and can produce arbitrarily
tight rational enclosures of it on demand. Requests are rounded up to dyadic
precision levels (64, 128, 256, ...). A raw enclosure is computed only at a level
asked for above every cached one, cut by the finest cached enclosure, and a lower
request reads the nearest cached level above it: answers always nest.
That is the one rule of :meth:`RealOracle.enclose`. An affine map a*x + b
keeps it at level_for(k + the bits of |a|), its raw enclosure the map of its
inner oracle's at that level; a map of a map is composed when built, so it
reads its innermost oracle through one layer. A continued-fraction oracle
draws its quotients from one iterator, built with it, into its cache.

Every certified decision on those enclosures climbs that level ladder
through :func:`refine`, up to the precision cap :data:`PRECISION_CAP`, which
the CLI's ``--precision-cap`` sets for one command. Exactly rational values
are decided exactly, without the ladder, on the ``value`` an oracle sets
when built (None unless rational).

The string grammar accepted by :func:`parse_oracle`:

    rat:<p>/<q>
    const:<name>         (sqrt2, sqrt3, sqrt5, golden, log2, zeta2, zeta3, e)
    cf:[a0;a1,a2,...]
    cf:[a0;a1,...]+periodic:[b1,...]
    cf:liouville:<B>
    affine:<a>/<b>:<oracle>

Rationals may be written p/q, as plain integers, or as exact decimal strings.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from contextvars import ContextVar
from functools import cached_property
from fractions import Fraction
from itertools import chain, cycle, islice, pairwise
from math import factorial, isqrt
from typing import Optional

from .enclosure import Enclosure, Rat, as_integer, as_integers, as_rational, sqrt_enclosure
from .certlog import _atanh_inv
from .errors import HalfInteger, Inconclusive, PreconditionError, Unrepresentable, brief

DEFAULT_PRECISION_CAP = 1 << 20
PRECISION_CAP = ContextVar("dioph_precision_cap", default=DEFAULT_PRECISION_CAP)
_MIN_LEVEL = 64
SEPARATION_BITS = 48


def refine(step, what, stats=None, start: int = 0):
    """First decision ``step(k)`` that is not None, climbing the level ladder.

    Rungs k = max(start, 64), then doubling, while they stay within the context's
    :data:`PRECISION_CAP`; each one is reported to ``stats.bump_bits`` when
    ``stats`` is given. ``False`` and ``0`` are decisions. Raises INCONCLUSIVE
    naming ``what``, or ``what()`` if callable, once the next would pass the cap.
    """
    cap = PRECISION_CAP.get()
    k = max(start, _MIN_LEVEL)
    while k <= cap:
        if stats is not None:
            stats.bump_bits(k)
        got = step(k)
        if got is not None:
            return got
        k *= 2
    raise Inconclusive(what() if callable(what) else what, cap)


def is_separated(enc: Enclosure) -> bool:
    """Whether ``enc``'s distance from zero exceeds its width by a factor of
    2**S, S = SEPARATION_BITS: mirrored to lo > 0, hi 2**S <= lo (2**S + 1)."""
    l, h = enc.l, enc.h
    if h < 0:
        l, h = -h, -l
    return l > 0 and h << SEPARATION_BITS <= l * ((1 << SEPARATION_BITS) + 1)


def separated(enclose_at, what) -> Enclosure:
    """First ``enclose_at(k)`` on the ladder that :func:`is_separated`."""

    def step(k):
        enc = enclose_at(k)
        return enc if is_separated(enc) else None

    return refine(step, what)


def level_for(k: int) -> int:
    return max(_MIN_LEVEL, 1 << (k - 1).bit_length())


class RealOracle:
    """Base class. Subclasses implement ``_raw(L)`` with width <= 2**-(L - _extra).

    Each instance caches its canonical enclosures per level and the certified
    continued-fraction quotients of its value (never their convergents), so
    the caches live and die with the oracle. Where the quotients come from is
    :meth:`_more_quotients`, which subclasses with another source override.
    """

    spec: str = "?"
    value: Optional[Fraction] = None  # the exact value of a rational oracle
    _extra = 0  # bits added to k before its level is picked: an affine map's |a|

    def __init__(self):
        self._canon: dict[int, Enclosure] = {}
        # certified CF quotients, whether they are the whole expansion, the level
        # that certified them, and their last two convergents, where Euclid resumes
        self._cf_quotients: list[int] = []
        self._cf_ended = False
        self._cf_level = 0
        self._cf_tail = SEEDS
        # the window search's descent chain of its last surrogate (dichotomy._Descent)
        self._descent = None

    def _raw(self, k: int) -> Enclosure:
        raise NotImplementedError

    def enclose(self, k: int) -> Enclosure:
        """Canonical enclosure with width <= 2**-k, monotone in k: at L =
        level_for(k + _extra), the raw one cut by the finest cached one, or a
        cached one at or above L."""
        if k < 1:
            raise PreconditionError("BAD_PRECISION", f"precision {k} must be >= 1")
        L = level_for(k + self._extra)
        canon = self._canon
        got = canon.get(L)
        if got is None:
            top = max(canon, default=0)
            if L < top:
                got = canon[min(lv for lv in canon if lv > L)]
            else:
                got = canon[top].intersect(self._raw(L)) if top else self._raw(L)
            canon[L] = got
        return got

    def within(self, width: Fraction, what, stats=None) -> Enclosure:
        """The first canonical enclosure no wider than ``width`` on the ladder from
        k = bits(ceil(1/width)), where 2**-k < width, or from the top level within
        the precision cap if that is lower, so no other level is computed."""
        n = -(-width.denominator // width.numerator)
        start = min(n.bit_length(), 1 << (PRECISION_CAP.get().bit_length() - 1))
        return refine(lambda k: e if (e := self.enclose(k)).width_le(width) else None, what, stats, start)

    def exact_value(self) -> Optional[Fraction]:
        """The exact rational value when the oracle is rational, else None."""
        return self.value

    def cf_quotients(self, count: int):
        """(quotients, ended): the cached certified CF quotients, first
        extended to ``count`` of them unless the expansion ends sooner, and
        whether they are the whole (finite) expansion."""
        if len(self._cf_quotients) < count and not self._cf_ended:
            self._more_quotients(count)
        return self._cf_quotients, self._cf_ended

    def _more_quotients(self, count: int):
        """Extend the quotient cache to ``count`` quotients or to its end:
        Euclid on canonical enclosures, resumed past the cached quotients from
        the rung one level above the top cached level holding the enclosure
        they were read from (an affine oracle's inner level), so they nest in
        it; a point, a rational value's, ends it. INCONCLUSIVE at the cap."""

        def step(k):
            tail, enc = self._cf_tail, self.enclose(k)
            quots = _certified_prefix(enc, tail)
            self._cf_quotients += quots
            self._cf_tail = tuple(deque(chain(tail, convergent_pairs(quots, tail)), maxlen=2))
            self._cf_level = max(lv for lv, e in self._canon.items() if e is enc)
            self._cf_ended = enc.l == enc.h
            return True if self._cf_ended or len(self._cf_quotients) >= count else None

        refine(
            step, f"CF expansion of {self.spec} stalled at depth {count - 1}",
            start=2 * self._cf_level - self._extra,
        )

    def __repr__(self):
        return f"<oracle {self.spec}>"


SEEDS = ((0, 1), (1, 0))


def convergent_pairs(quots, seeds=SEEDS):
    """Yield the convergents (p, q) of ``quots``, the quotients after those
    whose last two convergents are ``seeds`` (by default, from a_0)."""
    (p0, q0), (p1, q1) = seeds
    for a in quots:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield p1, q1


def _certified_prefix(enc: Enclosure, seeds=SEEDS) -> list:
    """CF quotients common to every point of ``enc`` after those whose last
    two convergents are ``seeds``, which every point of ``enc`` must share.

    Each endpoint x maps to its complete quotient (p0 - q0 x)/(q1 x - p1)
    through the last two convergents; one equal to p1/q1 has no quotient
    after them. Euclid runs on both at once and stops at the first quotient
    they disagree on, or once either expansion has ended.
    """
    (p0, q0), (p1, q1) = seeds
    (p, q), (r, s) = [(p0 * enc.d - q0 * x, q1 * x - p1 * enc.d) for x in (enc.l, enc.h)]
    if q == 0 or s == 0:
        return []
    quots = []
    while True:
        a, x = divmod(p, q)
        b, y = divmod(r, s)
        if a != b:
            return quots
        quots.append(a)
        if x == 0 or y == 0:
            return quots
        p, q, r, s = q, x, s, y


class RationalOracle(RealOracle):
    def __init__(self, value: Rat, spec: Optional[str] = None):
        super().__init__()
        self.value = as_rational(value, "BAD_RATIONAL")
        self.spec = spec or f"rat:{self.value.numerator}/{self.value.denominator}"

    def _raw(self, k: int) -> Enclosure:
        return Enclosure.point(self.value)


class SqrtOracle(RealOracle):
    def __init__(self, n: int, name: str):
        super().__init__()
        self.n = n
        self.spec = f"const:{name}"

    def _raw(self, k: int) -> Enclosure:
        return sqrt_enclosure(self.n, k + 2)


class GoldenOracle(RealOracle):
    spec = "const:golden"

    def _raw(self, k: int) -> Enclosure:
        s = sqrt_enclosure(5, k + 4)
        return (s + 1) * Fraction(1, 2)


def _series_pad(k: int) -> int:
    """Working-precision pad: the k.bit_length() extra bits keep the floor
    ulps of the terms, whose count grows linearly in k, below 2**-k."""
    return 8 + (k + 8).bit_length()


class Log2Oracle(RealOracle):
    spec = "const:log2"

    def _raw(self, k: int) -> Enclosure:
        """ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), each
        bound of :func:`certlog._atanh_inv` taken at the end its sign calls
        for: about 0.19 w terms in all, where certlog's atanh(1/31),
        atanh(1/49) and atanh(1/161), which give ln 3 and ln 5 too, take 0.26 w."""
        w = k + _series_pad(k)
        (a, na), (b, nb), (c, nc) = (_atanh_inv(m, w) for m in (26, 4801, 8749))
        lo = 18 * a - 2 * (b + nb + 2) + 8 * c
        return Enclosure.from_ints(lo, lo + 18 * (na + 2) + 2 * (nb + 2) + 8 * (nc + 2), 1 << w)


def _series_fixed(t1: int, ratio, weight):
    """(total, N): the sum of W(n) tau_n for the integer terms tau_1 = t1,
    tau_(n+1) = floor(tau_n p / q) with (p, q) = ratio(n), up to the first zero
    one tau_N, and W = ``weight``, positive and nondecreasing in n.

    Where |p/q| <= 1/4 and |p/q| W(n+1)/W(n) <= 1/2, e_n = |tau_n - T_n| for
    the true terms T_n has e_1 = 0 and e_(n+1) <= e_n/4 + 1, so e_n < 4/3:
    |T_N| < 4/3, the weighted tail from T_N is below 2 W(N) 4/3, the summed
    terms are off by under (N - 1) W(N) 4/3, and the true weighted sum is
    within 2 (N + 1) W(N) of the total, and above it where p, q > 0 (tau_n <=
    T_n)."""
    total, term, n = 0, t1, 1
    while term:
        total += weight(n) * term
        p, q = ratio(n)
        term = term * p // q
        n += 1
    return total, n


def _chudnovsky(a: int, b: int):
    """(P, Q, T) of the terms j = a .. b-1 of Chudnovsky's series
    S = sum a_j, a_j = (-1)**j (6j)! L(j) / ((3j)! (j!)**3 640320**(3j)),
    L(j) = 13591409 + 545140134 j, by binary splitting. With p_0 = q_0 = 1 and
    p_j/q_j = (6j-5)(2j-1)(6j-1) / (j**3 640320**3/24) = -a_j L(j-1) /
    (a_(j-1) L(j)), P and Q are the products of the p_j and of the q_j, and
    T/Q = sum (-1)**j L(j) P(a, j+1)/Q(a, j+1). So T(0, n)/Q(0, n) is the
    partial sum S_n of the first n terms, and a_(n-1) = (-1)**(n-1) L(n-1) P/Q."""
    if b - a == 1:
        p, q = (1, 1) if a == 0 else ((6 * a - 5) * (2 * a - 1) * (6 * a - 1), a**3 * 10939058860032000)
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _pi_fixed(w: int):
    """(lo, hi) integers with lo/2**w <= pi <= hi/2**w and hi - lo <= 3, from
    pi = 426880 sqrt(10005) / S, S as in :func:`_chudnovsky`.

    S's terms alternate in sign and shrink, so S lies between the partial sums
    S_N and S_(N+1), here A/Q and B/Q with A <= B from a split of N + 1 terms,
    compared as integers; every partial sum from S_1 on is above a_0 - |a_1| >
    2**23. As (6j-5)(2j-1)(6j-1) < 72 j**3, B - A = Q |a_N| with |a_N| < L(N)
    (72 * 24 / 640320**3)**N < 2**30 N 2**(-47.1 N); N = w // 47 + 2 gives
    47.1 N > w + 48, so (B - A)/B < 2**-(w + 3) for N < 2**37. With
    s = isqrt(10005 * 4**w) <= sqrt(10005) 2**w < s + 1, the bounds
    426880 s Q/B and 426880 (s + 1) Q/A are under 426880 s Q (B - A)/(A B) +
    426880 Q/A < 1 + 1/16 apart, and the floor and the ceiling below add under
    1 each."""
    n = w // 47 + 3
    p, q, t = _chudnovsky(0, n)
    last = p * (13591409 + 545140134 * (n - 1))
    a, b = sorted((t, t - last if n & 1 else t + last))
    s = isqrt(10005 << 2 * w)
    return 426880 * s * q // b, -(-426880 * (s + 1) * q // a)


class EOracle(RealOracle):
    spec = "const:e"

    def _raw(self, k: int) -> Enclosure:
        w = k + _series_pad(k)
        term, total, n = 1 << w, 0, 1
        while term:
            total, term, n = total + term, term // n, n + 1
        return Enclosure.from_ints(total, total + n + 2, 1 << w)


class Zeta2Oracle(RealOracle):
    """pi**2 / 6, pi from :func:`_pi_fixed` at w = k + 3, squared at both ends
    and rounded outward to 2**-w: hi - lo <= 3 and hi + lo <= 2 pi 2**w + 3
    put the width below (hi - lo)(hi + lo) / (6 * 4**w) + 2 * 2**-w < 8 * 2**-w."""

    spec = "const:zeta2"

    def _raw(self, k: int) -> Enclosure:
        w = k + 3
        lo, hi = _pi_fixed(w)
        d = 6 << w
        return Enclosure.from_ints(lo * lo // d, -(-hi * hi // d), 1 << w)


class Zeta3Oracle(RealOracle):
    """(1/64) sum_(n>=1) (-1)**(n-1) ((n-1)!)**10 W(n) / ((2n-1)!)**5 with
    W(n) = 205 n**2 - 160 n + 32 (Amdeberhan and Zeilberger), by
    :func:`_series_fixed` with term ratio -n**5 / (32 (2n+1)**5).

    That ratio is below 2**-10 and W(n+1)/W(n) <= W(2)/W(1) < 7, so the slack
    2 (N+1) W(N) holds, and N < w/10 + 5. As W(N) < 205 N**2, the slack is
    below 410 (w/10 + 6)**3 < 2**(13 + 3 bits(k + 8)) at w = k + 8 + 3 bits(k +
    8), so the width 2 slack / (64 * 2**w) is at most 2**-k."""

    spec = "const:zeta3"

    def _raw(self, k: int) -> Enclosure:
        def weight(n):
            return (205 * n - 160) * n + 32

        w = k + 8 + 3 * (k + 8).bit_length()
        total, n = _series_fixed(1 << w, lambda n: (-n**5, 32 * (2 * n + 1) ** 5), weight)
        slack = 2 * (n + 1) * weight(n)
        return Enclosure.from_ints(total - slack, total + slack, 64 << w)


class CFOracle(RealOracle):
    """Value defined by its continued-fraction quotients.

    One quotient supply, an iterator built here and drawn into the quotient
    cache: a finite explicit list (the value is rational, and the cache holds
    the whole expansion from the start), an explicit prefix followed by a
    repeating periodic block, or the rule a_j = B**(j!) for j >= 1 with a_0 =
    0, truncated at a configurable index bound (quotients past the bound raise
    UNREPRESENTABLE since their sizes grow beyond any usable precision).
    Quotients, base and bound are checked here to be integers (BAD_CF), a
    list of ints in one pass; the canonical spec is built on first read.
    """

    LIOUVILLE_DEFAULT_CAP = 8

    def __init__(self, prefix, periodic=None, liouville_base=None, liouville_cap=None):
        super().__init__()
        self.liouville_base = liouville_base
        cap = self.LIOUVILLE_DEFAULT_CAP if liouville_cap is None else liouville_cap
        self.liouville_cap = as_integer(cap, "BAD_CF", "liouville cap")
        self._last_pair = (0, 0, SEEDS)  # within's last (n, quotients read, convergent pair)
        if liouville_base is not None:
            self.liouville_base = base = as_integer(liouville_base, "BAD_CF", "liouville base")
            if base < 2:
                raise PreconditionError("BAD_CF", f"liouville base {base} must be >= 2")
            powers = (base ** factorial(j) for j in range(1, self.liouville_cap + 1))
            self._supply = chain([0], powers)
            return
        self._prefix = prefix = as_integers(prefix, "BAD_CF", "quotient")
        if not prefix:
            raise PreconditionError("BAD_CF", "empty quotient list")
        if prefix[0] < 0:
            raise PreconditionError("BAD_CF", "a0 must be >= 0")
        if min(islice(prefix, 1, None), default=1) < 1:
            raise PreconditionError("BAD_CF", "quotients after a0 must be >= 1")
        self._block = block = as_integers(periodic or (), "BAD_CF", "quotient")
        if block:
            if min(block) < 1:
                raise PreconditionError("BAD_CF", "periodic quotients must be >= 1")
            self._supply = chain(prefix, cycle(block))
        else:
            # the whole expansion at once; its value p/q is folded from the last
            # quotient back, p/q = a + 1/(p/q), starting from 1/0
            self._supply = iter(())
            self._cf_quotients, self._cf_ended = prefix, True
            p, q = 1, 0
            for a in reversed(prefix):
                p, q = a * p + q, p
            self.value = Fraction(p, q)

    @cached_property
    def spec(self) -> str:
        """The canonical spec, built on first read."""
        if self.liouville_base is not None:
            return f"cf:liouville:{self.liouville_base}"
        a0, *rest = self._prefix
        spec = f"cf:[{a0};{','.join(map(str, rest))}]" if rest else f"cf:[{a0}]"
        if self._block:
            spec += "+periodic:[" + ",".join(map(str, self._block)) + "]"
        return spec

    def _more_quotients(self, count: int):
        # the supply is exact; only a truncated Liouville supply runs short
        quots = self._cf_quotients
        quots += islice(self._supply, count - len(quots))
        if (j := len(quots)) < count:
            raise Unrepresentable(f"liouville quotient index {j} exceeds the bound {self.liouville_cap}")

    def _quotients(self, j: int = 0):
        """The quotients from a_j, read through the cache, then drawn from the
        supply into it up to the supply's end."""
        quots = self._cf_quotients
        yield from quots[j:]
        for a in self._supply:
            quots.append(a)
            yield a

    def _raw(self, k: int) -> Enclosure:
        return self.within(Fraction(1, 1 << k)) if self.value is None else Enclosure.point(self.value)

    def within(self, width: Fraction, what=None, stats=None) -> Enclosure:
        """The first two consecutive convergents p/q with q_(j-1) q_j >= 1/width,
        off the level ladder, so a truncated supply serves every width it reaches.

        xi lies between them, as |xi - p_j/q_j| < 1/(q_j q_(j+1)). Their bit
        lengths, summing to b, put q_(j-1) q_j in [2**(b - 2), 2**b); it is
        formed only where that cannot decide it against n = ceil(1/width).
        A width no wider than the last one resumes from the pair it returned.
        Its precision, k = bits(n) as :meth:`RealOracle.within` starts from,
        goes to ``stats.bump_bits`` when ``stats`` is given."""
        n = -(-width.denominator // width.numerator)
        n_bits = n.bit_length()
        if stats is not None:
            stats.bump_bits(n_bits)
        _, j, seeds = self._last_pair if n >= self._last_pair[0] else (0, 0, SEEDS)
        for (p0, q0), (p1, q1) in pairwise(chain(seeds, convergent_pairs(self._quotients(j), seeds))):
            b = q0.bit_length() + q1.bit_length()
            if b > n_bits + 1 or (b >= n_bits and q0 * q1 >= n):
                self._last_pair = n, j, ((p0, q0), (p1, q1))
                a, c = p0 * q1, p1 * q0
                return Enclosure.from_ints(min(a, c), max(a, c), q0 * q1)
            j += 1
        bits = (n - 1).bit_length()
        raise Unrepresentable(f"{self.spec}: available quotients give width above 2**-{bits}")


class AffineOracle(RealOracle):
    """a * inner + b. An affine inner oracle is composed away, so the map
    reads its innermost oracle through one layer, at the bits of |a| more."""

    def __init__(self, a: Rat, b: Rat, inner: RealOracle):
        super().__init__()
        self.a = as_rational(a, "BAD_AFFINE", "scale")
        self.b = as_rational(b, "BAD_AFFINE", "shift")
        if self.a.numerator == 0:
            raise PreconditionError("BAD_AFFINE", "scale a must be nonzero")
        self.spec = (
            f"affine:{self.a.numerator}/{self.a.denominator}"
            f"/{self.b.numerator}/{self.b.denominator}:{inner.spec}"
        )
        if isinstance(inner, AffineOracle):
            self.a, self.b, inner = self.a * inner.a, self.a * inner.b + self.b, inner.inner
        self.inner = inner
        if inner.value is not None:
            self.value = self.a * inner.value + self.b
        self._extra = (abs(self.a.numerator) // self.a.denominator + 1).bit_length() + 2

    def _raw(self, k: int) -> Enclosure:
        return self.inner.enclose(k) * self.a + self.b


CATALOG = {
    "sqrt2": lambda: SqrtOracle(2, "sqrt2"),
    "sqrt3": lambda: SqrtOracle(3, "sqrt3"),
    "sqrt5": lambda: SqrtOracle(5, "sqrt5"),
    "golden": GoldenOracle,
    "log2": Log2Oracle,
    "zeta2": Zeta2Oracle,
    "zeta3": Zeta3Oracle,
    "e": EOracle,
}


def parse_rational(text: str) -> Fraction:
    """p/q, integer, or exact decimal string."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError("BAD_RATIONAL", f"cannot parse rational {text!r}") from exc


_CF_LIST = re.compile(r"^\[(-?\d+)(?:;((?:\d+)(?:,\d+)*))?\]$")
_INT_LIST = re.compile(r"^\[(\d+(?:,\d+)*)\]$")


def _parse_cf_body(body: str):
    """The quotients of ``[a0;a1,...]`` as ints."""
    m = _CF_LIST.match(body.strip())
    if not m:
        raise PreconditionError("BAD_CF", f"cannot parse CF list {body!r}")
    a0, rest = m.groups()
    return _quotients([a0, *rest.split(",")] if rest else [a0])


def _parse_int_list(body: str):
    m = _INT_LIST.match(body.strip())
    if not m:
        raise PreconditionError("BAD_CF", f"cannot parse quotient block {body!r}")
    return _quotients(m.group(1).split(","))


def _quotients(digits) -> list:
    """Matched digit strings as ints; BAD_CF past Python's int/str digit limit."""
    try:
        return list(map(int, digits))
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise PreconditionError("BAD_CF", f"quotient past Python's {limit}-digit int limit") from exc


def parse_oracle(spec: str) -> RealOracle:
    s = spec.strip()
    if s.startswith("rat:"):
        return RationalOracle(parse_rational(s[4:]))
    if s.startswith("const:"):
        name = s[6:].strip()
        if name not in CATALOG:
            raise PreconditionError(
                "BAD_CONST", f"unknown constant {name!r}; have {sorted(CATALOG)}"
            )
        return CATALOG[name]()
    if s.startswith("cf:"):
        rest = s[3:]
        if rest.startswith("liouville:"):
            base = rest[len("liouville:"):]
            try:
                base = int(base)
            except ValueError as exc:
                raise PreconditionError(
                    "BAD_CF", f"liouville base {base!r} is not an integer"
                ) from exc
            return CFOracle(None, liouville_base=base)
        if "+periodic:" in rest:
            head, tail = rest.split("+periodic:", 1)
            return CFOracle(_parse_cf_body(head), periodic=_parse_int_list(tail))
        return CFOracle(_parse_cf_body(rest))
    if s.startswith("affine:"):
        rest = s[7:]
        idx = rest.find(":")
        if idx < 0:
            raise PreconditionError("BAD_AFFINE", f"missing inner oracle in {spec!r}")
        head, inner = rest[:idx], rest[idx + 1:]
        fields = head.split("/")
        if len(fields) == 2:
            a, b = parse_rational(fields[0]), parse_rational(fields[1])
        elif len(fields) == 4:
            try:
                a = Fraction(int(fields[0]), int(fields[1]))
                b = Fraction(int(fields[2]), int(fields[3]))
            except (ValueError, ZeroDivisionError) as exc:
                raise PreconditionError(
                    "BAD_AFFINE", f"{head!r} needs four integers, nonzero denominators"
                ) from exc
        else:
            raise PreconditionError(
                "BAD_AFFINE",
                f"{head!r} is ambiguous; use a/b with integers or "
                "a_num/a_den/b_num/b_den",
            )
        return AffineOracle(a, b, parse_oracle(inner))
    raise PreconditionError("BAD_ORACLE", f"cannot parse oracle spec {spec!r}")


def sign_of_form(oracle: RealOracle, q: Rat, p: Rat) -> int:
    """Certified sign of q*xi - p; INCONCLUSIVE if the cap is reached first."""
    return refine(
        lambda k: (oracle.enclose(k) * q - p).sign(),
        lambda: f"sign of {brief(q)}*({oracle.spec}) - {brief(p)} undecided",
    )


def nearest_int(oracle: RealOracle, u: Rat, accept=None):
    """(v, dist) with v the certified nearest integer to u*xi.

    ``dist`` is an enclosure of |u*xi - v| from the first level that decides
    v and, when ``accept`` is given, passes ``accept(dist)``; a point
    enclosure, a rational value's, gives the exact distance, untested.
    Exactly half-integer products (only possible for rational oracles) raise
    HALF_INTEGER since the nearest integer is then ill-defined.
    """
    def step(k):
        enc = oracle.enclose(k) * u
        # floor(x + 1/2) = (2 l + d) // (2 d) at both ends of [l/d, h/d]
        d2 = 2 * enc.d
        m = (2 * enc.l + enc.d) // d2
        if m != (2 * enc.h + enc.d) // d2:
            return None
        dist = (enc - m).abs()
        if dist.is_point() and 2 * dist.l == dist.d:
            raise HalfInteger(f"{brief(u)}*{oracle.spec} is exactly half-integral")
        return (m, dist) if accept is None or dist.is_point() or accept(dist) else None

    return refine(step, lambda: f"nearest integer to {brief(u)}*({oracle.spec}) undecided")


def floor_certified(oracle: RealOracle) -> int:
    return refine(
        lambda k: oracle.enclose(k).floor_unique(),
        f"floor of {oracle.spec} undecided",
    )
