"""Real-number oracles with certified enclosures.

An oracle stands for one well-defined real number and can produce arbitrarily
tight rational enclosures of it on demand. Requests are rounded up to dyadic
precision levels (64, 128, 256, ...) and the published enclosure at a level is
the intersection of the raw enclosures at every level up to it, so refinement
is monotone: higher-precision answers always nest inside lower-precision ones.

Every certified decision on those enclosures climbs that level ladder
through :func:`refine`, up to the precision cap :data:`PRECISION_CAP`, which
the CLI's ``--precision-cap`` sets for one command. Exactly rational values
are decided exactly, without the ladder.

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
from contextvars import ContextVar
from fractions import Fraction
from math import factorial
from typing import Optional

from .enclosure import Enclosure, Rat, _frac, sqrt_enclosure
from .certlog import _ln2_fixed
from .errors import HalfInteger, Inconclusive, PreconditionError, Unrepresentable

DEFAULT_PRECISION_CAP = 1 << 20
PRECISION_CAP = ContextVar("dioph_precision_cap", default=DEFAULT_PRECISION_CAP)
_MIN_LEVEL = 64
SEPARATION_BITS = 48


def refine(step, what: str, stats=None, start: int = 0):
    """First decision ``step(k)`` that is not None, climbing the level ladder.

    Levels max(start, 64), then doubling, while they stay within the context's
    :data:`PRECISION_CAP`; each one is reported to ``stats.bump_bits`` when
    ``stats`` is given. ``False`` and ``0`` are decisions. Raises INCONCLUSIVE
    naming ``what`` once the next level would pass the cap.
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
    raise Inconclusive(what, cap)


def separated(enclose_at, what: str, start: int = 0) -> Enclosure:
    """First ``enclose_at(k)``, from level ``start`` up, whose distance from
    zero exceeds its width by a factor of 2**SEPARATION_BITS."""

    def step(k):
        enc = enclose_at(k)
        a = enc.abs()
        if a.lo > 0 and a.width <= a.lo / (1 << SEPARATION_BITS):
            return enc
        return None

    return refine(step, what, start=start)


def level_for(k: int) -> int:
    L = _MIN_LEVEL
    while L < k:
        L *= 2
    return L


class RealOracle:
    """Base class. Subclasses implement ``_raw(k)`` with width <= 2**-k.

    Each instance caches its canonical enclosures per level, the certified
    continued-fraction quotients of its value and their convergents, so the
    caches live and die with the oracle. Where the quotients come from is
    :meth:`_more_quotients`, which subclasses with another source override.
    """

    spec: str = "?"

    def __init__(self):
        self._canon: dict[int, Enclosure] = {}
        # certified CF quotients, whether they are the whole expansion, the
        # level that certified them, and their convergents (p, q)
        self._cf_quotients: list[int] = []
        self._cf_ended = False
        self._cf_level = 0
        self._conv: list[tuple[int, int]] = []

    def _raw(self, k: int) -> Enclosure:
        raise NotImplementedError

    def enclose(self, k: int) -> Enclosure:
        """Canonical enclosure with width <= 2**-k, monotone in k."""
        if k < 1:
            raise PreconditionError("BAD_PRECISION", f"precision {k} must be >= 1")
        L = level_for(k)
        got = self._canon.get(L)
        if got is not None:
            return got
        levels = [L]
        while levels[-1] > _MIN_LEVEL:
            levels.append(levels[-1] // 2)
        acc = None
        for lv in reversed(levels):
            cached = self._canon.get(lv)
            if cached is not None:
                acc = cached
                continue
            raw = self._raw(lv)
            acc = raw if acc is None else acc.intersect(raw)
            self._canon[lv] = acc
        return self._canon[L]

    def exact_value(self) -> Optional[Fraction]:
        """The exact rational value when the oracle is rational, else None."""
        return None

    def quotient_count(self) -> Optional[int]:
        """Number of quotients a truncated quotient generator supplies, else None."""
        return None

    def cf_quotients(self, count: int):
        """(quotients, ended): the cached certified CF quotients, first
        extended to ``count`` of them unless the expansion ends sooner, and
        whether they are the whole (finite) expansion."""
        if len(self._cf_quotients) < count and not self._cf_ended:
            self._more_quotients(count)
        return self._cf_quotients, self._cf_ended

    def cf_convergents(self, count: int) -> list:
        """The cached convergents (p_j, q_j), one per cached quotient, first
        extended to ``count`` of them unless the expansion ends sooner."""
        quots, _ = self.cf_quotients(count)
        return extend_convergents(self._conv, quots[len(self._conv):])

    def _more_quotients(self, count: int):
        """Extend the quotient cache to ``count`` quotients or to its end:
        Euclid on a rational point value, else resumed past the cached
        quotients on canonical enclosures from one level above the cached one,
        which nest in it (INCONCLUSIVE at the precision cap)."""
        v = self.exact_value()
        if v is not None:
            self._cf_quotients, self._cf_ended = _certified_prefix(Enclosure.point(v)), True
            return

        def step(k):
            self._cf_quotients += _certified_prefix(self.enclose(k), self.cf_convergents(0))
            self._cf_level = k
            return True if len(self._cf_quotients) >= count else None

        refine(
            step, f"CF expansion of {self.spec} stalled at depth {count - 1}",
            start=2 * self._cf_level,
        )

    def __repr__(self):
        return f"<oracle {self.spec}>"


def _last_two(conv) -> list:
    """The last two convergents (p, q) of ``conv`` after the seeds 0/1, 1/0."""
    return [(0, 1), (1, 0), *conv[-2:]][-2:]


def extend_convergents(conv: list, quots) -> list:
    """Append to the convergents (p, q) in ``conv`` those of ``quots``, the
    quotients after the ones it covers, from the seeds 0/1, 1/0 when empty."""
    (p0, q0), (p1, q1) = _last_two(conv)
    for a in quots:
        p1, q1, p0, q0 = a * p1 + p0, a * q1 + q0, p1, q1
        conv.append((p1, q1))
    return conv


def _certified_prefix(enc: Enclosure, conv=()) -> list:
    """CF quotients common to every point of ``enc`` after those whose
    convergents are ``conv``, which every point of ``enc`` must share.

    Each endpoint x maps to its complete quotient (p0 - q0 x)/(q1 x - p1)
    through the last two convergents; one equal to p1/q1 has no quotient
    after them. Euclid runs on both at once and stops at the first quotient
    they disagree on, or once either expansion has ended.
    """
    (p0, q0), (p1, q1) = _last_two(conv)
    (p, q), (r, s) = [
        (p0 * x.denominator - q0 * x.numerator, q1 * x.numerator - p1 * x.denominator)
        for x in (enc.lo, enc.hi)
    ]
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
        self.value = _frac(value)
        self.spec = spec or f"rat:{self.value.numerator}/{self.value.denominator}"

    def _raw(self, k: int) -> Enclosure:
        return Enclosure.point(self.value)

    def exact_value(self) -> Optional[Fraction]:
        return self.value


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
    """Working-precision pad absorbing one truncation ulp per series term.

    Term counts grow linearly in the bit budget, so a constant pad stops
    meeting the width contract once k is large; k.bit_length() extra bits
    keep (terms * ulp) below 2**-k at every k.
    """
    return 8 + (k + 8).bit_length()


class Log2Oracle(RealOracle):
    spec = "const:log2"

    def _raw(self, k: int) -> Enclosure:
        w = k + _series_pad(k)
        lo, hi = _ln2_fixed(w)
        sc = Fraction(1, 1 << w)
        return Enclosure(lo * sc, hi * sc)


class EOracle(RealOracle):
    spec = "const:e"

    def _raw(self, k: int) -> Enclosure:
        w = k + _series_pad(k)
        term = 1 << w
        total = term
        n = 1
        while term:
            term //= n
            total += term
            n += 1
        sc = Fraction(1, 1 << w)
        return Enclosure(total * sc, (total + n + 2) * sc)


class Zeta2Oracle(RealOracle):
    """3 * sum 1/(n^2 C(2n,n)); term ratio < 1/4 gives the tail bound."""

    spec = "const:zeta2"

    def _raw(self, k: int) -> Enclosure:
        w = k + _series_pad(k)
        c = 1
        total = 0
        n = 1
        while True:
            c = c * (2 * (2 * n - 1)) // n
            t = (1 << w) // (n * n * c)
            if t == 0:
                break
            total += t
            n += 1
        sc = Fraction(3, 1 << w)
        return Enclosure(total * sc, (total + n + 2) * sc)


class Zeta3Oracle(RealOracle):
    """(5/2) * sum (-1)^(n-1)/(n^3 C(2n,n)), alternating."""

    spec = "const:zeta3"

    def _raw(self, k: int) -> Enclosure:
        w = k + _series_pad(k)
        c = 1
        total = 0
        sign = 1
        n = 1
        while True:
            c = c * (2 * (2 * n - 1)) // n
            t = (1 << w) // (n * n * n * c)
            if t == 0:
                break
            total += sign * t
            sign = -sign
            n += 1
        slack = n + 2
        sc = Fraction(5, 2 << w)
        return Enclosure((total - slack) * sc, (total + slack) * sc)


class CFOracle(RealOracle):
    """Value defined by its continued-fraction quotients.

    Three quotient sources: a finite explicit list (the value is rational and
    the expansion terminates), an explicit prefix followed by a repeating
    periodic block, or the rule a_j = B**(j!) for j >= 1 with a_0 = 0,
    truncated at a configurable index bound (quotients past the bound raise
    UNREPRESENTABLE since their sizes grow beyond any usable precision).
    """

    LIOUVILLE_DEFAULT_CAP = 8

    def __init__(self, prefix, periodic=None, liouville_base=None, liouville_cap=None):
        super().__init__()
        self.periodic = list(periodic) if periodic else None
        self.liouville_base = liouville_base
        self.liouville_cap = (
            self.LIOUVILLE_DEFAULT_CAP if liouville_cap is None else liouville_cap
        )
        if liouville_base is not None:
            if liouville_base < 2:
                raise PreconditionError(
                    "BAD_CF", f"liouville base {liouville_base} must be >= 2"
                )
            self.prefix = [0]
            self.spec = f"cf:liouville:{liouville_base}"
        else:
            self.prefix = [int(a) for a in prefix]
            if not self.prefix:
                raise PreconditionError("BAD_CF", "empty quotient list")
            if self.prefix[0] < 0:
                raise PreconditionError("BAD_CF", "a0 must be >= 0")
            if any(a < 1 for a in self.prefix[1:]):
                raise PreconditionError("BAD_CF", "quotients after a0 must be >= 1")
            body = ";".join(
                [str(self.prefix[0])] + ([",".join(map(str, self.prefix[1:]))] if len(self.prefix) > 1 else [])
            )
            self.spec = f"cf:[{body}]"
            if self.periodic:
                if any(a < 1 for a in self.periodic):
                    raise PreconditionError("BAD_CF", "periodic quotients must be >= 1")
                self.spec += "+periodic:[" + ",".join(map(str, self.periodic)) + "]"
        self._value = None
        if self.is_finite():
            # the whole expansion at once: quotients, convergents and value
            self._cf_quotients, self._cf_ended = self.prefix, True
            self._value = Fraction(*self.cf_convergents(0)[-1])

    def is_finite(self) -> bool:
        return self.periodic is None and self.liouville_base is None

    def quotient(self, j: int) -> int:
        if self.liouville_base is not None:
            if j == 0:
                return 0
            if j > self.liouville_cap:
                raise Unrepresentable(
                    f"liouville quotient index {j} exceeds the bound "
                    f"{self.liouville_cap}"
                )
            return self.liouville_base ** factorial(j)
        if j < len(self.prefix):
            return self.prefix[j]
        if self.periodic:
            return self.periodic[(j - len(self.prefix)) % len(self.periodic)]
        raise IndexError(j)

    def quotient_count(self) -> Optional[int]:
        """Number of quotients when finite or truncated, else None."""
        if self.is_finite():
            return len(self.prefix)
        if self.liouville_base is not None:
            return self.liouville_cap + 1
        return None

    def _more_quotients(self, count: int):
        # the generator is exact; a finite CF is complete from construction
        quots = self._cf_quotients
        for j in range(len(quots), count):
            quots.append(self.quotient(j))

    def _raw(self, k: int) -> Enclosure:
        if self._value is not None:
            return Enclosure.point(self._value)
        n, j = self.quotient_count(), 1
        while n is None or j < n:
            (p0, q0), (p1, q1) = self.cf_convergents(j + 1)[j - 1:j + 1]
            if q0 * q1 >= 1 << k:
                a, b = Fraction(p0, q0), Fraction(p1, q1)
                return Enclosure(min(a, b), max(a, b))
            j += 1
        raise Unrepresentable(f"{self.spec}: available quotients give width above 2**-{k}")

    def exact_value(self) -> Optional[Fraction]:
        return self._value


class AffineOracle(RealOracle):
    def __init__(self, a: Rat, b: Rat, inner: RealOracle):
        super().__init__()
        self.a = _frac(a)
        self.b = _frac(b)
        if self.a == 0:
            raise PreconditionError("BAD_AFFINE", "scale a must be nonzero")
        self.inner = inner
        self.spec = (
            f"affine:{self.a.numerator}/{self.a.denominator}"
            f"/{self.b.numerator}/{self.b.denominator}:{inner.spec}"
        )

    def _raw(self, k: int) -> Enclosure:
        extra = (abs(self.a.numerator) // self.a.denominator + 1).bit_length() + 2
        return self.inner.enclose(k + extra) * self.a + self.b

    def exact_value(self) -> Optional[Fraction]:
        v = self.inner.exact_value()
        return None if v is None else self.a * v + self.b


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
    m = _CF_LIST.match(body.strip())
    if not m:
        raise PreconditionError("BAD_CF", f"cannot parse CF list {body!r}")
    quots = [int(m.group(1))]
    if m.group(2):
        quots.extend(int(x) for x in m.group(2).split(","))
    return quots


def _parse_int_list(body: str):
    m = _INT_LIST.match(body.strip())
    if not m:
        raise PreconditionError("BAD_CF", f"cannot parse quotient block {body!r}")
    return [int(x) for x in m.group(1).split(",")]


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
    q = _frac(q)
    p = _frac(p)
    v = oracle.exact_value()
    if v is not None:
        t = q * v - p
        return (t > 0) - (t < 0)
    return refine(
        lambda k: (oracle.enclose(k) * q - p).sign(),
        f"sign of {q}*({oracle.spec}) - {p} undecided",
    )


def nearest_int(oracle: RealOracle, u: Rat):
    """(v, dist) with v the certified nearest integer to u*xi.

    ``dist`` is an enclosure of |u*xi - v|. Exactly half-integer products (only
    possible for rational oracles) raise HALF_INTEGER since the nearest
    integer is then ill-defined.
    """
    u = _frac(u)
    half = Fraction(1, 2)
    v = oracle.exact_value()
    if v is not None:
        t = u * v
        twice = 2 * t
        if twice.denominator == 1 and twice.numerator % 2 != 0:
            raise HalfInteger(f"{u}*{oracle.spec} is exactly half-integral")
        m = (t + half).__floor__()
        return m, Enclosure.point(abs(t - m))

    def step(k):
        enc = oracle.enclose(k) * u
        m = (enc.lo + half).__floor__()
        return (m, (enc - m).abs()) if enc.hi < m + half else None

    return refine(step, f"nearest integer to {u}*({oracle.spec}) undecided")


def floor_certified(oracle: RealOracle) -> int:
    v = oracle.exact_value()
    if v is not None:
        return v.__floor__()
    return refine(
        lambda k: oracle.enclose(k).floor_unique(),
        f"floor of {oracle.spec} undecided",
    )
