"""Two-case approximation dichotomy and fractional-window search.

Given parameters (c, c', eps, Q) with 1 < c < c', 0 < eps < 1, Q > 1 and a
real value xi, one of two certificates is produced:

- case (ii): an integer pair (q, p) with Q <= q <= c Q, p the nearest integer
  to q xi, and eps <= |q xi - p| < c' eps; searched first and returned with
  the smallest such q;
- case (i): a reduced fraction v/u with u below an explicit bound and
  |u xi - v| within an explicit distance bound, the first such among the
  convergents and semiconvergents of xi in increasing denominator order;
  that is always a convergent, so only convergents are checked.

The distance band of case (ii) translates into at most two windows for the
fractional part of q xi, one on each side of 1/2, each with its own endpoint
strictness. The window search is exact at every size: rational xi reduces to
a residue-class query, strict endpoints included, solved by Euclidean
descent in O(log) steps; irrational xi is replaced by a convergent surrogate
p_K/q_K, candidate q are enumerated in increasing order on its window
enlarged by its own error q/(q_K q_{K+1}), and each candidate is verified
against the true value with certified enclosures, so the first verified hit
is the true minimum. The surrogate and case (i) read the oracle's one cached
convergent list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .contfrac import Convergent, walk
from .enclosure import Enclosure, Rat, _frac
from .errors import (
    CertificateError,
    NeitherCaseCertified,
    PreconditionError,
    RangeTooLarge,
)
from .oracle import RealOracle, refine

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class LemmaParams:
    c: Fraction
    c_prime: Fraction
    eps: Fraction
    Q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", _frac(self.c))
        object.__setattr__(self, "c_prime", _frac(self.c_prime))
        object.__setattr__(self, "eps", _frac(self.eps))
        object.__setattr__(self, "Q", _frac(self.Q))
        if not (1 < self.c < self.c_prime < 2):
            raise PreconditionError(
                "BAD_PARAMS",
                f"need 1 < c < c' < 2, got c={self.c}, c'={self.c_prime}",
            )
        if not (0 < self.eps < 1):
            raise PreconditionError("BAD_PARAMS", f"need 0 < eps < 1, got {self.eps}")
        if not self.Q > 1:
            raise PreconditionError("BAD_PARAMS", f"need Q > 1, got {self.Q}")

    @property
    def bound_u(self) -> Fraction:
        """Denominator bound for case (i)."""
        c, cp = self.c, self.c_prime
        return (2 * c * c) / ((c - 1) * (cp - c)) / self.eps

    @property
    def dist_factor(self) -> Fraction:
        """B with |xi - v/u| <= B / (u Q), i.e. |u xi - v| <= B / Q."""
        c, cp = self.c, self.c_prime
        return (2 / (c - 1)) * (1 + c * c / (cp - c))


@dataclass(frozen=True)
class CaseIWitness:
    u: int
    v: int
    bound_u: Fraction
    bound_dist: Fraction


@dataclass(frozen=True)
class CaseIIWitness:
    q: int
    p: int  # nearest integer to q xi


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    precision_bits: int


@dataclass(frozen=True)
class DisjunctionResult:
    outcome: str  # "case_i" or "case_ii"
    witness: Union[CaseIWitness, CaseIIWitness]
    residual: Optional[Enclosure]  # enclosure of q xi - p for case (ii), signed
    stats: SearchStats


class _Stats:
    __slots__ = ("candidates", "bits")

    def __init__(self):
        self.candidates = 0
        self.bits = 0

    def bump_bits(self, k: int):
        if k > self.bits:
            self.bits = k

    def frozen(self) -> SearchStats:
        return SearchStats(self.candidates, self.bits)


def _first_hit(a: int, b: int, m: int, c: int) -> Optional[int]:
    """Minimal t >= 0 with (a t + b) mod m < c, or None. Euclidean descent.

    When a > m/2 the problem is mirrored first (y -> c - 1 - y maps the hit
    set onto itself with multiplier m - a), so the modulus at least halves
    every other level; without this the descent is linear in m when m/a has
    partial quotient 1. The descent is run on an explicit stack because the
    depth, though logarithmic, can exceed the interpreter limit for the
    enormous denominators of near-rational values.
    """
    if c <= 0:
        return None
    stack = []
    t = None
    while True:
        if c >= m:
            t = 0
            break
        a %= m
        b %= m
        if b < c:
            t = 0
            break
        if a == 0:
            break
        if 2 * a > m:
            a, b = m - a, (c - 1 - b) % m
            continue
        x0 = -((b - m) // a)  # ceil((m - b) / a), first wrap
        w1 = a * x0 + b - m
        if w1 < c:
            t = x0
            break
        r = (-m) % a
        stack.append((a, m, x0, w1, r))
        a, b, m = r, w1, a
    if t is None:
        return None
    while stack:
        a, m, x0, w1, r = stack.pop()
        wj = (w1 + t * r) % a
        t = x0 + (t * m + wj - w1) // a
    return t


def _residue_hits(a: int, m: int, q_lo: int, q_hi: int, window):
    """Yield ascending q in [q_lo, q_hi] with a q mod m in ``window(q)`` =
    (lo, hi) read cyclically: lo may be negative and hi past m - 1. The
    window is read again before each hit, so a caller may shrink it; at most
    DEFAULT_BUDGET hits are yielded, and one more raises RANGE_TOO_LARGE."""
    q, seen = q_lo, 0
    while q <= q_hi:
        lo, hi = window(q)
        t = _first_hit(a, (a * q - lo) % m, m, hi - lo + 1)
        if t is None or q + t > q_hi:
            return
        if seen == DEFAULT_BUDGET:
            raise RangeTooLarge(f"candidate stream exceeded budget {DEFAULT_BUDGET}")
        seen += 1
        yield q + t
        q += t + 1


def _frac_window_check(oracle, q, t_lo, t_hi, stats):
    """(hit, p) deciding whether frac(q xi) lies in [t_lo, t_hi] for
    irrational xi, whose membership is certified strictly inside the window.
    """
    stats.candidates += 1

    def step(k):
        enc = oracle.enclose(k) * q
        p = enc.floor_unique()
        if p is not None:
            f = enc - p
            if f.lo > t_lo and f.hi < t_hi:
                return True, p
            if f.hi < t_lo or f.lo > t_hi:
                return False, p
        return None

    return refine(step, f"window membership for q={q} undecided", stats)


def _surrogate(oracle: RealOracle, accuracy_den: int) -> Convergent:
    """A convergent p_K/q_K of xi with q_K q_{K+1} >= accuracy_den."""
    cons, j = walk(
        oracle, lambda cons, j: j > 0 and cons[j - 1][1] * cons[j][1] >= accuracy_den,
        f"quotient supply too small for a surrogate of accuracy 1/{accuracy_den}",
    )
    return Convergent(*cons[j - 1], j - 1)


def find_fractional_hit(oracle: RealOracle, q_lo: Rat, q_hi: Rat, t_lo: Rat, t_hi: Rat):
    """Smallest integer q in [q_lo, q_hi] with frac(q xi) in [t_lo, t_hi].

    Returns (q, p) with p = floor(q xi), or None when no q qualifies.
    """
    t_lo, t_hi = _frac(t_lo), _frac(t_hi)
    if not (0 < t_lo < t_hi < 1):
        raise PreconditionError(
            "BAD_WINDOW", f"need 0 < t_lo < t_hi < 1, got [{t_lo}, {t_hi}]"
        )
    return _find_hit(oracle, _frac(q_lo), _frac(q_hi), t_lo, t_hi, _Stats())


def _find_hit(
    oracle, q_lo, q_hi, t_lo, t_hi, stats, lo_strict=False, hi_strict=False
):
    """Smallest integer q in [q_lo, q_hi] with frac(q xi) between t_lo and
    t_hi, an endpoint excluded when its ``*_strict`` flag is set, as
    (q, floor(q xi)), or None.

    For rational xi = a/m the window is a range of residues r = q a mod m: a
    strict low end t gives r >= floor(t m) + 1, a strict high end r <=
    ceil(t m) - 1. Irrational xi takes the surrogate window enlarged on each
    side by the surrogate's own error n_hi/(q_K q_{K+1}), at most width/8.
    """
    n_lo = max(1, q_lo.__ceil__())
    n_hi = q_hi.__floor__()
    if n_lo > n_hi:
        return None
    v = oracle.exact_value()
    if v is not None:
        a, m = v.numerator, v.denominator
        lo_i = (t_lo * m).__floor__() + 1 if lo_strict else (t_lo * m).__ceil__()
        hi_i = (t_hi * m).__ceil__() - 1 if hi_strict else (t_hi * m).__floor__()
    elif t_lo >= t_hi:
        return None
    else:
        sur = _surrogate(oracle, (8 * n_hi / (t_hi - t_lo)).__ceil__())
        a, m = sur.p, sur.q
        delta = Fraction(n_hi, m * oracle.cf_convergents(0)[sur.index + 1][1])
        lo_i = ((t_lo - delta) * m).__ceil__()
        hi_i = ((t_hi + delta) * m).__floor__()
    for q in _residue_hits(a, m, n_lo, n_hi, lambda q: (lo_i, hi_i)):
        if v is not None:
            stats.candidates += 1
            return q, (q * v).__floor__()
        hit, p = _frac_window_check(oracle, q, t_lo, t_hi, stats)
        if hit:
            return q, p
    return None


def _certify_le(oracle, u, v, bound: Fraction, stats) -> bool:
    """Certified |u xi - v| <= bound (inclusive)."""
    val = oracle.exact_value()
    if val is not None:
        return abs(u * val - v) <= bound

    def step(k):
        d = (oracle.enclose(k) * u - v).abs()
        if d.hi <= bound:
            return True
        if d.lo > bound:
            return False
        return None

    return refine(step, f"distance certificate for {v}/{u} undecided", stats)


def _case_i_hit(oracle, u_limit: Fraction, bound: Fraction, stats):
    """First convergent (q, p) with q < u_limit and certified |q xi - p| <=
    bound, or None; also the first such among all semiconvergents.

    Along the run u_j = q_{i-2} + j q_{i-1}, j = 1 .. a_i, that ends at
    convergent i, |u_j xi - v_j| = |q_i xi - p_i| + (a_i - j) |q_{i-1} xi -
    p_{i-1}|: each semiconvergent is farther than the convergent before it.
    A short quotient supply raises before any check.
    """
    cons, end = walk(
        oracle, lambda cons, j: cons[j][1] >= u_limit,
        f"quotient supply ends below denominator bound {u_limit}",
    )
    for p, q in cons[:end]:
        if _certify_le(oracle, q, p, bound, stats):
            return q, p
    return None


def _residual_signed(oracle, q, p, eps, cpe, stats):
    """(enclosure of q xi - p, certified eps <= |q xi - p| < c' eps)."""
    v = oracle.exact_value()
    if v is not None:
        r = q * v - p
        return Enclosure.point(r), eps <= abs(r) < cpe

    def step(k):
        enc = oracle.enclose(k) * q - p
        a = enc.abs()
        if a.lo >= eps and a.hi < cpe:
            return enc, True
        if a.hi < eps or a.lo >= cpe:
            return enc, False
        return None

    return refine(step, f"residual certificate for q={q} undecided", stats)


def solve_disjunction(oracle: RealOracle, params: LemmaParams) -> DisjunctionResult:
    """Produce a case (ii) witness if one exists, else a case (i) witness.

    Integer shifts of the value drop out of both certificates, so any real
    value is accepted. When epsilon sits close to 1/2 the residual band
    pinches shut and adversarial parameters can admit no witness of either
    kind; that situation raises NEITHER_CASE_CERTIFIED rather than
    returning a weakened claim.
    """
    stats = _Stats()
    c, cp, eps, Q = params.c, params.c_prime, params.eps, params.Q
    half = Fraction(1, 2)
    cpe = cp * eps
    best = None  # (q, nearest p)
    if eps <= half:
        plus = _find_hit(
            oracle, Q, c * Q, eps, min(cpe, half), stats, False, cpe <= half
        )
        if plus is not None:
            best = plus
        top = c * Q if best is None else Fraction(best[0] - 1)
        minus = _find_hit(
            oracle, Q, top, max(1 - cpe, half), 1 - eps, stats, True, False
        )
        if minus is not None:
            q, floor_p = minus
            best = (q, floor_p + 1)
    if best is not None:
        q, p = best
        residual, certified = _residual_signed(oracle, q, p, eps, cpe, stats)
        if not certified:
            # a hit of either window lies in the band by construction
            raise CertificateError(
                "INTERNAL", f"case (ii) window hit q={q} failed residual certification"
            )
        return DisjunctionResult(
            "case_ii", CaseIIWitness(q, p), residual, stats.frozen()
        )
    bound_u = params.bound_u
    factor = params.dist_factor
    hit = _case_i_hit(oracle, bound_u, factor / Q, stats)
    if hit is not None:
        u, v = hit
        witness = CaseIWitness(u, v, bound_u, factor / (u * Q))
        return DisjunctionResult("case_i", witness, None, stats.frozen())
    raise NeitherCaseCertified(
        f"no witness for either case at c={c}, c'={cp}, eps={eps}, Q={Q}"
    )
