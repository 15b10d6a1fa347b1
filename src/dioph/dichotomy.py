"""Two-case approximation dichotomy and fractional-window search.

Given parameters (c, c', eps, Q) with 1 < c < c', 0 < eps < 1, Q > 1 and a
real value xi, one of two certificates is produced:

- case (ii): an integer pair (q, p) with Q <= q <= c Q, p the nearest integer
  to q xi, and eps <= |q xi - p| < c' eps; searched first and returned with
  the smallest such q;
- case (i): a fraction v/u with u below an explicit bound and |u xi - v|
  within an explicit distance bound b, u the least such; by Lagrange's
  best-approximation theorem that is a convergent of xi.

The distance band of case (ii) is two signed windows for q xi - p, [eps, w]
and [-w, -eps] with w = min(c' eps, 1/2), each with its own endpoint
strictness; case (i) is the one window [-b, b], b capped at 1. Past the
parameters' entry, a window is integers (lo, hi, den, lo_strict, hi_strict)
for [lo/den, hi/den], the band's two over one denominator, and the q range is
two ints. Windows are read cyclically, and both cases run one window search
and one window check.
The search is exact at every size: rational xi reduces to residue-class
queries, strict endpoints included, solved by Euclidean descent in O(log)
steps, one chain per surrogate, one walk per query, later hits of a window
following by the three gaps of the three-distance theorem; irrational xi
is replaced by the end a/m of a certified enclosure of width delta, and
candidate q up to n are enumerated in one increasing stream on its windows
enlarged by n delta, the enclosure read again at twice the bits after a run
of misses.
The check verifies each against the true value on integer candidates, not
floors: on an enclosure [l/d, h/d] of q xi they are the p from ceil(l/d -
t_hi) to floor(h/d - t_lo); none means q misses the window, and the least
one with q xi - p certified strictly inside is the hit. So the first
verified hit is the true minimum. No case reads a continued fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .enclosure import Enclosure, Rat, as_rational
from .errors import (
    CertificateError,
    NeitherCaseCertified,
    PreconditionError,
    RangeTooLarge,
    Unrepresentable,
    brief,
)
from .oracle import RealOracle, level_for, refine

DEFAULT_BUDGET = 10**6
MISS_RUN = 64  # window checks before the search first reads a finer surrogate


@dataclass(frozen=True)
class LemmaParams:
    c: Fraction
    c_prime: Fraction
    eps: Fraction
    Q: Fraction

    def __post_init__(self):
        for name in ("c", "c_prime", "eps", "Q"):
            x = getattr(self, name)
            if x.__class__ is not Fraction:
                object.__setattr__(self, name, as_rational(x, what=name))
        # cross products on numerators and (positive) denominators
        c, cp, eps, Q = self.c, self.c_prime, self.eps, self.Q
        cn, cd, pn, pd = c.numerator, c.denominator, cp.numerator, cp.denominator
        if not (cd < cn and cn * pd < pn * cd and pn < 2 * pd):
            raise PreconditionError("BAD_PARAMS", f"need 1 < c < c' < 2, got c={c}, c'={cp}")
        if not 0 < eps.numerator < eps.denominator:
            raise PreconditionError("BAD_PARAMS", f"need 0 < eps < 1, got {eps}")
        if not Q.numerator > Q.denominator:
            raise PreconditionError("BAD_PARAMS", f"need Q > 1, got {Q}")

    def _case_i_terms(self):
        """(un, ud, bn, bd) with bound_u = 2 c^2 / ((c - 1) (c' - c) eps) =
        un/ud and dist_factor = (2 / (c - 1)) (1 + c^2 / (c' - c)) = bn/bd, on
        c = cn/cd, c' = pn/pd: c - 1 = c1/cd and c' - c = D/(cd pd)."""
        (cn, cd), (pn, pd), (en, ed) = (x.as_integer_ratio() for x in (self.c, self.c_prime, self.eps))
        D, c1 = pn * cd - cn * pd, cn - cd
        return 2 * cn * cn * pd * ed, c1 * D * en, 2 * (cd * D + cn * cn * pd), c1 * D

    @property
    def bound_u(self) -> Fraction:
        """Denominator bound for case (i)."""
        un, ud, _, _ = self._case_i_terms()
        return Fraction(un, ud)

    @property
    def dist_factor(self) -> Fraction:
        """B with |xi - v/u| <= B / (u Q), i.e. |u xi - v| <= B / Q."""
        _, _, bn, bd = self._case_i_terms()
        return Fraction(bn, bd)


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
        self.bits = max(self.bits, level_for(k))

    def frozen(self) -> SearchStats:
        return SearchStats(self.candidates, self.bits)


DEEP = 8  # a hit at most DEEP levels down unwinds; a deeper one takes the chain's inverse


class _Descent:
    """The Euclidean descent of a/m, shared by every query on it (Knuth,
    TAOCP vol. 2, 4.5.3). Level i is (a_i, m_i, mirrored_i): a_0 = a mod m
    over m_0 = m, and a_(i+1) = -m_i mod a_i over m_(i+1) = a_i. A level is
    mirrored, a_i replaced by m_i - a_i, when 2 a_i > m_i, so the modulus at
    least halves every other level (without it the descent is linear in m
    when m/a has partial quotient 1). The levels depend on a/m alone, so
    they are built once, one tuple each, as deep as a query reaches; a level
    whose a_i would be 0 ends the chain.
    """

    __slots__ = ("a", "m", "levels", "inv")

    def __init__(self, a: int, m: int):
        self.a, self.m, self.levels, self.inv = a % m, m, [], None

    def first_hit(self, b: int, c: int) -> Optional[int]:
        """Least t >= 0 with (a t + b) mod m < c, or None.

        The walk takes level i's b_i >= c, mirrored to m_i + c - 1 - b_i
        (which keeps [0, c) and t), to its first wrap past m_i, y = (b_i -
        m_i) mod a_i: the hit when y < c, else b_(i+1). Then a_i t + b_i =
        m_i (t' + 1) + y for level i + 1's hit t', y its residue mapped back
        through its mirror, so a hit at most DEEP levels down unwinds, one
        product and one exact division a level. A deeper one is the least t
        with a t = y - b (mod m), y mapped through every mirror: with g =
        gcd(a, m), t = ((y - b)/g) (a/g)^-1 mod m/g, the inverse computed
        once per chain (Brent and Zimmermann, Modern Computer Arithmetic,
        2.5)."""
        m = self.m
        if c >= m:
            return 0
        if c <= 0:
            return None
        b0 = b = b % m
        if b < c:
            return 0
        levels, bs, flip, i = self.levels, [], False, 0
        while True:
            if i < len(levels):
                a, mi, mirrored = levels[i]
            else:  # extend the chain from level i - 1, just walked
                a, mi = (-mi % a, a) if i else (self.a, m)
                if a == 0:
                    return None
                mirrored = 2 * a > mi
                if mirrored:
                    a = mi - a
                levels.append((a, mi, mirrored))
            if mirrored:
                b, flip = mi + c - 1 - b, not flip
            y = (b - mi) % a
            if y < c:
                break
            if i < DEEP:  # kept for a shallow hit's unwinding
                bs.append(b)
            b = y
            i += 1
        if i <= DEEP:
            t = (mi + y - b) // a
            while i:
                if mirrored:
                    y = c - 1 - y
                i -= 1
                a, mi, mirrored = levels[i]
                t = (mi * (t + 1) + y - bs[i]) // a
            return t
        if flip:
            y = c - 1 - y
        if self.inv is None:
            g = gcd(self.a, m)
            self.inv = g, pow(self.a // g, -1, m // g)
        g, inv = self.inv
        return (y - b0) // g * inv % (m // g)


def _residue_hits(chain: _Descent, q_lo: int, q_hi: int, window):
    """Yield ascending q in [q_lo, q_hi] with a q mod m in ``window(q)`` =
    (lo, hi) read cyclically, for ``chain`` the descent of a/m: lo may be
    negative and hi past m - 1. The window is read again before each hit,
    with q one past the last hit, so a caller may shrink it; at most
    DEFAULT_BUDGET hits are yielded, and one more raises RANGE_TOO_LARGE.

    A hit is a q whose residue x = (a q - lo) mod m is below c = min(hi - lo
    + 1, m). One chain serves the whole stream, one walk per query. A new
    window costs one query for its first hit. Asked for a second hit in the
    same window, the stream computes, once, the last hit's residue x and the
    least return times: n1 >= 1 least with a n1 mod m < c and n2 >= 1 least
    with -a n2 mod m < c, two queries (-a n2 mod m < c exactly when a (n2 -
    1) + c - 1 + a mod m < c, as c <= m, so n2 uses the chain of a too), with
    the steps s1 = a n1 mod m and s2 = -a n2 mod m, both below c (not sooner:
    most streams of the window search end at their first hit). Then each hit
    follows the last one, of residue x, after n1 when x + s1 < c, else after
    n2 when x >= s2, else after n1 + n2 (x + s1 - s2 is then in [c - s2,
    s1)), and x is carried along. That is the least return (the
    three-distance theorem, Slater 1967). A step n that lands moves x
    forward by r = a n mod m < c - x, so n >= n1, or back by r = -a n mod m
    <= x, so n >= n2. Forward with x + s1 >= c, r < s1, so the step n - n1
    > 0 moves back by s1 - r < c and n >= n1 + n2; back with x < s2,
    likewise n >= n1 + n2. Unless n1 = n2, s1 + s2 >= c by the minimality of
    n1 and n2 (the step |n1 - n2| moves by s1 + s2 the way of the larger),
    so x + s1 < c forces x < s2."""
    a, m = chain.a, chain.m
    q, seen, win = q_lo - 1, 0, None
    while q < q_hi:
        w = window(q + 1)
        if w != win:
            win = lo, hi = w
            c, n1 = hi - lo + 1, None
            t = chain.first_hit(a * (q + 1) - lo, c)
            if t is None:
                return
            q += t + 1
        else:
            if n1 is None:
                c = min(c, m)
                n1 = 1 + chain.first_hit(a, c)
                n2 = 1 + chain.first_hit(c - 1 + a, c)
                s1, s2, x = a * n1 % m, -a * n2 % m, (a * q - lo) % m
            if x + s1 < c:
                q, x = q + n1, x + s1
            elif x >= s2:
                q, x = q + n2, x - s2
            else:
                q, x = q + n1 + n2, x + s1 - s2
        if q > q_hi:
            return
        if seen == DEFAULT_BUDGET:
            raise RangeTooLarge(f"candidate stream exceeded budget {DEFAULT_BUDGET}")
        seen += 1
        yield q


def _frac_window_check(oracle, q, window, stats, near=None):
    """(p, f) for the least integer p with q xi - p strictly between t_lo =
    lo/den and t_hi = hi/den, ``window`` = (lo, hi, den, ...), f the enclosure
    of q xi - p that certified it, or None when no integer puts q xi - p in
    [t_lo, t_hi], for irrational xi and -1 <= t_lo < t_hi <= 1. On an
    enclosure [l/d, h/d] of q xi the candidates are the p from ceil(l/d -
    t_hi) to floor(h/d - t_lo): none decides "outside", the least one strictly
    inside decides the hit, and anything else is decided on a finer
    enclosure. The enclosure is ``near``, of q xi, when given and it decides,
    else enclose(k) q on the ladder."""
    stats.candidates += 1
    lo, hi, den, _, _ = window

    def decide(enc):
        l, h, d = enc.l, enc.h, enc.d
        dd = d * den
        p = -((hi * d - l * den) // dd)  # ceil(l/d - hi/den)
        if p > (h * den - lo * d) // dd:  # floor(h/d - lo/den)
            return False
        f = enc - p
        return (p, f) if f.l * den > lo * d and f.h * den < hi * d else None

    got = None if near is None else decide(near)
    if got is None:
        got = refine(
            lambda k: decide(oracle.enclose(k) * q), lambda: f"window membership for q={brief(q)} undecided", stats
        )
    return got or None


def find_fractional_hit(oracle: RealOracle, q_lo: Rat, q_hi: Rat, t_lo: Rat, t_hi: Rat):
    """Smallest integer q in [q_lo, q_hi] with frac(q xi) in [t_lo, t_hi].

    Returns (q, p) with p = floor(q xi), or None when no q qualifies.
    """
    t_lo, t_hi = (as_rational(t, "BAD_WINDOW", "window end") for t in (t_lo, t_hi))
    if not (0 < t_lo < t_hi < 1):
        raise PreconditionError(
            "BAD_WINDOW", f"need 0 < t_lo < t_hi < 1, got [{t_lo}, {t_hi}]"
        )
    q_lo, q_hi = as_rational(q_lo, what="q_lo"), as_rational(q_hi, what="q_hi")
    a, b, c, e = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
    window = (a * e, c * b, b * e, False, False)
    hit = _find_hit(oracle, q_lo.__ceil__(), q_hi.__floor__(), [window], _Stats())
    return None if hit is None else hit[:2]


def _surrogate_window(enc, n, window):
    """(lo, hi): the residues a q mod m, lo to hi read cyclically, of the q
    with frac(q a/m) in [t_lo - n w, t_hi + n w], for ``enc`` = [a/m, h/m] of
    width w, unreduced: the same q as with a/m reduced, and ``window`` =
    (t_lo den, t_hi den, den, lo_strict, hi_strict). lo is n (h - a) below the
    least integer from t_lo m on, hi as far above the greatest up to t_hi m,
    a strict end excluding t m itself; on a point, w = 0, they are the
    window's residues."""
    m, spread = enc.d, n * (enc.h - enc.l)
    t_lo, t_hi, den, lo_strict, hi_strict = window
    return (t_lo * m - (not lo_strict)) // den + 1 - spread, (t_hi * m - hi_strict) // den + spread


def _find_hit(oracle, n_lo, n_hi, windows, stats):
    """Smallest integer q in [max(1, n_lo), n_hi], both ints, with q xi - p in
    one of ``windows`` for an integer p, as (q, p, f) with p the least such
    integer for the first window q lies in and f the enclosure of q xi - p
    that decided it, or None. A window is integers (lo, hi, den, lo_strict,
    hi_strict) for [lo/den, hi/den] with den > 0, an end excluded when its
    flag is set; all share one width, below 1 or case (i)'s [-b, b], and are
    read cyclically. Each gives a stream of :func:`_residue_hits` on
    :func:`_surrogate_window`, all on one descent chain of the surrogate's
    low end l/d, kept on the oracle while its (l, d) stays the same, so
    later searches on that surrogate query it too; the streams are merged in
    ascending q, and a q in several is tried against each in window order.

    A rational xi = a/m, an oracle with an exact value, is its own surrogate
    of width 0, so each candidate is a hit: p = max(floor(q xi), ceil(q xi -
    t_hi)) and f is the point q xi - p, on integers over m. That branch selects
    on an observable input; folded into the window check, ``exact`` ran slower.
    Irrational xi takes the oracle's first enclosure no wider than width/(8
    n_hi), and each candidate goes to :func:`_frac_window_check`, tried first
    on that surrogate times q. After MISS_RUN candidates, and again whenever
    their count doubles, the surrogate is read at the square of the width
    last asked for, unless the supply is too short, and the streams restart
    past the last candidate: every true hit lies in every surrogate's
    enlarged window, so only missing classes drop out. DEFAULT_BUDGET
    candidates are checked over all restarts, and one more raises
    RANGE_TOO_LARGE.
    """
    n_lo = max(1, n_lo)
    if n_lo > n_hi:
        return None
    v = oracle.exact_value()
    if v is None:
        lo, hi, den, _, _ = windows[0]
        if lo >= hi:
            return None
        tol = Fraction(hi - lo, 8 * n_hi * den)
        what = lambda: f"window surrogate for q <= {brief(n_hi)} undecided"
        enc = oracle.within(tol, what, stats)
    else:
        enc = Enclosure.point(v)
    seen, run, end, q, heads = 0, MISS_RUN, n_hi + 1, n_lo - 1, None
    while True:
        if heads is None:
            chain = oracle._descent
            if chain is None or chain.m != enc.d or chain.a != enc.l % enc.d:
                chain = oracle._descent = _Descent(enc.l, enc.d)
            bounds = [_surrogate_window(enc, n_hi, w) for w in windows]
            streams = [_residue_hits(chain, q + 1, n_hi, lambda _, b=b: b) for b in bounds]
            heads = [next(s, end) for s in streams]
        q = min(heads)
        if q == end:
            return None
        for i, window in enumerate(windows):
            if heads[i] != q:
                continue
            if seen == DEFAULT_BUDGET:
                raise RangeTooLarge(f"candidate stream exceeded budget {DEFAULT_BUDGET}")
            seen += 1
            if v is not None:
                stats.candidates += 1
                x, m, hi, den = q * enc.l, enc.d, window[1], window[2]
                p = max(x // m, -((hi * m - x * den) // (m * den)))  # ceil(x/m - hi/den)
                r = x - p * m
                return q, p, Enclosure.from_ints(r, r, m)
            hit = _frac_window_check(oracle, q, window, stats, enc * q)
            if hit is not None:
                return (q, *hit)
            heads[i] = next(streams[i], end)
        if seen >= run:
            run *= 2
            tol = Fraction(tol.numerator**2, tol.denominator**2)
            try:
                enc, heads = oracle.within(tol, what, stats), None
            except Unrepresentable:
                pass


def _case_i_search(oracle, u_limit, bound, stats):
    """Least integer u < ``u_limit`` with |u xi - v| <= ``bound`` for an
    integer v, both rationals given as (numerator, denominator) int pairs, as
    (u, v) with v the least integer from floor(u xi) on within beta =
    min(bound, 1) of u xi, or None: the window search on [-beta, beta]. At
    bound >= 1/2, u = 1 is the first hit whatever xi is, so the search stops
    there."""
    (un, ud), (bn, bd) = u_limit, bound
    u_hi = (un - 1) // ud  # ceil(u_limit) - 1
    if 2 * bn >= bd:
        u_hi = min(u_hi, 1)
    beta = min(bn, bd)
    hit = _find_hit(oracle, 1, u_hi, [(-beta, beta, bd, False, False)], stats)
    return None if hit is None else hit[:2]


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
    Qn, Qd, en, pd = Q.numerator, Q.denominator, eps.numerator, cp.denominator
    # eps, c' eps and 1/2 over one denominator D; the band as q xi - p in [eps,
    # w] or in [-w, -eps], p the nearest integer, both empty at eps > 1/2
    e, ce, half = 2 * pd * en, 2 * cp.numerator * en, pd * eps.denominator
    D, w = 2 * half, min(ce, half)
    windows = [(e, w, D, False, ce <= half), (-w, -e, D, True, False)]
    best = _find_hit(oracle, -(-Qn // Qd), c.numerator * Qn // (c.denominator * Qd), windows, stats)
    if best is not None:
        q, p, residual = best
        a = residual.abs()
        if not (a.l * D >= e * a.d and a.h * D < ce * a.d):
            # a hit of either window lies in the band by construction
            raise CertificateError(
                "INTERNAL", f"case (ii) window hit q={q} failed residual certification"
            )
        return DisjunctionResult(
            "case_ii", CaseIIWitness(q, p), residual, stats.frozen()
        )
    un, ud, bn, bd = params._case_i_terms()
    bn, bd = bn * Qd, bd * Qn  # the distance bound B/Q
    hit = _case_i_search(oracle, (un, ud), (bn, bd), stats)
    if hit is not None:
        u, v = hit
        witness = CaseIWitness(u, v, Fraction(un, ud), Fraction(bn, bd * u))
        return DisjunctionResult("case_i", witness, None, stats.frozen())
    raise NeitherCaseCertified(
        f"no witness for either case at c={c}, c'={cp}, eps={eps}, Q={Q}"
    )
