"""Simultaneous approximation and families of integer linear forms.

A :class:`PointVec` is a coordinate vector (xi_0, ..., xi_m) with a nonzero
rational leading coordinate; distances are always measured on the normalized
ratios xi_j / xi_0. A :class:`FormSequence` is an indexed family of integer
forms against a fixed point, optionally with a scale sequence whose asymptotic
per-step growth is a power of e (the lcm scales of the zeta recurrences).

``dirichlet_witness`` finds a denominator certified to approximate every
coordinate at once, ``omega0_search`` measures the simultaneous exponent over
a denominator range, ``tau_empirical`` measures the decay exponent of a form
family, and ``nesterenko_report`` combines both into the implied dimension
bound tau + 1 with a cross-check against 1/omega.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import inf, lcm
from typing import Optional

from .certlog import LOG_BITS, ln_frac, ln_quotient, log2_lo
from .dichotomy import _Descent, _residue_hits
from .enclosure import Enclosure, as_integer, as_integers, as_rational
from .errors import (
    CertificateError,
    Degenerate,
    PreconditionError,
    ZeroFormValue,
)
from .oracle import (
    AffineOracle,
    EOracle,
    RationalOracle,
    RealOracle,
    Zeta2Oracle,
    Zeta3Oracle,
    nearest_int,
    separated,
)
from .seqbuild import RateEstimate, _measure_core

# verified distances are refined to width 2**-_DIST_BITS
_DIST_BITS = 80
_DIST_TOL = Fraction(1, 1 << _DIST_BITS)
FORM_BITS = 128  # significant bits a form value keeps; its readers use about 112


@dataclass(frozen=True)
class LinearForm:
    """Integer form l . (xi_0, ..., xi_m); a coefficient that is not an
    integer, such as 1.5 or an infinite float, raises BAD_FORM. A tuple of
    ints is kept as given."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = self.coeffs
        if coeffs.__class__ is not tuple or not all(c.__class__ is int for c in coeffs):
            coeffs = tuple(as_integers(coeffs, "BAD_FORM", "coefficient"))
            object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise PreconditionError("BAD_FORM", "a form needs at least 2 coefficients")
        if not any(coeffs):
            raise PreconditionError("BAD_FORM", "zero form")

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coeffs)


@dataclass(frozen=True)
class PointVec:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) < 2:
            raise PreconditionError("BAD_POINT", "a point needs at least 2 coordinates")
        if not all(isinstance(c, RealOracle) for c in self.coords):
            raise PreconditionError("BAD_POINT", "every coordinate must be an oracle")

    def ratio_oracles(self):
        """Oracles for xi_j / xi_0, j >= 1; needs a nonzero rational xi_0."""
        xi0 = self.coords[0].exact_value()
        if xi0 is None:
            raise PreconditionError(
                "BAD_POINT", "leading coordinate must be an exact rational"
            )
        if xi0 == 0:
            raise Degenerate("leading coordinate is zero")
        if xi0 == 1:
            return self.coords[1:]
        return tuple(AffineOracle(1 / xi0, 0, c) for c in self.coords[1:])


def evaluate_form(
    form: LinearForm, point: PointVec, index: Optional[int] = None
) -> Enclosure:
    """Signed enclosure of the form value, separated from zero.

    One pass over the coefficients and coordinates sums the pad and the
    exact coordinates' terms, as one integer fraction over the product of
    their reduced denominators. Each level adds l_j times the matching ends
    of the other coordinates' enclosures to it, as one integer fraction per
    end, and rounds that outward to a dyadic keeping FORM_BITS bits of the
    end nearer zero, by shifts where both denominators are powers of two, as
    with an integer leading coordinate and dyadic enclosures; the separation
    test then runs on the result, which still contains the value.
    Exact zeros (all-rational points) raise ZERO_FORM_VALUE; values that
    cannot be separated within the precision cap raise INCONCLUSIVE.
    """
    coeffs, coords = form.coeffs, point.coords
    if len(coeffs) != len(coords):
        raise PreconditionError("BAD_FORM", "form and point dimensions differ")
    # products commute, so the exact terms summed first give the same integers
    # as a point enclosure of each, whose power-of-two factor moves no bit below
    total, ex_n, ex_d, irrational, exact = 0, 0, 1, [], True
    for l, c in zip(coeffs, coords):
        total += abs(l)
        x = c.value
        if x is None:
            exact = False
            if l:
                irrational.append((l, c))
        elif l:
            ex_n = ex_n * x.denominator + l * x.numerator * ex_d
            ex_d *= x.denominator
    if exact:
        if not ex_n:
            where = "" if index is None else f" at index {index}"
            raise ZeroFormValue(f"form {coeffs} vanishes exactly{where}", index)
        return Enclosure.point(Fraction(ex_n, ex_d))
    pad = total.bit_length() + 2

    def enclose_at(k):
        lo_n, lo_d, hi_n, hi_d = ex_n, ex_d, ex_n, ex_d
        for l, c in irrational:
            enc = c.enclose(k + pad)
            a, b = (enc.l, enc.h) if l > 0 else (enc.h, enc.l)
            d = enc.d
            if d & (d - 1):  # a common power of two moves no bit-length difference below
                (a, ad), (b, bd) = Fraction(a, d).as_integer_ratio(), Fraction(b, d).as_integer_ratio()
                lo_n, lo_d = lo_n * ad + l * a * lo_d, lo_d * ad
                hi_n, hi_d = hi_n * bd + l * b * hi_d, hi_d * bd
            else:
                # times d is a shift, and l b is l a plus l times the small width
                t, la = d.bit_length() - 1, l * a
                lo_n, lo_d = (lo_n << t) + la * lo_d, lo_d << t
                hi_n, hi_d = (hi_n << t) + (la + l * (b - a)) * hi_d, hi_d << t
        # ulps of 2**(down - up) leave 127-128 bits in the end nearer zero
        e = min(abs(lo_n).bit_length() - lo_d.bit_length(), abs(hi_n).bit_length() - hi_d.bit_length())
        up, down = max(FORM_BITS - 1 - e, 0), max(e + 1 - FORM_BITS, 0)
        if lo_d & (lo_d - 1) or hi_d & (hi_d - 1):
            lo = (lo_n << up) // (lo_d << down) << down
            hi = -((-hi_n << up) // (hi_d << down)) << down
        else:  # over powers of two the floors are shifts
            lo = (lo_n << up) >> (lo_d.bit_length() - 1 + down) << down
            hi = -((-hi_n << up) >> (hi_d.bit_length() - 1 + down)) << down
        return Enclosure.from_ints(lo, hi, 1 << up)

    return separated(enclose_at, lambda: f"form value {coeffs} not separated from zero")


@dataclass(frozen=True)
class SimultaneousWitness:
    q0: int
    qs: tuple
    dist: Enclosure
    omega_point: Fraction
    within_dirichlet: bool
    search_bound: int


def _fixed_points(ratios, bound: int):
    """(M, X): M = 2**w with w = 2 bits(bound) + 40, and X_j the floor of
    M times a level-(w + bits(bound) + 8) midpoint of ratio j. Then
    |q X_j - q x_j M| < bound + 1 for every q <= bound, and 2 (bound + 2)
    stays below M / bound by a factor of 2**38 at every size."""
    b = bound.bit_length()
    w = 2 * b + 40
    out = []
    for r in ratios:
        enc = r.enclose(w + b + 8)
        out.append(((enc.l + enc.h) << w) // (2 * enc.d))
    return 1 << w, out


def _approx_score(q: int, fixed, M: int) -> int:
    worst = 0
    for X in fixed:
        r = (q * X) % M
        d = min(r, M - r)
        if d > worst:
            worst = d
    return worst


def _records(fixed, M: int, err: int, lo: int, hi: int, near: int, cut=lambda bits: inf):
    """Yield ascending (q, score) for the q in [lo, hi] scoring within the
    window min(near, cut(bits(q))), read once per bit length until the next
    record, lowering ``near`` to score + 2 err after each.

    A score is within ``err`` of M d(q), where d(q) = max_j ||q x_j||, so
    every record of the range, a q with d(q) below d at every smaller q of
    the range, is yielded if it scores within the window. The searches
    certify only these, because for 2 <= q' < q, d(q') <= d(q) forces
    omega(q') > omega(q) (as d <= 1/2): the largest omega of a range starting
    at 2 or above is at a record, and so are the smallest q with d <= 1/Q
    and the q with the smallest d. A score within the window forces
    ||q x_1|| <= window / M, so only the residue-class stream of those q is
    scored.
    """
    end, win = 0, None

    def window(q):
        nonlocal end, win
        if q >= end:
            b = q.bit_length()
            bound = min(near, cut(b))
            end, win = 1 << b, (-bound, bound)
        return win

    for q in _residue_hits(_Descent(fixed[0], M), lo, hi, window):
        s = _approx_score(q, fixed, M)
        if s <= win[1]:
            near, end = min(near, s + 2 * err), 0
            yield q, s


def _refined_max_dist(ratios, q: int):
    """(enclosure of max_j ||q * ratio_j|| of width <= 2**-80, nearest
    integers); INFINITE_WITNESS when that maximum is exactly 0.

    Each distance is taken on its ladder at width <= 2**-80, so the maximum
    is as narrow: max hi - max lo is at most the width of the distance with
    the largest hi."""
    near = [nearest_int(r, q, lambda d: d.width_le(_DIST_TOL)) for r in ratios]
    qs = tuple(v for v, _ in near)
    enc = reduce(Enclosure.max, (d for _, d in near))
    if enc.sign() == 0:
        raise PreconditionError(
            "INFINITE_WITNESS", f"q0={q} matches every coordinate exactly"
        )
    return enc, qs


def _omega_bounds(M: int, s: int, err: int, q: int):
    """(cap, (n, m)): bounds on the exponent at q from a score s within err
    of M = 2**w times d(q), both from one log2_lo(q, 16).

    The cap is an upper bound on omega(q) = -log d(q) / log q: with excess
    = s - err, d(q) >= excess / M, so omega(q) <= (w - log2 excess) / log2 q;
    infinite when excess <= 0. A cap only orders and prunes records, so
    integer logs to 2**-16 do.

    The floor om = n/m >= 0 is at most the exponent :func:`_omega_point`
    certifies at q on the distance of :func:`_refined_max_dist`, from high =
    s + err >= M d(q): n = 2**16 max(w - bits(H), 0) for H = high +
    2**max(w - _DIST_BITS, 0), m = log2_lo(q, 16) + 2.

    That distance's upper end is at most d(q) + 2**-_DIST_BITS <= H/M <
    2**(bits(H) - w), which takes om one bit low at most (two where d(q) is
    near 2**-_DIST_BITS), so the 96-bit lower end of its log is at least ln 2
    n/2**16 - 2**-96. m/2**16 exceeds log2 q by over 2**-17 (log2_lo), so
    the 96-bit upper end of ln q is below ln 2 m/2**16 - ln 2 2**-17 + 2**-96.
    Where n > 0, so n >= 2**16, their quotient is then at least n/m for
    every q below 2**(2**78)."""
    w, lq, excess = M.bit_length() - 1, log2_lo(q, 16), s - err
    cap = Fraction((w << 16) - log2_lo(excess, 16), lq) if excess > 0 else inf
    n = w - (s + err + (1 << max(w - _DIST_BITS, 0))).bit_length()
    return cap, (max(n, 0) << 16, lq + 2)


def _omega_point(dist_hi: Fraction, q: int) -> Fraction:
    """Directed-down pointwise exponent -log dist / log q."""
    if dist_hi <= 0:
        raise CertificateError("INTERNAL", "omega of a zero distance")
    if dist_hi >= 1:
        return Fraction(0)
    ln_inv = ln_frac((dist_hi.denominator, dist_hi.numerator), LOG_BITS)
    return Fraction(*ln_quotient(ln_inv, ln_frac(q, LOG_BITS)))


def dirichlet_witness(
    point: PointVec, Q: int, mode: str = "first"
) -> SimultaneousWitness:
    """Simultaneous approximation witness with q0 <= Q**dim.

    ``first`` (default) returns the smallest q0 whose worst-coordinate
    distance is certified <= 1/Q, the pigeonhole guarantee; ``best`` returns
    the q0 in the whole range with the smallest certified distance (ties to
    the smaller q0). Both certify only the records of the range (see
    :func:`_records`): ``first`` those scoring within 1/Q plus the
    fixed-point error, in ascending order until one is within 1/Q, ``best``
    those within the margin of the smallest score. A stream of more than
    DEFAULT_BUDGET candidates raises RANGE_TOO_LARGE.
    """
    Q = as_integer(Q, what="Q")
    if Q < 2:
        raise PreconditionError("BAD_PARAMS", f"Q={Q} must be >= 2")
    if mode not in ("best", "first"):
        raise PreconditionError("BAD_PARAMS", f"unknown mode {mode!r}")
    ratios = point.ratio_oracles()
    bound = Q ** len(ratios)
    M, fixed = _fixed_points(ratios, bound)
    err = bound + 2
    target = Fraction(1, Q)
    if mode == "first":
        # a q within 1/Q scores at most M/Q + err
        for q, _ in _records(fixed, M, err, 1, bound, (M + Q - 1) // Q + err):
            enc, qs = _refined_max_dist(ratios, q)
            if enc.le_certain(target):
                break
        else:
            raise CertificateError(
                "PIGEONHOLE_FAILED", f"no q0 <= {bound} certified below 1/{Q}"
            )
    else:
        records = list(_records(fixed, M, err, 1, bound, M))
        near = min(s for _, s in records) + 2 * err
        scored = []
        for q, s in records:
            if s <= near:
                enc, qs = _refined_max_dist(ratios, q)
                scored.append((enc.hi, q, enc, qs))
        _, q, enc, qs = min(scored)
    omega = _omega_point(enc.hi, q) if q > 1 else Fraction(0)
    return SimultaneousWitness(q, qs, enc, omega, enc.le_certain(target), bound)


@dataclass(frozen=True)
class OmegaReport:
    q_bound: int
    best_q: int
    omega_best: Fraction
    best_dist: Enclosure
    tail_q: int
    omega_tail: Fraction
    tail_dist: Enclosure


def omega0_search(point: PointVec, q_bound: int) -> OmegaReport:
    """Largest pointwise exponent over q0 in [2, q_bound], plus the same
    restricted to the top half of the range.

    Each half walks the record stream of :func:`_records`, its window cut
    by the exponent reached so far (below). It bounds the exponent of each
    record it yields from above by its score (:func:`_omega_bounds`), then
    certifies exponents with exact enclosures in descending order of those
    bounds until a bound falls below the largest certified exponent, and
    keeps the largest, ties to the smaller q0; the whole range's answer is
    the larger of the halves'. A record left out by its bound certifies at
    most that bound, so it could neither beat nor tie the one kept. The
    reported exponents are certified lower bounds at their denominators. A
    half whose stream has more than DEFAULT_BUDGET candidates raises
    RANGE_TOO_LARGE.

    The stream keeps om >= 0, the largest floor (:func:`_omega_bounds`) of
    its records so far, each at most the exponent its record certifies, and
    cuts its window at bits(q) = b to ceil(M / 2**t) + err, t = floor(om (b
    - 1)). A q' >= q that window leaves out has M d(q') > ceil(M / 2**t), the
    score error being below err, so d(q') > 2**-t >= q'**-om: its exponent,
    and the bound it would certify, are below om, so it could neither beat
    nor tie the record that set om.
    """
    q_bound = as_integer(q_bound, what="q_bound")
    if q_bound < 2:
        raise PreconditionError("BAD_PARAMS", f"q_bound={q_bound} must be >= 2")
    ratios = point.ratio_oracles()
    M, fixed = _fixed_points(ratios, q_bound)
    err = q_bound + 2
    half = q_bound // 2

    def largest(lo, hi):
        om, capped = (0, 1), []
        # ceil(M / 2**t) + err: a floor, 0 once t > w, would prune on d(q') > 0
        for q, s in _records(fixed, M, err, lo, hi, M, lambda b: err - (-M >> om[0] * (b - 1) // om[1])):
            cap, (n, m) = _omega_bounds(M, s, err, q)
            capped.append((cap, -q))
            if n * om[1] > om[0] * m:
                om = n, m
        # descending caps, ties to the smaller q
        capped.sort(reverse=True)
        best = ()
        for cap, neg_q in capped:
            if best and cap < best[0]:
                break
            enc, _ = _refined_max_dist(ratios, -neg_q)
            best = max(best, (_omega_point(enc.hi, -neg_q), neg_q, enc))
        return best

    halves = [(2, half), (max(2, half + 1), q_bound)]
    found = [largest(lo, hi) for lo, hi in halves if lo <= hi]
    top, tail = max(found), found[-1]
    return OmegaReport(q_bound, -top[1], top[0], top[2], -tail[1], tail[0], tail[2])


@dataclass(frozen=True)
class FormSequence:
    ns: tuple
    forms: tuple
    point: PointVec
    scales: Optional[tuple] = None
    scale_e_power: Optional[int] = None

    def __post_init__(self):
        """Integer indices, scales and scale power, the scales positive; else BAD_FORM."""
        object.__setattr__(self, "ns", tuple(as_integers(self.ns, "BAD_FORM", "index")))
        if len(self.ns) != len(self.forms):
            raise PreconditionError("BAD_FORM", "index and form counts differ")
        if self.scale_e_power is not None:
            power = as_integer(self.scale_e_power, "BAD_FORM", "scale power")
            object.__setattr__(self, "scale_e_power", power)
        if self.scales is not None:
            scales = tuple(as_integers(self.scales, "BAD_FORM", "scale"))
            object.__setattr__(self, "scales", scales)
            if len(scales) != len(self.forms):
                raise PreconditionError("BAD_FORM", "scale and form counts differ")
            if min(scales, default=1) <= 0:
                raise PreconditionError("BAD_FORM", "scales must be positive")

    def __len__(self):
        return len(self.forms)

    @classmethod
    def from_uv(cls, rows, oracle: RealOracle):
        """Rows (n, u, v) for forms u*xi - v against the point (1, xi); an
        entry that is not an integer raises BAD_FORM."""
        rows = list(rows)
        forms = tuple(LinearForm((-as_integer(v, "BAD_FORM", "coefficient"), u)) for _, u, v in rows)
        point = PointVec((RationalOracle(1, spec="rat:1"), oracle))
        return cls(tuple(n for n, _, _ in rows), forms, point)


def _scale_growth(seq: FormSequence) -> Optional[Enclosure]:
    if seq.scale_e_power is None:
        return None
    return EOracle().enclose(128).pow_int(seq.scale_e_power)


def tau_empirical(seq: FormSequence, window=None) -> RateEstimate:
    """Decay exponent of a form family, with the same adaptive ratio
    estimation and regularity gate as the two-term case; indices must be
    strictly increasing. The window's top form is evaluated first, once the
    window is validated, then the rest upward: a fresh oracle computes its
    finest level alone, and the lower forms read that enclosure from its
    cache."""
    if len(seq) < 3:
        raise PreconditionError("BAD_FORM", "need at least 3 forms")
    if window is not None:
        window = as_integers(window, what="window end")  # read twice
        if len(window) != 2:
            raise PreconditionError("BAD_PARAMS", f"window {window} needs 2 ends, (lo, hi)")

    def value(i):
        return evaluate_form(seq.forms[i], seq.point, index=seq.ns[i]).abs()

    top = {}

    def residual(i):
        # the first read comes once the window is validated
        if not top:
            j = len(seq) - 1 if window is None else bisect(seq.ns, window[1]) - 1
            top[j] = value(j)
        return top[i] if i in top else value(i)

    def height(i):
        return seq.forms[i].height

    growth = _scale_growth(seq)
    return _measure_core(list(seq.ns), residual, height, window, seq.scales, growth)


@dataclass(frozen=True)
class NesterenkoReport:
    tau_hat: Fraction
    implied_dim_bound: Fraction
    omega_tail: Fraction
    consistent: Optional[bool]
    rate: RateEstimate
    omega: OmegaReport


def nesterenko_report(
    seq: FormSequence,
    omega_bound: int,
    window=None,
    slack: Fraction = Fraction(1, 10),
) -> NesterenkoReport:
    """Dimension bound tau + 1 implied by a decaying form family, with the
    exponent chain cross-check tau <= 1/omega + slack."""
    slack = as_rational(slack, what="slack")
    rate = tau_empirical(seq, window=window)
    omega = omega0_search(seq.point, omega_bound)
    implied = rate.tau_hat + 1
    if omega.omega_tail > 0:
        consistent = rate.tau_hat <= 1 / omega.omega_tail + slack
    else:
        consistent = None
    return NesterenkoReport(
        rate.tau_hat, implied, omega.omega_tail, consistent, rate, omega
    )


def apery_forms(s: int, count: int) -> FormSequence:
    """Integer forms from the zeta(3) / zeta(2) recurrences, indices 0..count.

    The rational solution pairs (a_n, b_n) of n**s y_n = P(n) y_(n-1) -+
    (n-1)**s y_(n-2) are promoted to integer forms by the lcm-power scales
    S_n = 2*lcm(1..n)**3 (s=3) and lcm(1..n)**2 (s=2); the scales are
    recorded so rate measurement can descale and multiply back the
    asymptotic growth e**3 or e**2. The recurrence runs on U_n = S_n a_n and
    V_n = S_n b_n themselves, with the integer scale ratios S_n / S_(n-1) and
    S_n / S_(n-2) on the right, so its one division is by the small n**s:
    exact precisely when S_n a_n and S_n b_n are integers, which each
    remainder checks (INTEGRALITY). A non-integral s or count raises
    BAD_PARAMS.
    """
    s, count = as_integer(s, what="s"), as_integer(count, what="count")
    if s not in (2, 3):
        raise PreconditionError("BAD_PARAMS", f"s={s} must be 2 or 3")
    if count < 2:
        raise PreconditionError("BAD_PARAMS", f"count={count} must be >= 2")
    if s == 3:
        def P(n):
            return 34 * n**3 - 51 * n**2 + 27 * n - 5

        sign, lead, (U1, V1), zeta = -1, 2, (5, 6), Zeta3Oracle()
    else:
        def P(n):
            return 11 * n**2 - 11 * n + 3

        sign, lead, (U1, V1), zeta = 1, 1, (3, 5), Zeta2Oracle()
    # the scale is lead * d**s with d = lcm(1..n); S_0 = S_1 = lead
    U, V = [lead, lead * U1], [0, lead * V1]
    d, r_prev = 1, 1
    scales = [lead] * 2
    for n in range(2, count + 1):
        # S_n / S_(n-1) = r**s and S_n / S_(n-2) = (r r_prev)**s for r = lcm(d, n) / d,
        # which is 1 unless n is a prime power, the only n that d does not divide
        r = lcm(d, n) // d if d % n else 1
        d *= r
        c1 = P(n) * r**s
        c2 = sign * ((n - 1) * r * r_prev) ** s
        u, u_rem = divmod(c1 * U[-1] + c2 * U[-2], n**s)
        v, v_rem = divmod(c1 * V[-1] + c2 * V[-2], n**s)
        if u_rem or v_rem:
            raise CertificateError(
                "INTEGRALITY", f"scaled pair at n={n} is not integral"
            )
        U.append(u)
        V.append(v)
        scales.append(scales[-1] if r == 1 else lead * d**s)
        r_prev = r
    point = PointVec((RationalOracle(1, spec="rat:1"), zeta))
    return FormSequence(
        tuple(range(count + 1)),
        tuple(LinearForm((-v, u)) for u, v in zip(U, V)),
        point,
        scales=tuple(scales),
        scale_e_power=s,
    )
