"""Construction of good approximation sequences and rate measurement.

``build_sequence`` drives the two-case dichotomy once per index n against
shrinking bands around target sizes (Q_n, eps_n), producing entries whose
coefficient and residual ratios are certified to lie in
[lambda_n^(-1/2), lambda_n^(1/2)] and [mu_n^(-1/2), mu_n^(1/2)] with
lambda_n = 1 + eta_n, mu_n = 1 + 2 eta_n. The band certificates are exact
rational squared comparisons.

``measure_rates`` estimates the geometric decay alpha and growth beta of a
given sequence. Headline values come from consecutive ratios at the window
end, Richardson-extrapolated when the ratio sequence is stable and otherwise
replaced by the window geometric mean. A regularity gate zeroes the decay
exponent when consecutive log-residual quotients stray from 1 by more than
1/4, and a no-decay gate covers sequences whose residuals do not shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from math import isqrt
from typing import Optional

from .certlog import LOG_BITS, ln_frac, ln_quotient
from .dichotomy import LemmaParams, solve_disjunction
from .enclosure import (
    Enclosure,
    Rat,
    _ends,
    as_integer,
    as_integers,
    as_rational,
    root_enclosure,
)
from .errors import (
    CaseIPersists,
    CertificateError,
    PreconditionError,
    RateViolation,
    ZeroResidual,
    brief,
)
from .oracle import (
    AffineOracle,
    RealOracle,
    floor_certified,
    is_separated,
    nearest_int,
    refine,
    separated,
)

ETA_GRID_BITS = 40
ETA_MAX = Fraction(9, 20)
SHRINK = 1 - Fraction(1, 1 << 40)
# build_sequence refuses a range whose top half takes case (i) more often
CASE_I_FRACTION = Fraction(1, 5)
REGULARITY_DELTA = Fraction(1, 4)


def _by_index(rows, name: str) -> dict:
    """{n: the values} of ``rows`` (n, *values), left for the schedule to read."""
    table = {}
    for row in rows:
        if not row:
            raise PreconditionError("BAD_PARAMS", f"{name} table has an empty row")
        n, *values = row
        n = as_integer(n, what="row index")
        if n in table:
            raise PreconditionError("BAD_PARAMS", f"{name} table has two rows for n={n}")
        table[n] = tuple(values)
    return table


def _read_table(table: dict, name: str, width: int) -> tuple:
    """({n: values as Fractions}, the n ascending) of ``table`` {n: values},
    ``width`` values each, one value given bare or not; a single value is kept bare."""
    read = {}
    for n, values in table.items():
        n = as_integer(n, what="row index")
        values = tuple(values) if isinstance(values, (tuple, list)) else (values,)
        if len(values) != width:
            raise PreconditionError("BAD_PARAMS", f"{name} table row n={n} needs {width} values")
        values = tuple(as_rational(v, what=f"{name} table entry") for v in values)
        read[n] = values if width > 1 else values[0]
    if not read:
        raise PreconditionError("BAD_PARAMS", f"empty {name} table")
    return read, sorted(read)


@dataclass(frozen=True)
class RateSpec:
    """Target sizes per index: geometric (Q_n, eps_n) = (beta^n, alpha^n) when
    there is no table, else the table's {n: (Q_n, eps_n)}. Checked and read
    where built: 0 < alpha < 1 < beta, or no alpha or beta and Q_n > 1,
    0 < eps_n < 1, Q increasing and eps decreasing in n."""

    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    table: Optional[dict] = None

    def __post_init__(self):
        if self.table is None:
            a, b = as_rational(self.alpha, what="alpha"), as_rational(self.beta, what="beta")
            if not (0 < a < 1 < b):
                raise PreconditionError(
                    "BAD_PARAMS", f"geometric rates need 0 < alpha < 1 < beta, got {a}, {b}"
                )
            object.__setattr__(self, "alpha", a)
            object.__setattr__(self, "beta", b)
            return
        if (self.alpha, self.beta) != (None, None):
            raise PreconditionError("BAD_PARAMS", "a rate table takes no alpha or beta")
        table, ns = _read_table(self.table, "rate", 2)
        rows = [table[n] for n in ns]
        if any(Q >= Q1 or eps <= eps1 for (Q, eps), (Q1, eps1) in zip(rows, rows[1:])):
            raise PreconditionError("BAD_PARAMS", "rate table must have Q increasing and eps decreasing")
        for n in ns:
            if not (table[n][0] > 1 and 0 < table[n][1] < 1):
                raise PreconditionError("BAD_PARAMS", f"row n={n} needs Q > 1 and 0 < eps < 1")
        object.__setattr__(self, "table", table)

    @classmethod
    def geometric(cls, alpha: Rat, beta: Rat) -> "RateSpec":
        # RateSpec(alpha, beta) by name, as bench/workloads.py calls it
        return cls(alpha, beta)

    @classmethod
    def from_table(cls, rows) -> "RateSpec":
        return cls(table=_by_index(rows, "rate"))

    def targets(self, n: int):
        """((Qn, Qd), (en, ed)): Q_n = Qn/Qd and eps_n = en/ed in lowest terms."""
        n = as_integer(n, what="index")
        if self.table is None:
            (p, q), (r, s) = self.beta.as_integer_ratio(), self.alpha.as_integer_ratio()
            return ((p**n, q**n), (r**n, s**n)) if n >= 0 else ((q**-n, p**-n), (s**-n, r**-n))
        if n not in self.table:
            raise PreconditionError("BAD_PARAMS", f"rate table has no row for n={n}")
        Q, eps = self.table[n]
        return Q.as_integer_ratio(), eps.as_integer_ratio()


@dataclass(frozen=True)
class EtaSchedule:
    """Band half-width schedule eta_n, positive and nonincreasing.

    Without a table the rule is min(9/20, 1/ln(n+3)) rounded down to the
    2**-40 grid; the clamp keeps 1 + 2 eta below 2 at the smallest indices. A
    table {n: eta_n} is checked and read where built: each value in (0, 1/2),
    nonincreasing in n.
    """

    table: Optional[dict] = None

    def __post_init__(self):
        if self.table is not None:
            table, ns = _read_table(self.table, "eta", 1)
            if any(table[a] < table[b] for a, b in zip(ns, ns[1:])):
                raise PreconditionError("BAD_PARAMS", "eta table must be nonincreasing")
            for n in ns:
                if not (0 < table[n] < Fraction(1, 2)):
                    raise PreconditionError("BAD_PARAMS", f"eta at n={n} must be in (0, 1/2)")
            object.__setattr__(self, "table", table)

    @classmethod
    def custom(cls, pairs) -> "EtaSchedule":
        return cls(_by_index(pairs, "eta"))

    def value(self, n: int) -> Fraction:
        n = as_integer(n, what="index")
        if self.table is not None:
            if n not in self.table:
                raise PreconditionError("BAD_PARAMS", f"eta table has no row for n={n}")
            return self.table[n]
        if n < -1:
            raise PreconditionError("BAD_PARAMS", f"row n={n}: eta rule 1/ln(n+3) needs n >= -1")
        # floor(2**40 / ln_hi) over 2**40, from ln_hi = h/d, the log's upper end
        ln = ln_frac(n + 3, LOG_BITS)
        g = (ln.d << ETA_GRID_BITS) // ln.h
        clamped = g * ETA_MAX.denominator >= ETA_MAX.numerator << ETA_GRID_BITS
        return ETA_MAX if clamped else Fraction(g, 1 << ETA_GRID_BITS)


@dataclass(frozen=True)
class ApproxSequenceEntry:
    n: int
    u: int
    v: int
    residual: Enclosure
    ratio_u: Fraction
    ratio_res: Enclosure
    case_taken: str


@dataclass(frozen=True)
class BuildResult:
    entries: tuple
    shift: int
    eta_used: dict

    def __iter__(self):
        return iter(self.entries)


def _ln_ratio_hi(x, y):
    """(p, q), q > 0, with p/q >= ln x / ln y for rationals x, y > 1, each a
    number or an integer pair as ln_frac takes them: the upward ln_quotient
    of the logs at LOG_BITS whatever the precision cap. Only where ln y's
    lower end is 0, as for y within about 2**-97 of 1, ln y climbs the ladder
    from 2 LOG_BITS until it is positive; INCONCLUSIVE at the cap."""
    ln_x = ln_frac(x, LOG_BITS)

    def step(k):
        return ln_quotient(ln_x, ln_frac(y, k), up=True)

    def what():
        return f"ln({brief(Fraction(*y) if y.__class__ is tuple else y)}) not certified positive"

    ratio = step(LOG_BITS)
    return ratio if ratio is not None else refine(step, what, start=2 * LOG_BITS)


def _rate_precheck(rates: RateSpec, ns, mu_upper: Fraction, slack: Fraction):
    """RATE_VIOLATION at the first row whose -log eps / log Q may exceed
    1/(mu_upper - 1) + slack = bn/bd; a geometric spec's rows share the ratio
    of (Q, eps) = (beta, alpha), checked once and named by no row."""
    (Mn, Md), (sn, sd) = mu_upper.as_integer_ratio(), slack.as_integer_ratio()
    bn, bd = Md * sd + sn * (Mn - Md), (Mn - Md) * sd
    if rates.table is None:
        rows = [("", rates.beta.as_integer_ratio(), rates.alpha.as_integer_ratio())]
    else:
        rows = [(f"row n={n}: ", *rates.targets(n)) for n in ns]
    for where, (Qn, Qd), (en, ed) in rows:
        rn, rd = _ln_ratio_hi((ed, en), (Qn, Qd))
        if rn * bd > bn * rd:
            raise RateViolation(f"{where}-log eps / log Q ~ {rn / rd:.4f} exceeds "
                                f"1/(mu_upper-1) + {slack} = {bn / bd:.4f}")


def _missed_band(ratio_u: Fraction, ratio_res: Enclosure, eta: Fraction):
    """The band a case (ii) entry misses, "coefficient" or "residual", else
    None: ratio_u**2 in [1/lam, lam], ratio_res**2 certainly in [1/mu, mu] for
    ratio_res >= 0, lam = 1 + eta and mu = 1 + 2 eta, by cross products."""
    (a, b), (hn, hd) = ratio_u.as_integer_ratio(), eta.as_integer_ratio()
    a2, b2, lam, mu = a * a, b * b, hd + hn, hd + 2 * hn
    if not (a2 * hd <= b2 * lam and a2 * lam >= b2 * hd):
        return "coefficient"
    l, h, d2 = ratio_res.l, ratio_res.h, ratio_res.d * ratio_res.d
    if not (h * h * hd <= mu * d2 and l * l * mu >= hd * d2):
        return "residual"
    return None


def build_sequence(
    oracle: RealOracle,
    mu_upper: Rat,
    rates: RateSpec,
    n_range,
    eta: Optional[EtaSchedule] = None,
    rate_slack: Fraction = Fraction(1, 20),
) -> BuildResult:
    """Run the banded construction for each n in ``n_range``.

    The value is normalized into (0, 1) by subtracting its floor; output
    numerators are shifted back so that u*xi - v refers to the original
    value. Raises RATE_VIOLATION if the target rates are too steep for
    mu_upper (slack 1/20 by default) and CASE_I_PERSISTS when case (i) hits
    more than a fifth of the top half of the range.
    """
    mu_upper = as_rational(mu_upper, what="mu_upper")
    rate_slack = as_rational(rate_slack, what="rate_slack")
    if mu_upper.numerator <= mu_upper.denominator:
        raise PreconditionError("BAD_PARAMS", f"mu_upper {mu_upper} must be > 1")
    ns = as_integers(n_range, what="index")
    if not ns:
        raise PreconditionError("BAD_PARAMS", "empty index range")
    eta = eta or EtaSchedule()
    _rate_precheck(rates, ns, mu_upper, rate_slack)
    eta_used = {n: eta.value(n) for n in ns}
    shift = floor_certified(oracle)
    # kept: each rung k reads the value at level_for(k + 4), a level finer, and
    # solving on the unshifted oracle measured 5 % fewer ops/s, 8 % higher p90
    inner = oracle if shift == 0 else AffineOracle(1, -shift, oracle)
    entries = []
    shrink_n, shrink_d = SHRINK.as_integer_ratio()
    for n in ns:
        (Qn, Qd), (en, ed) = rates.targets(n)
        # lam/hd = 1 + eta and mu/hd = 1 + 2 eta; sl and sm over 2**64 their roots, rounded down
        hn, hd = eta_used[n].as_integer_ratio()
        lam, mu = hd + hn, hd + 2 * hn
        sl, sm = isqrt((lam << 128) // hd), isqrt((mu << 128) // hd)
        if Qn << 64 <= Qd * sl:
            raise PreconditionError("BAD_PARAMS", f"row n={n}: Q_n={Fraction(Qn, Qd)} is too small "
                                    "for its band, need Q_n / sqrt(1 + eta_n) > 1")
        params = LemmaParams(
            Fraction(lam * shrink_n, hd * shrink_d), Fraction(mu * shrink_n, hd * shrink_d),
            Fraction(en << 64, ed * sm), Fraction(Qn << 64, Qd * sl))
        res = solve_disjunction(inner, params)
        case_ii = res.outcome == "case_ii"
        u, v = (res.witness.q, res.witness.p) if case_ii else (res.witness.u, res.witness.v)
        r = res.residual if case_ii else _form_enclosure(inner, u, v)
        a = r.abs()
        ratio_u, ratio_res = Fraction(u * Qd, Qn), Enclosure.from_ints(a.l * ed, a.h * ed, a.d * en)
        missed = case_ii and _missed_band(ratio_u, ratio_res, eta_used[n])
        if missed:
            raise CertificateError("BAND_VIOLATION", f"{missed} band failed at n={n}, q={u}")
        entries.append(ApproxSequenceEntry(n=n, u=u, v=v + shift * u, residual=r, ratio_u=ratio_u,
                                           ratio_res=ratio_res, case_taken="ii" if case_ii else "i"))
    half_start = ns[len(ns) // 2]
    top = [e for e in entries if e.n >= half_start]
    bad = sum(1 for e in top if e.case_taken == "i")
    if top and bad * CASE_I_FRACTION.denominator > CASE_I_FRACTION.numerator * len(top):
        raise CaseIPersists(
            f"case (i) hit {bad}/{len(top)} of the top half; "
            f"mu_upper={mu_upper} likely at or below the true exponent",
            entries=entries,
        )
    return BuildResult(tuple(entries), shift, eta_used)


def _form_enclosure(oracle: RealOracle, u: int, v: int) -> Enclosure:
    """Signed enclosure of u xi - v, separated from zero; ZERO_RESIDUAL at the point 0."""

    def enclose_at(k):
        r = oracle.enclose(k) * u - v
        if r.sign() == 0:
            raise ZeroResidual(f"u={u}, v={v} annihilates the rational value")
        return r

    return separated(enclose_at, lambda: f"residual |{u} xi - {v}| not separated from 0")


def lemma1_bound(alpha_hat: Rat, beta_hat: Rat) -> Fraction:
    """Certified-rounding upper evaluation of 1 - log(beta)/log(alpha) for the
    geometric rates (alpha_hat, beta_hat), checked as a RateSpec."""
    rates = RateSpec(alpha_hat, beta_hat)
    rn, rd = _ln_ratio_hi(rates.beta, (rates.alpha.denominator, rates.alpha.numerator))
    return Fraction(rn + rd, rd)


@dataclass(frozen=True)
class RateEstimate:
    alpha_hat: Fraction
    beta_hat: Fraction
    tau_hat: Fraction
    method: str
    regular: bool
    decayed: bool
    window: tuple
    alpha_enclosure: Enclosure
    beta_enclosure: Enclosure


def _estimate_limit(values, ns, positions):
    """Ratio-based limit estimate over the window; returns (enclosure, method).

    ``values`` are positive Enclosures. Richardson extrapolation of the last
    two consecutive ratios when they are stable to 2**-6, else the window
    geometric mean of the total ratio.
    """
    if len(positions) >= 3:
        a, b, c = positions[-3:]
        x0, x1 = values[b] / values[a], values[c] / values[b]
        # m1 > 0, |m1 - m0| <= m1/64 and width(x1) <= m1/64 on the mids s0/(2 d0) and s1/(2 d1)
        s0, s1 = x0.l + x0.h, x1.l + x1.h
        if s1 > 0 and 64 * abs(s1 * x0.d - s0 * x1.d) <= s1 * x0.d and 128 * (x1.h - x1.l) <= s1:
            n0, n1 = ns[b], ns[c]
            return ((x1 * n1) - (x0 * n0)) / (n1 - n0), "ratio-richardson"
    p0, p1 = positions[0], positions[-1]
    span = ns[p1] - ns[p0]
    total = values[p1] / values[p0]
    return root_enclosure(total, span, 64), "ratio-geomean"


def measure_rates(entries, oracle: RealOracle) -> RateEstimate:
    """Estimate decay alpha, growth beta and exponent tau for a sequence.

    ``entries`` are (n, u, v) rows or ApproxSequenceEntry objects, with n
    strictly increasing; the window is the top half of the entries.
    """
    rows = [
        (e.n, e.u, e.v) if isinstance(e, ApproxSequenceEntry)
        else tuple(as_integers(e, what="row entry"))
        for e in entries
    ]
    if len(rows) < 3:
        raise PreconditionError("BAD_PARAMS", "need at least 3 entries")
    ns = [n for n, _, _ in rows]
    heights = [abs(u) for _, u, _ in rows]
    if 0 in heights:
        raise PreconditionError("BAD_PARAMS", "zero coefficient u in entries")

    def residual(i):
        _, u, v = rows[i]
        return _form_enclosure(oracle, u, v).abs()

    return _measure_core(ns, residual, heights.__getitem__, None, None, None)


def _power_test(x: int, xd: int, y: int, yd: int) -> bool:
    """|ln y / ln x - 1| <= REGULARITY_DELTA = p/q for x = x/xd and y = y/yd,
    all positive, exactly: x != 1 and y**q lies between x**(q - p) and
    x**(q + p)."""
    p, q = REGULARITY_DELTA.numerator, REGULARITY_DELTA.denominator
    # the signs of y**q - x**e, e = q - p and q + p, over positive denominators
    s1, s2 = (y**q * xd**e - x**e * yd**q for e in (q - p, q + p))
    return x != xd and min(s1, s2) <= 0 <= max(s1, s2)


def _regular_step(a, b) -> bool:
    """|ln y / ln x - 1| <= REGULARITY_DELTA = p/q for x, y > 0, the rationals
    ``a`` and ``b`` or the upper ends of those enclosures.

    That holds when f_e = q log2 y - e log2 x, for e = q - p and q + p,
    differ in sign or one is 0. For x = X/D, log2 x lies strictly within 1
    of bits(X) - bits(D), so f_e lies strictly within q + e of the same sum
    on bit lengths. When that settles both signs it decides: opposite signs
    pass (and force x != 1), equal ones fail. Otherwise the exact
    :func:`_power_test` decides, with the same answer."""
    p, q = REGULARITY_DELTA.numerator, REGULARITY_DELTA.denominator
    (_, x, xd), (_, y, yd) = _ends(a), _ends(b)
    ex, ey = x.bit_length() - xd.bit_length(), y.bit_length() - yd.bit_length()
    c1, c2 = q * ey - (q - p) * ex, q * ey - (q + p) * ex
    if abs(c1) >= 2 * q - p and abs(c2) >= 2 * q + p:
        return (c1 > 0) != (c2 > 0)
    return _power_test(x, xd, y, yd)


def _measure_core(ns, residual, height, window, scales, scale_growth) -> RateEstimate:
    """Shared ratio-estimation engine over residual enclosures and heights.

    ``residual(i)`` encloses the absolute residual of entry i; it is called
    only for the window's entries, once the indices are validated.
    ``height(i)`` is entry i's height, read only where
    :func:`_estimate_limit` reads: the window's first entry and its last
    three. With ``scales`` the ratios are measured on the descaled data and
    multiplied back by ``scale_growth``, the certified per-step growth factor
    of the scales (1 when None); without them ``scale_growth`` is ignored.
    Only those same entries are descaled. The regularity gate
    :func:`_regular_step` runs on consecutive residuals' upper ends and takes
    no logarithm: it decides on bit lengths, and on an exact power test only
    where they cannot.
    """
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise PreconditionError("BAD_PARAMS", "indices n must be strictly increasing")
    if window is None:
        pos = list(range(len(ns) // 2, len(ns)))
    else:
        lo, hi = as_integers(window, what="window end")
        pos = [i for i, n in enumerate(ns) if lo <= n <= hi]
    if len(pos) < 2:
        raise PreconditionError("BAD_PARAMS", "window keeps fewer than 2 entries")
    raw_res = {i: residual(i) for i in pos}
    if scales is None:
        scales, scale_growth = [1] * len(ns), None
    core_res, core_h = {}, {}
    for i in {pos[0], *pos[-3:]}:
        # r / s and h / s on integers, for the int scale s > 0: no reciprocal, no gcd
        r, h, s = raw_res[i], height(i), scales[i]
        core_res[i] = Enclosure.from_ints(r.l, r.h, r.d * s)
        core_h[i] = Enclosure.from_ints(h, h, s)
    growth = scale_growth if scale_growth is not None else Enclosure.point(1)
    alpha_core, method_a = _estimate_limit(core_res, ns, pos)
    beta_core, method_b = _estimate_limit(core_h, ns, pos)
    alpha_enc, beta_enc = alpha_core * growth, beta_core * growth
    p0, p1 = pos[0], pos[-1]
    decayed = raw_res[p1].strictly_lt(raw_res[p0])
    # residuals are separated from zero, so one end of each will do
    in_band = sum(1 for i, j in zip(pos, pos[1:]) if _regular_step(raw_res[i], raw_res[j]))
    regular = 2 * in_band >= len(pos) - 1
    alpha_hat, beta_hat, tau_hat = alpha_enc.hi, beta_enc.hi, Fraction(0)
    if decayed and regular and alpha_enc.strictly_lt(1) and beta_enc.strictly_gt(1):
        ln_a = ln_frac((alpha_hat.denominator, alpha_hat.numerator), LOG_BITS)
        tau_hat = Fraction(*ln_quotient(ln_a, ln_frac(beta_hat, LOG_BITS)))
    return RateEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        tau_hat=tau_hat,
        method=f"{method_a}/{method_b}",
        regular=regular,
        decayed=decayed,
        window=(ns[p0], ns[p1]),
        alpha_enclosure=alpha_enc,
        beta_enclosure=beta_enc,
    )


@dataclass(frozen=True)
class DensityData:
    alpha_xi: Fraction
    beta_u: Fraction
    nu_estimate: Fraction
    distances: tuple


def density_data(u_seq, oracle: RealOracle) -> DensityData:
    """Finite-range density quantities for a nondecreasing positive u sequence.

    alpha_xi is the largest consecutive ratio of the nearest-integer
    distances, each taken separated from zero on its one ladder, beta_u the
    largest consecutive ratio of the u, and nu_estimate = log sqrt(alpha_xi
    * beta_u), rounded up. A distance that is exactly 0 raises ZERO_RESIDUAL.
    """
    us = as_integers(u_seq, what="denominator")
    if len(us) < 2:
        raise PreconditionError("BAD_PARAMS", "need at least 2 denominators")
    if any(u <= 0 for u in us) or any(b < a for a, b in zip(us, us[1:])):
        raise PreconditionError("BAD_PARAMS", "u sequence must be positive and nondecreasing")
    dists = []
    for u in us:
        _, d = nearest_int(oracle, u, is_separated)
        if d.sign() == 0:
            raise ZeroResidual(f"u={u} lands exactly on an integer")
        dists.append(d)
    top = reduce(Enclosure.max, [b / a for a, b in zip(dists, dists[1:])])
    bn, bd = max(zip(us[1:], us), key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    pn, pd = top.h * bn, top.d * bd
    nu = Fraction(0)
    if pn != pd:
        ln = ln_frac((pn, pd), LOG_BITS)
        nu = Fraction(ln.h, 2 * ln.d)
    return DensityData(Fraction(top.h, top.d), Fraction(bn, bd), nu, tuple(dists))
