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
from typing import Optional

from .certlog import ln_enclosure, ln_frac
from .dichotomy import LemmaParams, solve_disjunction
from .enclosure import (
    Enclosure,
    Rat,
    _frac,
    dyadic_below,
    root_enclosure,
    sqrt_lower,
)
from .errors import (
    CaseIPersists,
    CertificateError,
    PreconditionError,
    RateViolation,
    ZeroResidual,
)
from .oracle import (
    SEPARATION_BITS,
    AffineOracle,
    RealOracle,
    floor_certified,
    level_for,
    nearest_int,
    separated,
)

ETA_GRID_BITS = 40
ETA_MAX = Fraction(9, 20)
SHRINK = 1 - Fraction(1, 1 << 40)
# build_sequence refuses a range whose top half takes case (i) more often
CASE_I_FRACTION = Fraction(1, 5)
REGULARITY_DELTA = Fraction(1, 4)


@dataclass(frozen=True)
class RateSpec:
    """Target sizes per index: geometric (Q_n, eps_n) = (beta^n, alpha^n) or
    an explicit table of rows."""

    kind: str
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    table: Optional[dict] = None

    @classmethod
    def geometric(cls, alpha: Rat, beta: Rat) -> "RateSpec":
        a, b = _frac(alpha), _frac(beta)
        if not (0 < a < 1 < b):
            raise PreconditionError(
                "BAD_PARAMS", f"geometric rates need 0 < alpha < 1 < beta, got {a}, {b}"
            )
        return cls("geometric", alpha=a, beta=b)

    @classmethod
    def from_table(cls, rows) -> "RateSpec":
        table = {}
        for n, Q, eps in rows:
            if int(n) in table:
                raise PreconditionError("BAD_PARAMS", f"rate table has two rows for n={n}")
            table[int(n)] = (_frac(Q), _frac(eps))
        if not table:
            raise PreconditionError("BAD_PARAMS", "empty rate table")
        ns = sorted(table)
        for a, b in zip(ns, ns[1:]):
            if table[a][0] >= table[b][0] or table[a][1] <= table[b][1]:
                raise PreconditionError(
                    "BAD_PARAMS",
                    "rate table must have Q increasing and eps decreasing",
                )
        for n in ns:
            Q, eps = table[n]
            if not (Q > 1 and 0 < eps < 1):
                raise PreconditionError(
                    "BAD_PARAMS", f"row n={n} needs Q > 1 and 0 < eps < 1"
                )
        return cls("table", table=table)

    def targets(self, n: int):
        if self.kind == "geometric":
            return self.beta**n, self.alpha**n
        if n not in self.table:
            raise PreconditionError("BAD_PARAMS", f"rate table has no row for n={n}")
        return self.table[n]


@dataclass(frozen=True)
class EtaSchedule:
    """Band half-width schedule eta_n, positive and nonincreasing.

    The default rule is min(9/20, 1/ln(n+3)) rounded down to the 2**-40 grid;
    the clamp keeps 1 + 2 eta below 2 at the smallest indices. Custom tables
    are used as given and must respect eta < 1/2 themselves.
    """

    table: Optional[dict] = None

    @classmethod
    def default_rule(cls) -> "EtaSchedule":
        return cls(None)

    @classmethod
    def custom(cls, pairs) -> "EtaSchedule":
        table = {}
        for n, v in pairs:
            if int(n) in table:
                raise PreconditionError("BAD_PARAMS", f"eta table has two rows for n={n}")
            table[int(n)] = _frac(v)
        ns = sorted(table)
        if not ns:
            raise PreconditionError("BAD_PARAMS", "empty eta table")
        for a, b in zip(ns, ns[1:]):
            if table[a] < table[b]:
                raise PreconditionError("BAD_PARAMS", "eta table must be nonincreasing")
        for n in ns:
            if not (0 < table[n] < Fraction(1, 2)):
                raise PreconditionError(
                    "BAD_PARAMS", f"eta at n={n} must be in (0, 1/2)"
                )
        return cls(table)

    def value(self, n: int) -> Fraction:
        if self.table is not None:
            if n not in self.table:
                raise PreconditionError("BAD_PARAMS", f"eta table has no row for n={n}")
            return self.table[n]
        ln_hi = ln_frac(n + 3, 96).hi
        eta = dyadic_below(1 / ln_hi, ETA_GRID_BITS)
        return min(ETA_MAX, eta)


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


def _rate_precheck(rates: RateSpec, n_range, mu_upper: Fraction, slack: Fraction):
    bound = 1 / (mu_upper - 1) + slack
    if rates.kind == "geometric":
        if min(n_range) < 1:
            raise PreconditionError(
                "BAD_PARAMS", f"geometric rates need n >= 1, got n={min(n_range)}"
            )
        ratio_hi = ln_frac(1 / rates.alpha, 96).hi / ln_frac(rates.beta, 96).lo
        if ratio_hi > bound:
            raise RateViolation(
                f"-log eps / log Q ~ {float(ratio_hi):.4f} exceeds "
                f"1/(mu_upper-1) + {slack} = {float(bound):.4f}"
            )
        return
    for n in n_range:
        Q, eps = rates.targets(n)
        ratio_hi = ln_frac(1 / eps, 96).hi / ln_frac(Q, 96).lo
        if ratio_hi > bound:
            raise RateViolation(
                f"row n={n}: -log eps / log Q ~ {float(ratio_hi):.4f} exceeds "
                f"{float(bound):.4f}"
            )


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
    mu_upper = _frac(mu_upper)
    if mu_upper <= 1:
        raise PreconditionError("BAD_PARAMS", f"mu_upper {mu_upper} must be > 1")
    ns = list(n_range)
    if not ns:
        raise PreconditionError("BAD_PARAMS", "empty index range")
    eta = eta or EtaSchedule.default_rule()
    _rate_precheck(rates, ns, mu_upper, rate_slack)
    shift = floor_certified(oracle)
    inner = oracle if shift == 0 else AffineOracle(1, -shift, oracle)
    entries = []
    eta_used = {}
    for n in ns:
        Q, eps = rates.targets(n)
        h = eta.value(n)
        if not (0 < h < Fraction(1, 2)):
            raise PreconditionError("BAD_PARAMS", f"eta_{n}={h} outside (0, 1/2)")
        eta_used[n] = h
        lam = 1 + h
        mu = 1 + 2 * h
        params = LemmaParams(
            lam * SHRINK,
            mu * SHRINK,
            eps / sqrt_lower(mu, 64),
            Q / sqrt_lower(lam, 64),
        )
        res = solve_disjunction(inner, params)
        if res.outcome == "case_ii":
            q, p = res.witness.q, res.witness.p
            if not (q * q <= lam * Q * Q and Q * Q <= lam * q * q):
                raise CertificateError(
                    "BAND_VIOLATION", f"coefficient band failed at n={n}, q={q}"
                )
            r = res.residual.abs()
            if not (r.lo**2 * mu >= eps**2 and r.hi**2 <= mu * eps**2):
                raise CertificateError(
                    "BAND_VIOLATION", f"residual band failed at n={n}, q={q}"
                )
            entries.append(
                ApproxSequenceEntry(
                    n=n,
                    u=q,
                    v=p + shift * q,
                    residual=res.residual,
                    ratio_u=Fraction(q) / Q,
                    ratio_res=Enclosure(r.lo / eps, r.hi / eps),
                    case_taken="ii",
                )
            )
        else:
            w = res.witness
            r = _form_enclosure(inner, w.u, w.v)
            a = r.abs()
            entries.append(
                ApproxSequenceEntry(
                    n=n,
                    u=w.u,
                    v=w.v + shift * w.u,
                    residual=r,
                    ratio_u=Fraction(w.u) / Q,
                    ratio_res=Enclosure(a.lo / eps, a.hi / eps),
                    case_taken="i",
                )
            )
    half_start = ns[len(ns) // 2]
    top = [e for e in entries if e.n >= half_start]
    bad = sum(1 for e in top if e.case_taken == "i")
    if top and Fraction(bad, len(top)) > CASE_I_FRACTION:
        raise CaseIPersists(
            f"case (i) hit {bad}/{len(top)} of the top half; "
            f"mu_upper={mu_upper} likely at or below the true exponent",
            entries=entries,
        )
    return BuildResult(tuple(entries), shift, eta_used)


def _form_enclosure(oracle: RealOracle, u: int, v: int) -> Enclosure:
    """Signed enclosure of u xi - v, separated from zero."""
    exact = oracle.exact_value()
    if exact is not None:
        r = u * exact - v
        if r == 0:
            raise ZeroResidual(f"u={u}, v={v} annihilates the rational value")
        return Enclosure.point(r)
    return separated(
        lambda k: oracle.enclose(k) * u - v,
        f"residual |{u} xi - {v}| not separated from 0",
    )


def lemma1_bound(alpha_hat: Rat, beta_hat: Rat) -> Fraction:
    """Certified-rounding upper evaluation of 1 - log(beta)/log(alpha)."""
    a, b = _frac(alpha_hat), _frac(beta_hat)
    if not (0 < a < 1 < b):
        raise PreconditionError(
            "BAD_PARAMS", f"need 0 < alpha_hat < 1 < beta_hat, got {a}, {b}"
        )
    return 1 + ln_frac(b, 96).hi / ln_frac(1 / a, 96).lo


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


def _window_positions(ns, window):
    if window is None:
        start = len(ns) // 2
        return list(range(start, len(ns)))
    lo, hi = window
    pos = [i for i, n in enumerate(ns) if lo <= n <= hi]
    return pos


def _richardson(x0: Enclosure, x1: Enclosure, n0: int, n1: int) -> Enclosure:
    return ((x1 * n1) - (x0 * n0)) * Fraction(1, n1 - n0)


def _estimate_limit(values, ns, positions):
    """Ratio-based limit estimate over the window; returns (enclosure, method).

    ``values`` are positive Enclosures. Richardson extrapolation of the last
    two consecutive ratios when they are stable to 2**-6, else the window
    geometric mean of the total ratio.
    """
    if len(positions) >= 3:
        a, b, c = positions[-3:]
        x0, x1 = values[b] / values[a], values[c] / values[b]
        m0, m1 = x0.mid, x1.mid
        stable = m1 > 0 and abs(m1 - m0) <= m1 / 64 and x1.width <= m1 / 64
        if stable:
            return _richardson(x0, x1, ns[b], ns[c]), "ratio-richardson"
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
        (e.n, e.u, e.v) if isinstance(e, ApproxSequenceEntry) else tuple(map(int, e))
        for e in entries
    ]
    if len(rows) < 3:
        raise PreconditionError("BAD_PARAMS", "need at least 3 entries")
    ns = [n for n, _, _ in rows]
    raw_h = [Fraction(abs(u)) for _, u, _ in rows]
    if any(h == 0 for h in raw_h):
        raise PreconditionError("BAD_PARAMS", "zero coefficient u in entries")

    def residual(i):
        _, u, v = rows[i]
        return _form_enclosure(oracle, u, v).abs()

    return _measure_core(ns, residual, raw_h, None, None, None)


def _measure_core(ns, residual, raw_h, window, scales, scale_growth) -> RateEstimate:
    """Shared ratio-estimation engine over residual enclosures and heights.

    ``residual(i)`` encloses the absolute residual of entry i; it is called
    only for the window's entries, once the indices are validated. With
    ``scales`` the ratios are measured on the descaled data and multiplied
    back by ``scale_growth``, the certified per-step growth factor of the
    scales (1 when None); without them ``scale_growth`` is ignored. Only the
    entries :func:`_estimate_limit` reads are descaled: the window's first
    and its last three.
    """
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise PreconditionError("BAD_PARAMS", "indices n must be strictly increasing")
    pos = _window_positions(ns, window)
    if len(pos) < 2:
        raise PreconditionError("BAD_PARAMS", "window keeps fewer than 2 entries")
    raw_res = {i: residual(i) for i in pos}
    read = {pos[0], *pos[-3:]}
    if scales is not None:
        core_res = {i: raw_res[i] * (1 / _frac(scales[i])) for i in read}
        core_h = {i: Enclosure.point(raw_h[i] / _frac(scales[i])) for i in read}
        growth = scale_growth if scale_growth is not None else Enclosure.point(1)
    else:
        core_res = raw_res
        core_h = {i: Enclosure.point(raw_h[i]) for i in read}
        growth = Enclosure.point(1)
    alpha_core, method_a = _estimate_limit(core_res, ns, pos)
    beta_core, method_b = _estimate_limit(core_h, ns, pos)
    alpha_enc = alpha_core * growth
    beta_enc = beta_core * growth
    p0, p1 = pos[0], pos[-1]
    decayed = raw_res[p1].hi < raw_res[p0].lo
    # residuals are separated from zero, so one log of one end will do
    ln_res = [ln_enclosure(raw_res[i].hi, 64).mid for i in pos]
    in_band = sum(
        1 for la, lb in zip(ln_res, ln_res[1:])
        if la != 0 and abs(lb / la - 1) <= REGULARITY_DELTA
    )
    regular = 2 * in_band >= len(pos) - 1
    if decayed and regular and alpha_enc.hi < 1 and beta_enc.lo > 1:
        tau_hat = ln_frac(1 / alpha_enc.hi, 96).lo / ln_frac(beta_enc.hi, 96).hi
    else:
        tau_hat = Fraction(0)
    return RateEstimate(
        alpha_hat=alpha_enc.hi,
        beta_hat=beta_enc.hi,
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
    distances, beta_u the largest consecutive ratio of the u, and
    nu_estimate = log sqrt(alpha_xi * beta_u), rounded up.
    """
    us = [int(u) for u in u_seq]
    if len(us) < 2:
        raise PreconditionError("BAD_PARAMS", "need at least 2 denominators")
    if any(u <= 0 for u in us) or any(b < a for a, b in zip(us, us[1:])):
        raise PreconditionError(
            "BAD_PARAMS", "u sequence must be positive and nondecreasing"
        )
    dists = []
    for u in us:
        v, d = nearest_int(oracle, u)
        d = _tighten_positive(oracle, u, v, d)
        dists.append(d)
    alpha = max((b / a).hi for a, b in zip(dists, dists[1:]))
    beta = max(Fraction(b, a) for a, b in zip(us, us[1:]))
    prod = alpha * beta
    nu = ln_frac(prod, 96).hi / 2 if prod != 1 else Fraction(0)
    return DensityData(alpha, beta, nu, tuple(dists))


def _tighten_positive(oracle, u, v: int, d: Enclosure) -> Enclosure:
    """The distance ``d`` of u xi from v, refined until separated from 0."""
    if d.lo > 0 and d.width <= d.lo / (1 << SEPARATION_BITS):
        return d
    if d.is_point():
        raise ZeroResidual(f"u={u} lands exactly on an integer")
    # nearest_int's ``d`` comes from the first level or finer and enclosures
    # nest, so the first rung would repeat the separation that failed
    return separated(
        lambda k: (oracle.enclose(k) * u - v).abs(),
        f"distance for u={u} not separated from 0",
        start=2 * level_for(1),
    )
