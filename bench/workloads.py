"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Each workload yields its inputs one *cycle* at a time. A cycle is a fixed list
of slots (which constant, which size stratum, which op kind); the seed only
picks the values inside each slot and the order of the ops. Every cycle
therefore carries the same mix of cheap and expensive ops, which keeps the
latency percentiles of one seed's op list close to those of another's.

An op goes through the public ``dioph`` API only. Its raw result is turned
into a plain summary outside the timed region, and the summary is checked
against values computed here without ``dioph``: ``mpmath`` for the catalog
constants, integer convergents for continued fractions, exhaustive search for
rational instances.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

import dioph
from dioph import LemmaParams, NeitherCaseCertified, PointVec, RateSpec, RationalOracle

# Ops call the library as dioph.<name>, looked up at call time, so that the
# tracer's wrappers on the package root see every call.

CONSTANTS = ("sqrt2", "sqrt3", "sqrt5", "golden", "e", "log2", "zeta2", "zeta3")

# Liouville-type CF oracles cf:liouville:B at Q = B**e that return case (i)
# and whose semiconvergent scan finishes in well under 0.2 s; larger bases or
# exponents make the scan run for seconds or exhaust the quotient supply.
# (B, e, eps) in three tiers by cost (about 5-50, 30-100 and 95-140 ms here);
# a cycle takes one of each, so every cycle carries the same case-(i) load.
CASE_I_TIERS = (
    ((3, 12, "1e-6"), (5, 6, "1e-6"), (3, 24, "1e-6"), (3, 20, "1e-6"), (2, 24, "1e-6")),
    ((6, 6, "1e-6"), (2, 30, "1e-6"), (2, 20, "1e-6"), (7, 6, "1e-6"), (3, 24, "1e-8")),
    ((3, 30, "1e-8"), (3, 20, "1e-8"), (4, 6, "1e-6"), (4, 12, "1e-6"), (4, 20, "1e-6")),
)

# (a, b) of the affine maps a * x + b that wrap half of lemma's constants
AFFINE_MAPS = tuple(
    (Fraction(a), Fraction(b))
    for a, b in (("7/2", "-2"), ("-6", "1"), ("5/4", "5/4"), ("1/4", "3/2"), ("-7/3", "2/3"))
)


# ---------------------------------------------------------------------------
# Reference values computed without dioph.
#
# A value is described by a small tuple rather than a spec string:
#   ("const", name) | ("affine", a, b, inner) | ("cf", prefix, block, base)
# where a CF has either a periodic ``block`` or a Liouville ``base``.
# ``bracket(desc, bits)`` returns Fractions lo <= x <= hi with hi - lo small
# compared with 2**-bits.
# ---------------------------------------------------------------------------

def spec_of(desc) -> str:
    kind = desc[0]
    if kind == "const":
        return f"const:{desc[1]}"
    if kind == "affine":
        a, b = desc[1], desc[2]
        return (
            f"affine:{a.numerator}/{a.denominator}/{b.numerator}/{b.denominator}:"
            + spec_of(desc[3])
        )
    _, prefix, block, base = desc
    if base is not None:
        return f"cf:liouville:{base}"
    body = f"cf:[{prefix[0]};" + ",".join(map(str, prefix[1:])) + "]"
    return body + ("+periodic:[" + ",".join(map(str, block)) + "]" if block else "")


def _mp_const(name: str):
    if name.startswith("sqrt"):
        return mpmath.sqrt(int(name[4:]))
    return {
        "golden": lambda: (1 + mpmath.sqrt(5)) / 2,
        "e": lambda: mpmath.e,
        "log2": lambda: mpmath.log(2),
        "zeta2": lambda: mpmath.pi**2 / 6,
        "zeta3": lambda: mpmath.zeta(3),
    }[name]()


def _mpf_to_fraction(x) -> Fraction:
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _cf_quotient(desc, j: int) -> int:
    _, prefix, block, base = desc
    if base is not None:
        return 0 if j == 0 else base ** math.factorial(j)
    if j < len(prefix):
        return prefix[j]
    if block:
        return block[(j - len(prefix)) % len(block)]
    raise IndexError(j)


def bracket(desc, bits: int):
    kind = desc[0]
    if kind == "const":
        with mpmath.workprec(bits + 48):
            mid = _mpf_to_fraction(_mp_const(desc[1]))
        err = Fraction(1, 1 << (bits + 8))
        return mid - err, mid + err
    if kind == "affine":
        a, b = desc[1], desc[2]
        lo, hi = bracket(desc[3], bits + abs(a).__ceil__().bit_length() + 2)
        lo, hi = a * lo + b, a * hi + b
        return min(lo, hi), max(lo, hi)
    # consecutive convergents bracket the value; stop once q_j q_{j+1} is big
    # (a finite CF runs to its end and gives the exact rational)
    finite = desc[2] == () and desc[3] is None
    p0, q0 = 1, 0
    p1, q1 = _cf_quotient(desc, 0), 1
    j = 1
    while True:
        try:
            a = _cf_quotient(desc, j)
        except IndexError:
            v = Fraction(p1, q1)
            return v, v
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if not finite and q0 * q1 >= 1 << (bits + 8):
            x, y = Fraction(p0, q0), Fraction(p1, q1)
            return min(x, y), max(x, y)
        j += 1


def _abs_interval(lo: Fraction, hi: Fraction):
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def certify(desc, u: int, v: int, predicate, bits: int = 128) -> bool:
    """Decide ``predicate(lo, hi)`` on an interval holding |u x - v|.

    ``predicate`` returns True, False, or None while the interval is too wide;
    the precision doubles until it decides. Undecided at 2**16 bits is False.
    """
    while bits <= 1 << 16:
        lo, hi = bracket(desc, bits + max(abs(u), 1).bit_length())
        if u < 0:
            lo, hi = hi, lo
        d_lo, d_hi = _abs_interval(u * lo - v, u * hi - v)
        got = predicate(d_lo, d_hi)
        if got is not None:
            return got
        bits *= 2
    return False


def _within(lo_bound, hi_bound, strict_hi):
    """Predicate: lo_bound <= d and d < hi_bound (or d <= hi_bound)."""

    def pred(d_lo, d_hi):
        upper_ok = d_hi < hi_bound if strict_hi else d_hi <= hi_bound
        upper_bad = d_lo >= hi_bound if strict_hi else d_lo > hi_bound
        if d_lo >= lo_bound and upper_ok:
            return True
        if d_hi < lo_bound or upper_bad:
            return False
        return None

    return pred


def bound_u(c: Fraction, cp: Fraction, eps: Fraction) -> Fraction:
    """Denominator bound of case (i): 2 c^2 / ((c - 1)(c' - c) eps)."""
    return 2 * c * c / ((c - 1) * (cp - c)) / eps


def dist_bound(c: Fraction, cp: Fraction, Q: Fraction) -> Fraction:
    """Distance bound of case (i): |u x - v| <= (2/(c-1))(1 + c^2/(c'-c)) / Q."""
    return 2 / (c - 1) * (1 + c * c / (cp - c)) / Q


def _mpq(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


# Summary fields that are witnesses, (q, p, u, v) and their kind. Enclosure
# endpoints and derived exponents are left out: they may change legitimately.
WITNESS_FIELDS = {"case", "q", "p", "u", "v", "n", "U", "qs", "tail_q", "error"}


def fingerprint(summary) -> str:
    """Short hash of the witness fields of a summary (digits stripped from keys)."""
    items = [kv for kv in summary.items() if kv[0].rstrip("0123456789") in WITNESS_FIELDS]
    text = repr(sorted(items))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _bump_witness(summary, key):
    """Copy of ``summary`` with the integer witness field ``key`` plus one."""
    out = dict(summary)
    out[key] = out[key] + 1
    return out


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


class Workload:
    """One workload. Subclasses define the cycle, the op and the checks."""

    name = "?"
    min_ops = 100  # ops in the timed list; 100 leaves 10 samples beyond p90

    def cycle(self, rng: random.Random, k: int) -> list:
        """The ``k``-th cycle of a seed's op stream; ``rng`` is the seed's."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def summarize(self, op: Op, raw) -> dict:
        """Plain witness data of a result (or of an exception)."""
        raise NotImplementedError

    def check(self, op: Op, summary: dict) -> bool:
        raise NotImplementedError

    def corrupt(self, summary: dict) -> dict:
        """The summary with its first witness shifted by one (self-test)."""
        raise NotImplementedError


def _error_summary(raw) -> dict:
    return {"error": type(raw).__name__}


# ---------------------------------------------------------------------------
# lemma: one solve_disjunction per op on a fresh oracle, as `dioph lemma`
# ---------------------------------------------------------------------------

class Lemma(Workload):
    name = "lemma"
    min_ops = 200  # the 90th percentile sits in a thin tail; 100 ops left it seed-bound
    STRATA = 48  # irrational slots per cycle, one per size stratum

    def cycle(self, rng, k):
        ops = []
        for stratum in range(self.STRATA):
            # the constant and the affine map follow from the stratum and the
            # cycle's index, not from the seed, so every seed's op list has
            # the same mix of costs; the constants rotate across cycles
            slot = stratum + 3 * k
            # d uniform over 40..400; eps log-uniform over 1e-3..1e-1; c
            # uniform over 1.2..1.7, and c' at a uniform 0.2..0.9 of the way
            # from c to 2. Each is drawn inside a stratum of its range, and
            # the strata of a cycle form a Latin hypercube: every stratum of
            # every parameter once, each parameter's strata in its own fixed
            # order, so eps, c and c' are spread independently of d. Below
            # eps = 1e-3 the direct scan's length (up to 4096 checks) varies
            # so much that the latency percentiles move by a third between
            # seeds.
            d = 40 + round(360 * self._draw(rng, stratum, 1))
            eps = Fraction(round(10 ** (3 + 2 * self._draw(rng, stratum, 7))), 10**6)
            c = Fraction(round(1200 + 500 * self._draw(rng, stratum, 29)), 1000)
            cp = c + (2 - c) * Fraction(round(200 + 700 * self._draw(rng, stratum, 13)), 1000)
            desc = ("const", CONSTANTS[slot % len(CONSTANTS)])
            if (slot // len(CONSTANTS)) % 2:
                desc = ("affine", *AFFINE_MAPS[slot % len(AFFINE_MAPS)], desc)
            ops.append(Op("ii", (desc, c, cp, eps, Fraction(10**d))))
        for tier in CASE_I_TIERS:
            base, e, eps = rng.choice(tier)
            desc = ("cf", (0,), (), base)
            ops.append(
                Op("i", (desc, Fraction(3, 2), Fraction(19, 10), Fraction(eps),
                         Fraction(base**e)))
            )
        rng.shuffle(ops)
        return ops

    def _draw(self, rng, stratum, step):
        """Uniform in [0, 1), inside stratum ``step * stratum`` (mod STRATA)."""
        return ((step * stratum) % self.STRATA + rng.random()) / self.STRATA

    def run(self, op):
        desc, c, cp, eps, Q = op.args
        return dioph.solve_disjunction(dioph.parse_oracle(spec_of(desc)), LemmaParams(c, cp, eps, Q))

    def summarize(self, op, raw):
        if isinstance(raw, BaseException):
            return _error_summary(raw)
        w = raw.witness
        if raw.outcome == "case_ii":
            return {"case": "ii", "q": w.q, "p": w.p}
        return {"case": "i", "u": w.u, "v": w.v}

    def check(self, op, s):
        desc, c, cp, eps, Q = op.args
        if s.get("case") == "ii":
            q, p = s["q"], s["p"]
            if not (Q <= q <= c * Q):
                return False
            return certify(desc, q, p, _within(eps, cp * eps, strict_hi=True))
        if s.get("case") == "i":
            u, v = s["u"], s["v"]
            if not (1 <= u < bound_u(c, cp, eps)):
                return False
            bound = dist_bound(c, cp, Q)
            return certify(desc, u, v, _within(Fraction(0), bound, strict_hi=False))
        return False

    def corrupt(self, s):
        return _bump_witness(s, "q" if s.get("case") == "ii" else "u")


# ---------------------------------------------------------------------------
# build: build_sequence over a short index span, then measure_rates and
# density_data on its entries
# ---------------------------------------------------------------------------

class Build(Workload):
    name = "build"
    SPAN = 3  # indices per op; measure_rates needs at least 3 entries
    N_LO, N_HI = 14, 62
    MU_UPPER = Fraction(21, 10)
    BETA = Fraction(3)
    # alpha = 1/2 as in the construction-bands criterion and (1 + 1/5)/3 as in
    # the density-decrease criterion. Its delta = 1/10 rate, alpha = 11/30,
    # is left out: at these small indices it meets case (i) in the top half
    # of a 3-index span, and build_sequence then refuses the span.
    ALPHAS = (Fraction(1, 2), Fraction(2, 5))

    def _periodic(self, rng):
        a0 = rng.randint(1, 3)
        block = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        if all(x == 1 for x in block):
            block = block + (2,)
        return ("cf", (a0, rng.randint(1, 5)), block, None)

    def cycle(self, rng, k):
        descs = [("const", "sqrt2"), ("const", "golden"), ("const", "e"), self._periodic(rng)]
        strata = list(range(len(descs)))
        rng.shuffle(strata)
        ops = []
        width = (self.N_HI - self.N_LO) / len(descs)
        for desc, stratum in zip(descs, strata):
            n0 = self.N_LO + int((stratum + rng.random()) * width)
            ops.append(Op("build", (desc, rng.choice(self.ALPHAS), n0)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        desc, alpha, n0 = op.args
        oracle = dioph.parse_oracle(spec_of(desc))
        res = dioph.build_sequence(
            oracle, self.MU_UPPER, RateSpec.geometric(alpha, self.BETA),
            range(n0, n0 + self.SPAN),
        )
        rates = dioph.measure_rates(res.entries, oracle)
        dens = dioph.density_data([e.u for e in res.entries], oracle)
        return res, rates, dens

    def summarize(self, op, raw):
        if isinstance(raw, BaseException):
            return _error_summary(raw)
        res, rates, dens = raw
        s = {}
        for i, e in enumerate(res.entries):
            s[f"n{i}"], s[f"u{i}"], s[f"v{i}"] = e.n, e.u, e.v
            s[f"case{i}"] = e.case_taken
            s[f"eta{i}"] = res.eta_used[e.n]
        s["alpha_enc"] = (rates.alpha_enclosure.lo, rates.alpha_enclosure.hi)
        s["beta_enc"] = (rates.beta_enclosure.lo, rates.beta_enclosure.hi)
        s["dists"] = tuple((d.lo, d.hi) for d in dens.distances)
        s["alpha_xi"], s["beta_u"], s["nu"] = dens.alpha_xi, dens.beta_u, dens.nu_estimate
        return s

    def check(self, op, s):
        desc, alpha, n0 = op.args
        if "error" in s:
            return False
        us = []
        res = []
        for i in range(self.SPAN):
            n = n0 + i
            # case (i) may only take the first index: build_sequence refuses
            # a case (i) in the top half of the range
            case = s.get(f"case{i}")
            if s.get(f"n{i}") != n or case not in ("ii", "i" if i == 0 else "ii"):
                return False
            u, v, eta = s[f"u{i}"], s[f"v{i}"], s[f"eta{i}"]
            # eta_n is 1/ln(n+3) rounded down to the 2**-40 grid, at most 9/20
            with mpmath.workprec(128):
                rule = 1 / mpmath.log(n + 3)
                if not rule - mpmath.mpf(2) ** -39 <= _mpq(eta) <= min(rule, 0.45):
                    return False
            lam, mu = 1 + eta, 1 + 2 * eta
            Q, eps = self.BETA**n, alpha**n
            if case == "i":
                # the lemma ran at c = lam, c' = mu (shrunk by 2**-40),
                # eps / sqrt(mu) and Q / sqrt(lam), square roots rounded down
                c, cp = lam * SHRINK, mu * SHRINK
                eps_i, Q_i = eps / _sqrt_down(mu), Q / _sqrt_down(lam)
                if not (1 <= u < bound_u(c, cp, eps_i) and certify(
                        desc, u, v, _within(Fraction(0), dist_bound(c, cp, Q_i), False))):
                    return False
                us.append(u)
                res.append((u, v))
                continue
            ru = Fraction(u) / Q
            if not (ru * ru <= lam and ru * ru * lam >= 1):
                return False
            if not certify(desc, u, v, _residual_band(eps, mu)):
                return False
            us.append(u)
            res.append((u, v))
        # measure_rates: one ratio in the default window (entries 1 and 2)
        (u1, v1), (u2, v2) = res[1], res[2]
        lo, hi = s["beta_enc"]
        if not lo <= Fraction(u2, u1) <= hi:
            return False
        d1 = _dist_interval(desc, u1, v1)
        d2 = _dist_interval(desc, u2, v2)
        lo, hi = s["alpha_enc"]
        if not (lo <= d2[0] / d1[1] and d2[1] / d1[0] <= hi):
            return False
        # density_data: distance enclosures hold the true distances
        for (lo, hi), (u, v) in zip(s["dists"], res):
            d = _dist_interval(desc, u, v)
            if not (lo <= d[0] and d[1] <= hi):
                return False
        if s["beta_u"] != max(Fraction(b, a) for a, b in zip(us, us[1:])):
            return False
        with mpmath.workprec(128):
            nu_true = mpmath.log(_mpq(s["alpha_xi"]) * _mpq(s["beta_u"])) / 2
            return nu_true <= _mpq(s["nu"]) <= nu_true + mpmath.mpf(2) ** -60

    def corrupt(self, s):
        return _bump_witness(s, "u0")


SHRINK = 1 - Fraction(1, 1 << 40)


def _sqrt_down(x: Fraction, bits: int = 64) -> Fraction:
    return Fraction(math.isqrt((x.numerator << (2 * bits)) // x.denominator), 1 << bits)


def _residual_band(eps: Fraction, mu: Fraction):
    """Predicate: eps^2 <= mu r^2 and r^2 <= mu eps^2 (criterion 3's bands)."""

    def pred(d_lo, d_hi):
        if d_lo * d_lo * mu >= eps * eps and d_hi * d_hi <= mu * eps * eps:
            return True
        if d_hi * d_hi * mu < eps * eps or d_lo * d_lo > mu * eps * eps:
            return False
        return None

    return pred


def _dist_interval(desc, u, v, bits: int = 256):
    lo, hi = bracket(desc, bits + u.bit_length())
    return _abs_interval(u * lo - v, u * hi - v)


# ---------------------------------------------------------------------------
# forms: reference form families, simultaneous approximation and exponents
# ---------------------------------------------------------------------------

POINTS = (
    ("sqrt2", "sqrt3"),
    ("sqrt3", "sqrt5"),
    ("golden", "e"),
)
# Exponent ranges of the two reference-form criteria (zeta(3), zeta(2)).
MU_RANGE = {3: (Fraction(133978, 10000), Fraction(134378, 10000)),
            2: (Fraction(11801, 1000), Fraction(11901, 1000))}
OMEGA_FLOOR = Fraction(45, 100)


def _point(names):
    return PointVec((RationalOracle(1, spec="rat:1"),) + tuple(dioph.parse_oracle(f"const:{n}") for n in names))


def _nearest_dists(names, q: int, bits: int):
    """[(v_j, lo_j, hi_j)] bounding ||q x_j|| for each coordinate."""
    out = []
    for n in names:
        lo, hi = bracket(("const", n), bits + q.bit_length())
        v = round(q * (lo + hi) / 2)
        d_lo, d_hi = _abs_interval(q * lo - v, q * hi - v)
        out.append((v, d_lo, d_hi))
    return out


class Forms(Workload):
    name = "forms"
    min_ops = 200  # three op kinds of different cost: more ops steady the p50
    COUNT = (60, 120)  # apery_forms index range; s = 3 needs >= 60 for its range
    OMEGA_BOUND = (2000, 30000)
    DIRICHLET_Q = (10, 200)

    def cycle(self, rng, k):
        ops = []
        # which half of the count range, and which size stratum a point
        # gets, follow from the cycle's index, so every seed's op list has
        # the same mix of costs
        lo, hi = self.COUNT
        for s in (2, 3):
            half = (s + k) % 2
            ops.append(Op("apery", (s, lo + int((half + rng.random()) * (hi - lo) / 2))))
        for kind, (lo, hi) in (("omega0", self.OMEGA_BOUND), ("dirichlet", self.DIRICHLET_Q)):
            for i, names in enumerate(POINTS):
                stratum = (i + k) % len(POINTS)
                size = round(lo * (hi / lo) ** ((stratum + rng.random()) / len(POINTS)))
                ops.append(Op(kind, (names, size)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        if op.kind == "apery":
            s, count = op.args
            seq = dioph.apery_forms(s, count)
            est = dioph.tau_empirical(seq, window=(count // 2, count))
            return seq, dioph.lemma1_bound(est.alpha_hat, est.beta_hat)
        names, bound = op.args
        if op.kind == "omega0":
            return dioph.omega0_search(_point(names), bound)
        return dioph.dirichlet_witness(_point(names), bound)

    def summarize(self, op, raw):
        if isinstance(raw, BaseException):
            return _error_summary(raw)
        if op.kind == "apery":
            seq, mu = raw
            form = seq.forms[-1]
            return {"U": form.coeffs[1], "scale": seq.scales[-1], "mu": mu}
        if op.kind == "omega0":
            return {"q": raw.best_q, "omega": raw.omega_best,
                    "tail_q": raw.tail_q, "omega_tail": raw.omega_tail}
        return {"q": raw.q0, "qs": raw.qs, "dist_hi": raw.dist.hi,
                "within": raw.within_dirichlet}

    def check(self, op, s):
        if "error" in s:
            return False
        if op.kind == "apery":
            k, count = op.args
            lo, hi = MU_RANGE[k]
            if not lo <= s["mu"] <= hi:
                return False
            n = count
            power = 2 if k == 3 else 1
            ref = sum(math.comb(n, j) ** 2 * math.comb(n + j, j) ** power for j in range(n + 1))
            return Fraction(s["U"]) == ref * s["scale"]
        names, bound = op.args
        if op.kind == "omega0":
            if s["omega"] < OMEGA_FLOOR:
                return False
            return all(
                _omega_ok(names, q, w) for q, w in ((s["q"], s["omega"]), (s["tail_q"], s["omega_tail"]))
            )
        Q, q0 = bound, s["q"]
        if not (s["within"] and 1 <= q0 <= Q ** len(names)):
            return False
        dists = _nearest_dists(names, q0, 128)
        if tuple(v for v, _, _ in dists) != tuple(s["qs"]):
            return False
        if max(hi for _, _, hi in dists) > Fraction(1, Q):
            return False
        return _no_earlier_hit(names, q0, Q)

    def corrupt(self, s):
        return _bump_witness(s, "U" if "U" in s else "q")


def _omega_ok(names, q: int, omega: Fraction) -> bool:
    """omega is a lower bound for -log max||q x_j|| / log q, and tight."""
    d_hi = max(hi for _, _, hi in _nearest_dists(names, q, 160))
    with mpmath.workprec(160):
        true = -mpmath.log(mpmath.mpf(d_hi.numerator) / d_hi.denominator) / mpmath.log(q)
        return true - mpmath.mpf(10) ** -12 <= _mpq(omega) <= true + mpmath.mpf(10) ** -30


def _no_earlier_hit(names, q0: int, Q: int) -> bool:
    """No q < q0 has every ||q x_j|| <= 1/Q (integer fixed-point scan)."""
    W = 2 * q0.bit_length() + 64
    M = 1 << W
    fixed = []
    for n in names:
        lo, _ = bracket(("const", n), W + 8)
        fixed.append((lo.numerator << W) // lo.denominator)
    # fixed-point error of q * X is below q + 1 units, so a margin of q0 + 2
    # units on the threshold M / Q decides every q < q0 without misses
    thr = M // Q
    margin = q0 + 2
    for q in range(1, q0):
        worst = 0
        for X in fixed:
            r = (q * X) % M
            d = min(r, M - r)
            if d > worst:
                worst = d
                if worst > thr + margin:
                    break
        if worst <= thr - margin:
            return False
        if worst <= thr + margin:
            d_hi = max(hi for _, _, hi in _nearest_dists(names, q, 2 * W))
            d_lo = max(lo for _, lo, _ in _nearest_dists(names, q, 2 * W))
            if d_hi <= Fraction(1, Q) or not d_lo > Fraction(1, Q):
                return False
    return True


# ---------------------------------------------------------------------------
# exact: random finite-CF (rational) instances, cross-checked by brute force
# ---------------------------------------------------------------------------

def _brute_band_hit(a, m, c, cp, eps, Q):
    """Minimal q in [Q, cQ] with eps <= ||q a/m|| < c' eps, exact integers."""
    q_lo = Q.__ceil__()
    q_hi = (c * Q).__floor__()
    en, ed = eps.numerator, eps.denominator
    ce = cp * eps
    cn, cd = ce.numerator, ce.denominator
    for q in range(q_lo, q_hi + 1):
        r = (q * a) % m
        mr = min(r, m - r)
        if mr * ed >= m * en and mr * cd < m * cn:
            return q, (q * a) // m + (0 if r * 2 <= m else 1)
    return None


def _brute_good_fraction(a, m, u_bound, thr):
    """Minimal u < u_bound with ||u a/m|| <= thr, exact integers."""
    tn, td = thr.numerator, thr.denominator
    u = 1
    while u < u_bound:
        r = (u * a) % m
        if min(r, m - r) * td <= m * tn:
            return u
        u += 1
    return None


class Exact(Workload):
    name = "exact"
    min_ops = 5000  # about 1 s per pass, so a run makes many passes
    PER_CYCLE = 50
    DEPTH = 40

    def cycle(self, rng, k):
        ops = []
        for _ in range(self.PER_CYCLE):
            quots = (0,) + tuple(rng.randint(1, 9) for _ in range(self.DEPTH))
            Q = Fraction(rng.randint(10, 10**4))
            t = rng.uniform(0.05, 0.4)
            eps = Fraction(round(float(Q) ** (-t) * 10**6), 10**6)
            eps = min(max(eps, Fraction(1, 10**6)), Fraction(499999, 10**6))
            c = 1 + Fraction(rng.randint(1, 999), 1000)
            cp = c + (2 - c) * Fraction(rng.randint(1, 999), 1000)
            ops.append(Op("exact", (("cf", quots, (), None), c, cp, eps, Q)))
        return ops

    run = Lemma.run

    def summarize(self, op, raw):
        if isinstance(raw, NeitherCaseCertified):
            return {"case": "none"}
        return Lemma.summarize(self, op, raw)

    def check(self, op, s):
        desc, c, cp, eps, Q = op.args
        val, _ = bracket(desc, 0)
        a, m = val.numerator, val.denominator
        expected = _brute_band_hit(a, m, c, cp, eps, Q)
        case = s.get("case")
        if case == "ii":
            return expected == (s["q"], s["p"])
        if expected is not None:
            return False
        good = _brute_good_fraction(a, m, bound_u(c, cp, eps), dist_bound(c, cp, Q))
        if case == "none":
            return good is None
        if case == "i":
            u, v = s["u"], s["v"]
            return good == u and abs(u * val - v) <= dist_bound(c, cp, Q)
        return False

    corrupt = Lemma.corrupt


WORKLOADS = {w.name: w for w in (Lemma(), Build(), Forms(), Exact())}
