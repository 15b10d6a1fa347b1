"""Certified continued-fraction expansion and convergents.

``expand`` produces the first ``depth`` quotients of an oracle's value. For
oracles defined directly by their quotients the generator is consulted (the
output is bit-exact by definition); for exactly rational oracles the Euclidean
algorithm runs and the expansion is flagged terminated. Otherwise quotients
are read off a canonical enclosure [lo, hi] of the value by running the
Euclidean algorithm in lockstep on the integer numerator/denominator pairs of
lo and hi: a quotient is certified when both floors agree, since every point
between the endpoints then shares it. The certified quotients and the level
that produced them are cached on the oracle, so a later request is answered
from the cache or resumes at the next level up instead of starting over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certlog import ln_frac
from .enclosure import Enclosure
from .errors import Degenerate
from .oracle import CFOracle, RealOracle, refine


@dataclass(frozen=True)
class CFExpansion:
    quotients: tuple
    certified: bool
    terminated: bool


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class MuEstimate:
    mu_lower: Fraction
    depth: int
    witness_index: Optional[int]


def _expand_rational(value: Fraction, depth: int) -> CFExpansion:
    p, q = value.numerator, value.denominator
    quots = []
    while q and len(quots) < depth:
        a, r = divmod(p, q)
        quots.append(a)
        p, q = q, r
    return CFExpansion(tuple(quots), certified=True, terminated=(q == 0))


def _certified_prefix(enc: Enclosure) -> list:
    """CF quotients common to every point of ``enc``.

    Euclid runs on both endpoints at once and stops at the first quotient
    they disagree on, or once either endpoint's expansion has ended.
    """
    p, q = enc.lo.numerator, enc.lo.denominator
    r, s = enc.hi.numerator, enc.hi.denominator
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


def expand(oracle: RealOracle, depth: int, cap: Optional[int] = None) -> CFExpansion:
    """Quotients a_0 .. a_depth of the value of ``oracle``.

    Depth counts quotients after a_0, so the result holds depth + 1 values.
    Rational values yield their full (possibly shorter) expansion with
    ``terminated`` set. Other values are served from the oracle's quotient
    cache when it is deep enough; otherwise extraction resumes one level above
    the cached level and doubles until depth + 1 quotients are certified.
    Raises INCONCLUSIVE if the precision cap is hit and UNREPRESENTABLE if a
    quotient generator runs out.
    """
    if depth < 0:
        raise Degenerate(f"depth {depth} must be >= 0")
    count = depth + 1
    if isinstance(oracle, CFOracle):
        if oracle.is_finite():
            n = min(count, len(oracle.prefix))
            return CFExpansion(
                tuple(oracle.prefix[:n]),
                certified=True,
                terminated=(n == len(oracle.prefix)),
            )
        quots = tuple(oracle.quotient(j) for j in range(count))
        return CFExpansion(quots, certified=True, terminated=False)
    v = oracle.exact_value()
    if v is not None:
        return _expand_rational(v, count)

    def step(k):
        oracle._cf_quotients = _certified_prefix(oracle.enclose(k))
        oracle._cf_level = k
        return True if len(oracle._cf_quotients) >= count else None

    if len(oracle._cf_quotients) < count:
        refine(
            step, f"CF expansion of {oracle.spec} stalled at depth {depth}", cap,
            start=2 * oracle._cf_level,
        )
    return CFExpansion(
        tuple(oracle._cf_quotients[:count]), certified=True, terminated=False
    )


def convergents(cf: CFExpansion) -> list:
    """Convergent list p_k/q_k for the expansion, lowest terms guaranteed."""
    out = []
    p1, q1 = 1, 0
    p0, q0 = 0, 1
    for i, a in enumerate(cf.quotients):
        p1, q1, p0, q0 = a * p1 + p0, a * q1 + q0, p1, q1
        out.append(Convergent(p1, q1, i))
    return out


def mu_estimate(oracle: RealOracle, depth: int, cap: Optional[int] = None) -> MuEstimate:
    """Finite-depth irrationality-exponent lower estimate.

    Pointwise exponents 1 + ln(q_{k+1}) / ln(q_k) are evaluated over the top
    half of the explored convergent ladder (skipping q_k < 2) and the maximum
    is reported with directed-down rounding, together with the index at which
    it was witnessed. Rational values have no such exponent and raise
    DEGENERATE.
    """
    if depth < 2:
        raise Degenerate(f"depth {depth} must be >= 2")
    cf = expand(oracle, depth, cap=cap)
    if cf.terminated:
        raise Degenerate(f"{oracle.spec} is rational; exponent ladder undefined")
    cons = convergents(cf)
    n = len(cons)
    best: Optional[Fraction] = None
    best_k: Optional[int] = None
    for k in range(n // 2, n - 1):
        qk, qk1 = cons[k].q, cons[k + 1].q
        if qk < 2:
            continue
        ratio = 1 + ln_frac(qk1, 96).lo / ln_frac(qk, 96).hi
        if best is None or ratio > best:
            best, best_k = ratio, k
    if best is None:
        return MuEstimate(Fraction(2), depth, None)
    return MuEstimate(best, depth, best_k)
