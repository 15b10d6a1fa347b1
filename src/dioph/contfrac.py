"""Certified continued-fraction expansion and convergents.

``expand`` is a view of the oracle's own quotient cache, and ``walk`` searches
its convergents, growing it through ``expand``. The quotient sources live in
the oracle subclasses (``RealOracle._more_quotients``): a generator for values
defined by their quotients, Euclid on the point value for exact rationals (the
expansion terminates), and otherwise Euclid run in lockstep on both ends of a
canonical enclosure, resumed one level above the cached one and past the
cached quotients. ``convergents`` shares the oracle's convergent recurrence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certlog import ln_frac
from .errors import Degenerate, Unrepresentable
from .oracle import RealOracle, extend_convergents


@dataclass(frozen=True)
class CFExpansion:
    quotients: tuple
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


def expand(oracle: RealOracle, depth: int) -> CFExpansion:
    """Quotients a_0 .. a_depth of the value of ``oracle``.

    Depth counts quotients after a_0, so the result holds depth + 1 values.
    Rational values yield their full (possibly shorter) expansion with
    ``terminated`` set. Raises INCONCLUSIVE if the precision cap is hit and
    UNREPRESENTABLE if a quotient generator runs out.
    """
    if depth < 0:
        raise Degenerate(f"depth {depth} must be >= 0")
    count = depth + 1
    quots, ended = oracle.cf_quotients(count)
    return CFExpansion(tuple(quots[:count]), terminated=ended and len(quots) <= count)


def walk(oracle: RealOracle, reached, short: str):
    """(cons, j): the oracle's cached convergents (p, q) and the first j with
    ``reached(cons, j)``, which is monotone in j, or one past the end of a
    terminating expansion; found by bisection from where the last round
    stopped. Past the cache ``expand`` grows it by a quotient at least (a
    ladder rung) and to twice the last request (few generator rounds), up to
    a truncated supply, whose end raises UNREPRESENTABLE with ``short``."""
    supply, cons = oracle.quotient_count(), oracle.cf_convergents(0)
    j, depth, ended = 0, 0, False
    while True:
        j = bisect_left(range(len(cons)), True, j, key=lambda i: reached(cons, i))
        if j < len(cons) or ended:
            return cons, j
        if j < depth:
            raise Unrepresentable(f"{oracle.spec}: {short}")
        depth = max(2 * depth, j + 1)
        ended = expand(oracle, (depth if supply is None else min(depth, supply)) - 1).terminated
        cons = oracle.cf_convergents(0)


def convergents(cf: CFExpansion) -> list:
    """Convergent list p_k/q_k for the expansion, lowest terms guaranteed."""
    pairs = extend_convergents([], cf.quotients)
    return [Convergent(p, q, i) for i, (p, q) in enumerate(pairs)]


def mu_estimate(oracle: RealOracle, depth: int) -> MuEstimate:
    """Finite-depth irrationality-exponent lower estimate.

    Pointwise exponents 1 + ln(q_{k+1}) / ln(q_k) are evaluated over the top
    half of the explored convergent ladder (skipping q_k < 2) and the maximum
    is reported with directed-down rounding, together with the index at which
    it was witnessed. Rational values have no such exponent and raise
    DEGENERATE.
    """
    if depth < 2:
        raise Degenerate(f"depth {depth} must be >= 2")
    cf = expand(oracle, depth)
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
