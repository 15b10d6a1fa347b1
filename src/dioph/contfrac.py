"""Certified continued-fraction expansion and convergents.

``expand`` is a view of the oracle's own quotient cache. The quotient sources
live in the oracle subclasses (``RealOracle._more_quotients``): the one
iterator a quotient-defined oracle builds, Euclid on the point value for exact
rationals (the expansion terminates), and otherwise Euclid run in lockstep on
both ends of a canonical enclosure, resumed one level above the cached one
through the last two convergents it reached. No convergent is stored:
``convergents`` and ``mu_estimate`` run the oracle's one recurrence,
``convergent_pairs``. The dichotomy reads no continued fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Optional

from .certlog import ln_frac
from .enclosure import as_integer
from .errors import Degenerate
from .oracle import RealOracle, convergent_pairs


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
    depth = as_integer(depth, what="depth")
    if depth < 0:
        raise Degenerate(f"depth {depth} must be >= 0")
    count = depth + 1
    quots, ended = oracle.cf_quotients(count)
    return CFExpansion(tuple(quots[:count]), terminated=ended and len(quots) <= count)


def convergents(cf: CFExpansion) -> list:
    """Convergent list p_k/q_k for the expansion, lowest terms guaranteed."""
    return [Convergent(p, q, i) for i, (p, q) in enumerate(convergent_pairs(cf.quotients))]


def mu_estimate(oracle: RealOracle, depth: int) -> MuEstimate:
    """Finite-depth irrationality-exponent lower estimate.

    Pointwise exponents 1 + ln(q_{k+1}) / ln(q_k) are evaluated over the top
    half of the explored convergent ladder (skipping q_k < 2) and the maximum
    is reported with directed-down rounding, together with the index at which
    it was witnessed. Rational values have no such exponent and raise
    DEGENERATE.
    """
    depth = as_integer(depth, what="depth")
    if depth < 2:
        raise Degenerate(f"depth {depth} must be >= 2")
    cf = expand(oracle, depth)
    if cf.terminated:
        raise Degenerate(f"{oracle.spec} is rational; exponent ladder undefined")
    n = len(cf.quotients)
    best: Optional[Fraction] = None
    best_k: Optional[int] = None
    denominators = pairwise(q for _, q in convergent_pairs(cf.quotients))
    for k, (qk, qk1) in enumerate(denominators):
        if k < n // 2 or qk < 2:
            continue
        ratio = 1 + ln_frac(qk1, 96).lo / ln_frac(qk, 96).hi
        if best is None or ratio > best:
            best, best_k = ratio, k
    if best is None:
        return MuEstimate(Fraction(2), depth, None)
    return MuEstimate(best, depth, best_k)
