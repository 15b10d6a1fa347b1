"""Certified continued-fraction expansion and convergents.

``expand`` is a view of the oracle's own quotient cache. The quotient sources
live in the oracle subclasses (``RealOracle._more_quotients``): the one
iterator a quotient-defined oracle builds, Euclid on the point value for exact
rationals (the expansion terminates), and otherwise Euclid run in lockstep on
both ends of a canonical enclosure, resumed one level above the cached one
through the last two convergents it reached. No convergent is stored:
``convergents``, ``mu_estimate`` and the ``cf`` verb run the oracle's one
recurrence, ``convergent_pairs``; ``mu_estimate`` takes each q_k's log once,
at ``certlog.LOG_BITS``, for two ``certlog.ln_quotient`` bounds. The
dichotomy reads no continued fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import pairwise
from typing import Optional

from .certlog import LOG_BITS, ln_frac, ln_quotient
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
    logs = [(k, ln_frac(q, LOG_BITS)) for k, (_, q) in enumerate(convergent_pairs(cf.quotients))
            if k >= n // 2 and q >= 2]
    ratios = [(*ln_quotient(ln1, ln0), k) for (k, ln0), (_, ln1) in pairwise(logs)]
    if not ratios:
        return MuEstimate(Fraction(2), depth, None)
    # the first of the largest a/b, by cross products
    a, b, k = max(ratios, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    return MuEstimate(Fraction(a + b, b), depth, k)
