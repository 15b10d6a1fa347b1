"""Deterministic work counters guarding the hot paths against regressions.

Wall time on a shared machine is noisy; these counts are exact, so a change
that brings back per-integer scanning or per-call re-expansion fails here.
"""

from fractions import Fraction as F

import pytest

from dioph.contfrac import expand
from dioph.dichotomy import LemmaParams, _surrogate, solve_disjunction
from dioph.oracle import SqrtOracle, parse_oracle


@pytest.mark.parametrize("spec", ["const:sqrt2", "const:e", "const:zeta3"])
@pytest.mark.parametrize("digits", [40, 400])
def test_window_checks_per_solve(spec, digits):
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**digits)
    res = solve_disjunction(parse_oracle(spec), params)
    assert res.outcome == "case_ii"
    assert res.stats.candidates <= 2


class CountingSqrt2(SqrtOracle):
    def __init__(self):
        super().__init__(2, "sqrt2")
        self.raw_calls = 0
        self.enclose_calls = 0

    def _raw(self, k):
        self.raw_calls += 1
        return super()._raw(k)

    def enclose(self, k):
        self.enclose_calls += 1
        return super().enclose(k)


def test_expand_reuses_cached_quotients():
    o = CountingSqrt2()
    first = expand(o, 300)
    assert o.raw_calls > 0
    o.raw_calls = o.enclose_calls = 0
    assert expand(o, 300) == first
    assert expand(o, 40).quotients == first.quotients[:41]
    assert o.raw_calls == 0
    assert o.enclose_calls == 0


def test_deeper_expand_resumes_above_cached_level():
    o = CountingSqrt2()
    expand(o, 40)
    level = o._cf_level
    o.raw_calls = o.enclose_calls = 0
    deep = expand(o, 600)
    assert deep.quotients == (1,) + (2,) * 600
    assert o._cf_level > level
    # one enclosure per level above the cached one, none at or below it
    new_levels = (o._cf_level // level).bit_length() - 1
    assert o.enclose_calls == new_levels
    assert o.raw_calls == new_levels


def test_repeated_surrogate_reads_the_cache():
    o = CountingSqrt2()
    first = _surrogate(o, 10**300)
    o.raw_calls = o.enclose_calls = 0
    assert _surrogate(o, 10**300) == first
    assert o.raw_calls == 0
    assert o.enclose_calls == 0
