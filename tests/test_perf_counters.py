"""Deterministic work counters guarding the hot paths against regressions.

Wall time on a shared machine is noisy; these counts are exact, so a change
that brings back per-integer scanning or per-call re-expansion fails here.
"""

import json
import random
from fractions import Fraction as F

import pytest

from dioph import certlog, contfrac, dichotomy, multiform, oracle, seqbuild
from dioph.cli import main
from dioph.contfrac import expand
from dioph.dichotomy import (
    LemmaParams,
    _case_i_hit,
    _Stats,
    _surrogate,
    solve_disjunction,
)
from dioph.errors import RangeTooLarge
from dioph.multiform import PointVec, dirichlet_witness, omega0_search
from dioph.oracle import RationalOracle, SqrtOracle, parse_oracle


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


@pytest.mark.parametrize("spec,eps,big_q", [
    ("cf:liouville:2", "1/1000", "1e30"),
    ("cf:liouville:3", "1e-8", str(3**40)),
])
def test_liouville_case_ii_window_checks(capsys, monkeypatch, spec, eps, big_q):
    # the window enlarged by a fixed width/8 admitted residue classes just
    # outside it, whose members failed their check 10**6 times in a row
    checks = []
    check = dichotomy._frac_window_check

    def counting(oracle, q, *args):
        checks.append(q)
        return check(oracle, q, *args)

    monkeypatch.setattr(dichotomy, "_frac_window_check", counting)
    code = main([
        "lemma", "--oracle", spec, "--c", "3/2", "--c-prime", "19/10",
        "--eps", eps, "--Q", big_q,
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["outcome"] == "II"
    assert len(checks) <= 2


@pytest.mark.parametrize("walk,encloses", [
    (lambda o: _surrogate(o, 10**300), False),
    # case (i)'s distance certificates read the cached enclosures
    (lambda o: _case_i_hit(o, F(10**300), F(1, 10**700), _Stats()), True),
], ids=["surrogate", "case_i"])
def test_warm_walk_makes_no_expand_call(monkeypatch, walk, encloses):
    # a warm walk searches the cached convergents: no quotient is extracted
    # and no enclosure is computed
    o = CountingSqrt2()
    first = walk(o)
    expands, extractions = [], []
    monkeypatch.setattr(contfrac, "expand", lambda *a: expands.append(a) or expand(*a))
    prefix = oracle._certified_prefix
    monkeypatch.setattr(
        oracle, "_certified_prefix", lambda *a: extractions.append(a) or prefix(*a)
    )
    o.raw_calls = o.enclose_calls = 0
    assert walk(o) == first
    assert (o.raw_calls, expands, extractions) == (0, [], [])
    assert (o.enclose_calls > 0) == encloses


def test_each_quotient_is_extracted_once(monkeypatch):
    # every rung resumes past the cached quotients: a fresh solve at
    # Q = 10**400 re-ran Euclid from a_0 at each of its rungs
    extracted = []
    prefix = oracle._certified_prefix

    def counting(*args):
        quots = prefix(*args)
        extracted.append(len(quots))
        return quots

    monkeypatch.setattr(oracle, "_certified_prefix", counting)
    o = SqrtOracle(2, "sqrt2")
    solve_disjunction(o, LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**400))
    quots, _ = o.cf_quotients(0)
    assert len(extracted) > 1
    assert sum(extracted) <= len(quots)


@pytest.mark.parametrize("search,scores_at_most", [
    # a full scan scores 326491, 90000 and 99999 denominators
    (lambda point: dirichlet_witness(point, 1000), 2000),
    (lambda point: dirichlet_witness(point, 300, mode="best"), 1500),
    (lambda point: omega0_search(point, 10**5), 15000),
], ids=["dirichlet-first", "dirichlet-best", "omega0"])
def test_simultaneous_searches_score_only_stream_hits(monkeypatch, search, scores_at_most):
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    calls = []
    score = multiform._approx_score
    monkeypatch.setattr(
        multiform, "_approx_score", lambda q, *a: calls.append(q) or score(q, *a)
    )
    search(point)
    assert len(calls) <= scores_at_most


def test_omega0_certifies_only_records(monkeypatch):
    # the record stream scored 788 and certified 42 of the 10**5 denominators
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    scores, certified = [], []
    score, verify = multiform._approx_score, multiform._refined_max_dist
    monkeypatch.setattr(
        multiform, "_approx_score", lambda q, *a: scores.append(q) or score(q, *a)
    )
    monkeypatch.setattr(
        multiform, "_refined_max_dist", lambda r, q: certified.append(q) or verify(r, q)
    )
    omega0_search(point, 10**5)
    assert len(scores) <= 1000
    assert 0 < len(certified) <= 64


def test_first_mode_past_the_fixed_point_certifies_little(monkeypatch):
    # with the fixed point at 2**96, Q**2 = 10**30 let every q pass the
    # prefilter, and each stream hit was certified
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    certified = []
    verify = multiform._refined_max_dist
    monkeypatch.setattr(
        multiform, "_refined_max_dist", lambda r, q: certified.append(q) or verify(r, q)
    )
    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 2000)
    with pytest.raises(RangeTooLarge, match="budget 2000"):
        dirichlet_witness(point, 10**15)
    assert len(certified) <= 8


def test_density_separates_each_distance_on_one_rung(monkeypatch):
    # nearest_int's distances already failed the first level's separation,
    # so the ladder starts one rung above it and its first rung passes
    rungs = []
    separated = seqbuild.separated

    def counting(enclose_at, what, **kw):
        rungs.append(0)

        def counted(k):
            rungs[-1] += 1
            return enclose_at(k)

        return separated(counted, what, **kw)

    monkeypatch.setattr(seqbuild, "separated", counting)
    qs = [1, 2]
    while len(qs) < 17:
        qs.append(2 * qs[-1] + qs[-2])  # sqrt2's convergent denominators
    seqbuild.density_data(qs, SqrtOracle(2, "sqrt2"))
    assert len(rungs) > 0
    assert rungs == [1] * len(rungs)


def test_ln_frac_caches_are_keyed_by_width(monkeypatch):
    # 1000 distinct arguments at one k: only the widths, not the
    # arguments, may stay in a process-level cache
    caches = [f for f in vars(certlog).values() if hasattr(f, "cache_info")]
    for c in caches:
        c.cache_clear()
    widths = set()
    ln2 = certlog._ln2_fixed
    monkeypatch.setattr(certlog, "_ln2_fixed", lambda w: widths.add(w) or ln2(w))
    rng = random.Random(1000)
    for _ in range(1000):
        certlog.ln_frac(F(rng.getrandbits(64) + 1, rng.getrandbits(64) + 1), 96)
    assert 0 < sum(c.cache_info().currsize for c in caches) <= len(widths)


def test_ln_frac_does_no_fraction_arithmetic(monkeypatch):
    # a 2000-bit argument: every Fraction operation would pay a 2000-bit gcd
    rng = random.Random(2000)
    x = F(rng.getrandbits(2000) | 1 << 1999, rng.getrandbits(1990) | 1)
    expected = certlog.ln_frac(x, 96)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in ln_frac")

    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            monkeypatch.setattr(F, name, forbidden)
    got = certlog.ln_frac(x, 96)
    monkeypatch.undo()
    assert got == expected


def test_omega0_verifies_each_q_on_one_rung(monkeypatch):
    # nearest_int's distances already failed the first level's width, so
    # the ladder starts one rung above it and its first rung passes
    rungs = []
    refine = multiform.refine

    def counting(step, what, **kw):
        rungs.append(0)

        def counted(k):
            rungs[-1] += 1
            return step(k)

        return refine(counted, what, **kw)

    monkeypatch.setattr(multiform, "refine", counting)
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    omega0_search(point, 10**4)
    assert len(rungs) > 0
    assert rungs == [1] * len(rungs)
