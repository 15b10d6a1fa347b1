"""Deterministic work counters guarding the hot paths against regressions.

Wall time on a shared machine is noisy; these counts are exact, so a change
that brings back per-integer scanning or per-call re-expansion fails here.
"""

import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dioph
from dioph import certlog, contfrac, dichotomy, multiform, oracle, seqbuild
from dioph.cli import main
from dioph.contfrac import expand
from dioph.dichotomy import (
    LemmaParams,
    _Stats,
    solve_disjunction,
)
from dioph.errors import Inconclusive, RangeTooLarge
from dioph.multiform import PointVec, dirichlet_witness, omega0_search
from dioph.oracle import RationalOracle, SqrtOracle, parse_oracle
from dioph.seqbuild import RateSpec, build_sequence
from test_dichotomy import case_i_search, first_convergent_reached


@pytest.mark.parametrize("spec", ["const:sqrt2", "const:e", "const:zeta3"])
@pytest.mark.parametrize("digits", [40, 400])
def test_window_checks_per_solve(spec, digits):
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**digits)
    res = solve_disjunction(parse_oracle(spec), params)
    assert res.outcome == "case_ii"
    assert res.stats.candidates <= 2


def test_case_ii_solve_climbs_one_ladder_per_window_check(monkeypatch):
    # one surrogate ladder for both window sides, and at most one ladder per
    # candidate, none where the surrogate decides it; the residual is the
    # enclosure the window check certified, so no further ladder climbs for it
    ladders = []
    refine = oracle.refine
    for module in (dichotomy, oracle):
        monkeypatch.setattr(
            module, "refine",
            lambda *args, **kw: ladders.append(args[1]().split()[1]) or refine(*args, **kw),
        )
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**400)
    res = solve_disjunction(SqrtOracle(2, "sqrt2"), params)
    assert res.outcome == "case_ii"
    assert res.stats.candidates >= 1
    # one merged stream searches both sides; the surrogate times q decides
    # every candidate
    assert ladders.count("surrogate") == 1
    assert ladders.count("membership") == 0
    assert len(ladders) == 1


def _peak_rss_kb(script: str, timeout: int) -> list:
    """Run ``script`` in a fresh interpreter on this package; its stdout
    split into words, the last of them its own peak RSS in kB (VmHWM: on
    Linux, ``ru_maxrss`` keeps the spawning process's high-water mark across
    exec, so it would read pytest's)."""
    src = str(Path(dioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += (
        "\nwith open('/proc/self/status') as f:"
        "\n    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


DEEP_SOLVE = """
from fractions import Fraction as F
from dioph.dichotomy import LemmaParams, solve_disjunction
from dioph.oracle import SqrtOracle
o = SqrtOracle(2, "sqrt2")
res = solve_disjunction(o, LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**20000))
print(res.outcome, ",".join(sorted(vars(o))), len(o._cf_tail))
"""


def test_deep_case_ii_solve_stores_no_convergents():
    # the convergent surrogate kept the 51541 convergents up to q ~ 10**20000
    # in the oracle, 456 MB of peak RSS; the oracle holds its enclosures,
    # its quotients and one pair of convergents, the last two of them
    outcome, attrs, tail, peak_kb = _peak_rss_kb(DEEP_SOLVE, 120)
    assert outcome == "case_ii"
    assert attrs.split(",") == [
        "_canon", "_cf_ended", "_cf_level", "_cf_quotients", "_cf_tail", "_descent", "n", "spec"
    ]
    assert tail == "2"
    assert int(peak_kb) < 64 * 1024


@pytest.mark.parametrize("script", [
    # 2.3 s and 128 MB while the oracle stored every convergent
    "from dioph.contfrac import expand\n"
    "from dioph.oracle import SqrtOracle\n"
    "assert expand(SqrtOracle(2, 'sqrt2'), 50000).quotients[-1] == 2",
    # 92 s and 821 MB: q_(j-1) q_j formed at each of 94k steps, at every level
    "from dioph.oracle import CFOracle\n"
    "assert CFOracle([1], periodic=[1]).enclose(1 << 17).width > 0",
], ids=["expand-sqrt2-50000", "golden-cf-enclose-2**17"])
def test_deep_continued_fractions_in_bounded_memory(script):
    (peak_kb,) = _peak_rss_kb(script, 60)
    assert int(peak_kb) < 64 * 1024


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


def test_expand_resumes_above_the_level_it_read():
    # a surrogate leaves level 2048 cached; the quotients read from it at
    # rung 64 were read at level 2048, so a deeper expansion starts at 4096
    raws, rungs = [], []

    class Recording(SqrtOracle):
        def _raw(self, k):
            raws.append(k)
            return super()._raw(k)

        def enclose(self, k):
            rungs.append(k)
            return super().enclose(k)

    o = Recording(2, "sqrt2")
    o.within(F(1, 1 << 2000), "surrogate")
    assert raws == [2048]
    expand(o, 10)
    del raws[:], rungs[:]
    assert expand(o, 1280).quotients == (1,) + (2,) * 1280
    assert min(raws) >= 4096
    assert min(rungs) > 2048


def test_affine_expand_resumes_one_inner_level_up():
    # an affine oracle caches rung k at inner level level_for(k + extra); the
    # quotients read at inner level 128 resume at the rung kept at 256, not 512
    spec = "affine:7/2/-2/1:const:sqrt2"
    o = parse_oracle(spec)
    raws, raw = [], o.inner._raw
    o.inner._raw = lambda k: raws.append(k) or raw(k)
    first = expand(o, 10)
    assert raws == [128]
    del raws[:]
    deep = expand(o, 300)
    assert raws == [256, 512, 1024, 2048]
    assert deep.quotients[:11] == first.quotients
    assert deep == expand(parse_oracle(spec), 300)


def test_repeated_surrogate_reads_the_cache():
    # the surrogate is a canonical enclosure: a repeated solve reads it, and
    # every level its window checks climb, from the oracle's cache
    o = CountingSqrt2()
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**300)
    first = solve_disjunction(o, params)
    o.raw_calls = 0
    assert solve_disjunction(o, params) == first
    assert o.raw_calls == 0


class LevelsSqrt2(SqrtOracle):
    """sqrt2 recording each k it is asked for and each level it computes."""

    def __init__(self):
        super().__init__(2, "sqrt2")
        self.asked, self.computed = [], []

    def _raw(self, k):
        self.computed.append(k)
        return super()._raw(k)

    def enclose(self, k):
        self.asked.append(k)
        return super().enclose(k)


def test_cold_deep_solve_computes_one_raw_enclosure():
    # the surrogate is asked for at q's precision; every window check rung
    # below it reads that enclosure, so no level below it is computed
    o = LevelsSqrt2()
    res = solve_disjunction(o, LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**400))
    assert res.outcome == "case_ii"
    assert len(o.computed) == 1
    assert min(o.computed) >= oracle.level_for(min(o.asked))
    assert set(o.computed) <= {oracle.level_for(k) for k in o.asked}
    assert res.stats.precision_bits == o.computed[0]


@pytest.mark.parametrize("cap", [1024, 1500])
def test_surrogate_starts_no_higher_than_the_cap(precision_cap, cap):
    # the window surrogate needs more bits than the top level within the cap,
    # 1024: it starts there, decides as the climb to it did, and computes
    # nothing above it
    precision_cap(cap)
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**306)
    assert solve_disjunction(parse_oracle("affine:1/3:const:sqrt2"), params).outcome == "case_ii"
    o = LevelsSqrt2()
    with pytest.raises(Inconclusive):
        solve_disjunction(o, params)
    assert o.computed == [1024]


def test_no_raw_enclosure_below_the_lowest_request():
    o = LevelsSqrt2()
    for k in (700, 65, 3000, 64, 2049, 130, 3000):
        o.enclose(k)
    assert o.computed == [1024, 4096]


def test_affine_enclosure_reads_the_inner_level_once():
    # k + the bits of |a| picks the level, without rounding k first; the
    # lower requests read the affine oracle's own cache, as any oracle does
    inner = LevelsSqrt2()
    o = oracle.AffineOracle(F(7, 2), -2, inner)
    for k in (1330, 1330, 64, 100, 1330):
        o.enclose(k)
    assert inner.asked == [2048]
    assert inner.computed == [2048]


def _counting_quotients(o):
    """The quotients ``o.within`` reads, one per convergent pair it forms."""
    read, stream = [], o._quotients

    def counted(j=0):
        for a in stream(j):
            read.append(a)
            yield a

    o._quotients = counted
    return read


def _cold_within(width):
    """(enclosure, quotients read) of ``within`` on a fresh golden-ratio CF."""
    o = oracle.CFOracle([1], periodic=[1])
    read = _counting_quotients(o)
    return o.within(width), len(read)


def test_cf_within_resumes_from_the_last_pair():
    o = oracle.CFOracle([1], periodic=[1])
    read = _counting_quotients(o)
    widths = [F(1, 2**k) for k in (1000, 2000, 2000, 3000)]
    got = [o.within(w) for w in widths]
    assert got == [_cold_within(w)[0] for w in widths]
    # each narrower width forms only the pairs past the last one returned,
    # so the four calls read what one cold call at the last width reads
    assert len(read) == _cold_within(widths[-1])[1] > 0
    # a wider width starts again from a_0 and finds the first pair again
    del read[:]
    assert o.within(widths[0]) == got[0]
    assert len(read) == _cold_within(widths[0])[1]


@pytest.mark.parametrize("spec,eps,big_q", [
    ("cf:liouville:2", "1/1000", "1e30"),
    ("cf:liouville:3", "1e-8", str(3**40)),
    # odd q sit just past 1/2: the plus window's class, searched first over
    # all of [Q, c Q], hid the minus window's witness at Q + 1
    ("cf:[0;2,1000000000000000000000000000000]+periodic:[1]", "49/100", "1e40"),
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


@pytest.mark.parametrize("search,cold_extracts,encloses", [
    (lambda o: first_convergent_reached(o, 10**300), True, False),
    # case (i)'s window search reads enclosures, cached ones when warm
    (lambda o: case_i_search(o, F(10**300), F(1, 10**700), _Stats()), False, True),
], ids=["walk", "case_i"])
def test_warm_walk_makes_no_expand_call(monkeypatch, search, cold_extracts, encloses):
    # a warm stream reads the cached quotients: no quotient is extracted and
    # no enclosure is computed; case (i) extracts no quotient, cold or warm
    o = CountingSqrt2()
    expands, extractions = [], []
    monkeypatch.setattr(contfrac, "expand", lambda *a: expands.append(a) or expand(*a))
    prefix = oracle._certified_prefix
    monkeypatch.setattr(
        oracle, "_certified_prefix", lambda *a: extractions.append(a) or prefix(*a)
    )
    first = search(o)
    assert bool(extractions) == cold_extracts
    extractions.clear()
    o.raw_calls = o.enclose_calls = 0
    assert search(o) == first
    assert (o.raw_calls, expands, extractions) == (0, [], [])
    assert (o.enclose_calls > 0) == encloses


def test_each_quotient_is_extracted_once(monkeypatch):
    # every rung resumes past the cached quotients: a fresh stream to
    # 10**400 re-ran Euclid from a_0 at each of its rungs
    extracted = []
    prefix = oracle._certified_prefix

    def counting(*args):
        quots = prefix(*args)
        extracted.append(len(quots))
        return quots

    monkeypatch.setattr(oracle, "_certified_prefix", counting)
    o = SqrtOracle(2, "sqrt2")
    j, (_, q) = first_convergent_reached(o, 10**400)
    assert (j, q >= 10**400) == (1046, True)
    quots, _ = o.cf_quotients(0)
    assert len(extracted) > 1
    assert sum(extracted) <= len(quots)


def test_mu_takes_one_log_per_top_half_convergent(monkeypatch):
    # q_1000 .. q_2000, each once: 1001 logs, where two per ratio took 2000
    logs = []
    ln_frac = contfrac.ln_frac
    monkeypatch.setattr(contfrac, "ln_frac", lambda x, k: logs.append((x, k)) or ln_frac(x, k))
    o = SqrtOracle(2, "sqrt2")
    est = contfrac.mu_estimate(o, 2000)
    qs = [q for _, q in oracle.convergent_pairs(o.cf_quotients(2001)[0])]
    assert logs == [(q, certlog.LOG_BITS) for q in qs[1000:2001]]
    assert est.witness_index is not None


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


def _omega0_counts(monkeypatch, q_bound):
    """(scored, yielded, certified) denominators of omega0 on (1, sqrt2, sqrt3)."""
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    scores, capped, certified = [], [], []
    score, bounds, verify = multiform._approx_score, multiform._omega_bounds, multiform._refined_max_dist
    monkeypatch.setattr(
        multiform, "_approx_score", lambda q, *a: scores.append(q) or score(q, *a)
    )
    monkeypatch.setattr(multiform, "_omega_bounds", lambda *a: capped.append(a) or bounds(*a))
    monkeypatch.setattr(
        multiform, "_refined_max_dist", lambda r, q: certified.append(q) or verify(r, q)
    )
    omega0_search(point, q_bound)
    return len(scores), len(capped), len(certified)


def test_omega0_certifies_only_records(monkeypatch):
    # the record stream, its window shrunk by the exponent already reached,
    # scores 462 of the 10**5 denominators and yields 18 (788 and 26 with
    # the window of the records alone); only the two halves' winners have
    # exponent caps that reach the best certified exponent
    assert _omega0_counts(monkeypatch, 10**5) == (462, 18, 2)


def test_omega0_prunes_most_candidates_at_a_large_bound(monkeypatch):
    # at 10**9 the window of the records alone scored 81501 and yielded 45
    assert _omega0_counts(monkeypatch, 10**9) == (34813, 28, 2)


def test_omega_cap_takes_no_log_enclosure(monkeypatch):
    # the caps are integer logs; ln_frac is left to the certified exponents
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    logs, inside = [], []
    ln, bounds = certlog.ln_frac, multiform._omega_bounds

    def counted_bounds(*a):
        inside.append(True)
        try:
            return bounds(*a)
        finally:
            inside.pop()

    for module in (certlog, multiform):
        monkeypatch.setattr(module, "ln_frac", lambda *a: logs.append(bool(inside)) or ln(*a))
    monkeypatch.setattr(multiform, "_omega_bounds", counted_bounds)
    omega0_search(point, 10**5)
    assert logs and not any(logs)


def test_omega0_takes_two_integer_logs_per_record(monkeypatch):
    # one log2_lo of q serves both the cap and the floor of a record, and
    # one more reads the cap's excess: at most 36 for the 18 records yielded
    # at 10**5 (test_omega0_certifies_only_records), where a log of q for
    # each bound took 54
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    logs = []
    log2_lo = multiform.log2_lo
    monkeypatch.setattr(multiform, "log2_lo", lambda *a: logs.append(a) or log2_lo(*a))
    omega0_search(point, 10**5)
    assert 0 < len(logs) <= 2 * 18


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


@pytest.mark.parametrize("mode", ["first", "best"])
def test_record_stream_descends_three_times_per_window(monkeypatch, mode):
    # the record stream's window changes only at a record; within a window
    # the residue stream takes one descent for its first hit and two for
    # the return times, then steps by the three gaps, however many q it
    # yields; the window after the last record ends on one descent
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    descents, records, scored = [], [], []
    first_hit, stream, score = dichotomy._Descent.first_hit, multiform._records, multiform._approx_score

    def counted(*args):
        for r in stream(*args):
            records.append(r)
            yield r

    monkeypatch.setattr(dichotomy._Descent, "first_hit", lambda ch, *a: descents.append(a) or first_hit(ch, *a))
    monkeypatch.setattr(multiform, "_records", counted)
    monkeypatch.setattr(multiform, "_approx_score", lambda *a: scored.append(a) or score(*a))
    dirichlet_witness(point, 10**4, mode)
    assert len(scored) > 5000
    assert len(descents) <= 3 * len(records) + 1


def _count_chains(monkeypatch):
    """(chains, inverses): every descent chain made and every ``pow`` that
    dichotomy calls, its modular inverses, while the test runs."""
    chains, inverses = [], []
    init = dichotomy._Descent.__init__
    monkeypatch.setattr(dichotomy._Descent, "__init__", lambda ch, a, m: chains.append(ch) or init(ch, a, m))
    monkeypatch.setattr(dichotomy, "pow", lambda *a: inverses.append(a) or pow(*a), raising=False)
    return chains, inverses


def test_build_sequence_shares_one_descent_chain(monkeypatch):
    # the three case (ii) solves of one build read one surrogate, so their
    # six queries share the oracle's chain, each past DEEP levels, and the
    # chain inverts a/m once for all of them
    chains, inverses = _count_chains(monkeypatch)
    queries = []
    first_hit = dichotomy._Descent.first_hit
    monkeypatch.setattr(dichotomy._Descent, "first_hit", lambda ch, *a: queries.append(a) or first_hit(ch, *a))
    res = build_sequence(SqrtOracle(2, "sqrt2"), F(21, 10), RateSpec.geometric(F(1, 2), 3), range(30, 33))
    assert [e.case_taken for e in res.entries] == ["ii"] * 3
    assert len(queries) == 6 and len(chains) == 1
    assert len(chains[0].levels) > dichotomy.DEEP
    assert len(inverses) <= 1


def test_search_on_a_new_surrogate_makes_a_new_chain(monkeypatch):
    # the oracle keeps the chain of its last surrogate; a solve at another Q
    # reads another surrogate and must not walk the kept chain, whose
    # windows are another modulus's (its candidates would all miss)
    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 1000)
    kept = SqrtOracle(2, "sqrt2")
    for digits in (40, 400, 4000):
        params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**digits)
        res = solve_disjunction(kept, params)
        assert res.witness == solve_disjunction(SqrtOracle(2, "sqrt2"), params).witness
        assert kept._descent.m.bit_length() > 3 * digits


def test_residue_stream_returns_on_one_chain(monkeypatch):
    # a fixed window past its first hit queries the return times n1 of a
    # and n2 of -a, both on the chain of a: no second chain is made
    chains, _ = _count_chains(monkeypatch)
    chain = dichotomy._Descent(10**30 // 7, 10**30 + 57)
    hits = list(dichotomy._residue_hits(chain, 1, 10**6, lambda q: (-10**25, 10**25)))
    assert len(hits) >= 3
    assert chains == [chain] and chain.levels


def test_narrow_build_in_bounded_memory():
    # windows about 2**-5000 wide at q near 3**5000: descents thousands of
    # levels deep, on the one chain the oracle keeps (39 MB of peak RSS with
    # a stack of five integers per level, 25 MB with the chain)
    script = (
        "import os, contextlib\n"
        "from dioph.cli import main\n"
        "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
        "    code = main(['build', '--oracle', 'const:sqrt2', '--mu', '21/10', '--alpha', '1/2',\n"
        "                 '--beta', '3', '--n', '5000:5010'])\n"
        "print(code)"
    )
    code, peak_kb = _peak_rss_kb(script, 120)
    assert code == "0"
    assert int(peak_kb) < 64 * 1024


def _ladders(monkeypatch, oracles):
    """(ladders, enclosed): the levels each ``oracle.refine`` ladder steps,
    one list per ladder, and every level the given oracles are enclosed at."""
    ladders, enclosed = [], []
    refine = oracle.refine

    def counting(step, what, stats=None, start=0):
        ladders.append([])

        def counted(k):
            ladders[-1].append(k)
            return step(k)

        return refine(counted, what, stats, start)

    monkeypatch.setattr(oracle, "refine", counting)
    for o in oracles:
        monkeypatch.setattr(o, "enclose", lambda k, enc=o.enclose: enclosed.append(k) or enc(k))
    return ladders, enclosed


def _assert_single_ladders(ladders, enclosed):
    # each ladder climbs from the first level, and the oracles are enclosed
    # once per rung and nowhere else, so no level is enclosed twice
    assert ladders
    for levels in ladders:
        assert levels == [64 << i for i in range(len(levels))]
    assert enclosed == [k for levels in ladders for k in levels]


def test_density_decides_each_distance_on_one_ladder(monkeypatch):
    xi = SqrtOracle(2, "sqrt2")
    ladders, enclosed = _ladders(monkeypatch, [xi])
    qs = [1, 2]
    while len(qs) < 17:
        qs.append(2 * qs[-1] + qs[-2])  # sqrt2's convergent denominators
    seqbuild.density_data(qs, xi)
    assert len(ladders) == len(qs)
    assert any(len(levels) > 1 for levels in ladders)
    _assert_single_ladders(ladders, enclosed)


def test_no_dioph_module_holds_a_cache():
    # a process-level cache would outlive the oracles that own theirs: no
    # module-level callable, nor any method of a module's classes, may have a
    # cache_clear
    names = [m.name for m in pkgutil.iter_modules(dioph.__path__)]
    assert "certlog" in names and "oracle" in names
    for name in names:
        module = importlib.import_module(f"dioph.{name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                assert not hasattr(member, "cache_clear"), (name, member)


def test_ln_frac_sums_few_atanh_terms(monkeypatch):
    # the table leaves |z| < 1/97, about 9 terms at k = 96 where z up to 1/3
    # took about 41; the 2000-bit arguments run at 123 bits
    terms = []
    series = certlog._atanh_frac

    def counted(a, b, w):
        s, n = series(a, b, w)
        terms.append(n)
        return s, n

    monkeypatch.setattr(certlog, "_atanh_frac", counted)
    rng = random.Random(96)
    for _ in range(1000):
        num, den = (rng.getrandbits(rng.randint(1, 2000)) + 1 for _ in range(2))
        certlog.ln_frac(F(num, den), 96)
    assert len(terms) >= 990 and max(terms) <= 12


_FRACTION_DUNDERS = [
    f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow") for r in ("", "r")
] + ["__neg__", "__pos__", "__abs__", "__floor__", "__ceil__", "__round__", "__bool__",
     "__eq__", "__lt__", "__le__", "__gt__", "__ge__"]


def _forbid_fraction_arithmetic(monkeypatch, what):
    def forbidden(*args):
        raise AssertionError(f"Fraction arithmetic in {what}")

    for name in _FRACTION_DUNDERS:
        monkeypatch.setattr(F, name, forbidden)


def _counting_fractions(monkeypatch, built):
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)


def test_ln_frac_does_no_fraction_arithmetic(monkeypatch):
    # a 2000-bit argument: every Fraction operation would pay a 2000-bit gcd
    rng = random.Random(2000)
    x = F(rng.getrandbits(2000) | 1 << 1999, rng.getrandbits(1990) | 1)
    expected = certlog.ln_frac(x, 96)
    _forbid_fraction_arithmetic(monkeypatch, "ln_frac")
    got = certlog.ln_frac(x, 96)
    monkeypatch.undo()
    assert got == expected


CF_41 = "cf:[0;" + ",".join(str(1 + (7 * j) % 9) for j in range(40)) + "]"


@pytest.mark.parametrize("spec,eps,Q", [
    (CF_41, F(1, 100), 1000),
    ("const:sqrt2", F(1, 1000), 10**40),
    ("const:e", F(1, 1000), 10**40),
    ("const:zeta3", F(1, 1000), 10**400),
])
def test_case_ii_solve_does_no_fraction_arithmetic(monkeypatch, spec, eps, Q):
    # from the parameters on, the solve runs on integers: no Fraction is
    # added, multiplied, compared or rounded
    params = LemmaParams(F(3, 2), F(19, 10), eps, Q)
    expected = solve_disjunction(parse_oracle(spec), params)
    assert expected.outcome == "case_ii"
    oracle = parse_oracle(spec)
    _forbid_fraction_arithmetic(monkeypatch, "a case (ii) solve")
    got = solve_disjunction(oracle, params)
    monkeypatch.undo()
    assert got == expected


def test_case_i_solve_builds_only_its_witness_bounds(monkeypatch):
    # a case (i) solve on a rational value builds two Fractions, the
    # witness's bound_u and bound_dist, and does no Fraction arithmetic
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 100), 50)
    expected = solve_disjunction(parse_oracle("rat:355/113"), params)
    assert expected.outcome == "case_i"
    oracle = parse_oracle("rat:355/113")
    built = []
    _forbid_fraction_arithmetic(monkeypatch, "a case (i) solve")
    _counting_fractions(monkeypatch, built)
    got = solve_disjunction(oracle, params)
    monkeypatch.undo()
    assert got == expected
    w = got.witness
    assert len(built) == 2
    assert (w.bound_u, w.bound_dist) == (params.bound_u, params.dist_factor / (w.u * params.Q))


BUILD_SPECS = ("const:sqrt2", "const:golden", "const:e", "cf:[1;2,3]+periodic:[1,4]")


def _build_op(oracle, rates, n0):
    """One op of the benchmark's build workload: build_sequence on 3 indices
    at mu_upper 21/10, then measure_rates and density_data on its entries."""
    res = build_sequence(oracle, F(21, 10), rates, range(n0, n0 + 3))
    est = seqbuild.measure_rates(res.entries, oracle)
    return res, est, seqbuild.density_data([e.u for e in res.entries], oracle)


@pytest.mark.parametrize("spec", ["const:sqrt2", BUILD_SPECS[-1]])
@pytest.mark.parametrize("alpha", [F(1, 2), F(2, 5)])
def test_build_op_does_no_fraction_arithmetic(monkeypatch, spec, alpha):
    # past the entries, the row, its bands, the rate precheck, the rates and
    # the density run on integers: no Fraction is added, multiplied, compared
    # or rounded, and Fractions are built only for fields
    rates = RateSpec(alpha, 3)
    expected = _build_op(parse_oracle(spec), rates, 20)
    oracle = parse_oracle(spec)
    _forbid_fraction_arithmetic(monkeypatch, "a build op")
    got = _build_op(oracle, rates, 20)
    monkeypatch.undo()
    assert got == expected


def test_build_op_builds_few_fractions(monkeypatch):
    # about 83 per op while the build did Fraction arithmetic, 37.1 while the
    # logs took Fraction arguments; now 33.1, the LemmaParams and result fields
    ops = [(parse_oracle(spec), RateSpec(alpha, 3), n0)
           for spec in BUILD_SPECS for alpha in (F(1, 2), F(2, 5)) for n0 in (20, 45)]
    built = []
    _counting_fractions(monkeypatch, built)
    for op in ops:
        _build_op(*op)
    monkeypatch.undo()
    assert len(built) <= 34 * len(ops)


def test_form_residuals_are_short_dyadics(monkeypatch):
    # exact sums would carry 2000-3000-bit ends into every later gcd
    seen = []
    evaluate = multiform.evaluate_form

    def recording(form, point, index=None):
        seen.append(evaluate(form, point, index))
        return seen[-1]

    monkeypatch.setattr(multiform, "evaluate_form", recording)
    multiform.tau_empirical(multiform.apery_forms(3, 120), window=(60, 120))
    assert len(seen) == 61
    for enc in seen:
        for end in (enc.lo, enc.hi):
            d = end.denominator
            assert d & (d - 1) == 0
            assert end.numerator.bit_length() <= 129


@pytest.mark.parametrize("s", [2, 3])
def test_apery_window_opens_no_ladder(monkeypatch, s):
    # every form of the window separates on the first rung, which
    # oracle.separated decides itself; a value it leaves unseparated climbs
    # one ladder, from the second rung
    ladders = []
    refine = oracle.refine
    monkeypatch.setattr(oracle, "refine", lambda *a, **kw: ladders.append(kw.get("start")) or refine(*a, **kw))
    multiform.tau_empirical(multiform.apery_forms(s, 120), window=(60, 120))
    assert ladders == []
    zero = multiform.LinearForm((2, -1))
    point = PointVec((parse_oracle("const:sqrt2"), parse_oracle("affine:2/1/0/1:const:sqrt2")))
    token = oracle.PRECISION_CAP.set(256)
    try:
        with pytest.raises(Inconclusive):
            multiform.evaluate_form(zero, point)
    finally:
        oracle.PRECISION_CAP.reset(token)
    assert ladders == [128]


def test_a_tuple_of_ints_is_kept_as_given():
    coeffs = (3, -(10**40), 0)
    assert multiform.LinearForm(coeffs).coeffs is coeffs


def test_omega0_decides_each_distance_on_one_ladder(monkeypatch):
    point = PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"), SqrtOracle(3, "sqrt3")))
    ratios = point.ratio_oracles()
    ladders, enclosed = _ladders(monkeypatch, ratios)
    spans = []
    verify = multiform._refined_max_dist

    def recording(rs, q):
        start = (len(ladders), len(enclosed))
        got = verify(rs, q)
        spans.append((*start, len(ladders), len(enclosed)))
        return got

    monkeypatch.setattr(multiform, "_refined_max_dist", recording)
    omega0_search(point, 10**4)
    assert spans
    for l0, e0, l1, e1 in spans:
        assert l1 - l0 == len(ratios)
        _assert_single_ladders(ladders[l0:l1], enclosed[e0:e1])
        # the fixed points enclosed each ratio above 64 bits, and the first
        # rung reads that finer enclosure, so it decides
        assert all(levels == [64] for levels in ladders[l0:l1])


def test_evaluate_form_encloses_no_exact_coordinate(monkeypatch):
    # the exact coordinates' terms are summed once per call, not read again
    # on every rung of the separation ladder
    specs = ("rat:1", "const:sqrt2", "rat:1/3", "affine:3/7/1/2:const:e", "rat:-5/7", "cf:[1;2,3]")
    coords = [parse_oracle(s) for s in specs]
    enclosed = []
    for c in coords:
        enclose = c.enclose
        monkeypatch.setattr(c, "enclose", lambda k, c=c, e=enclose: enclosed.append(c.spec) or e(k))
    point = PointVec(tuple(coords))
    for coeffs in ((1, 2, 3, 4, 5, 6), (-7, 10**30, 0, -(10**29), 11, 0), (5, 0, 9, 1, -2, 3)):
        multiform.evaluate_form(multiform.LinearForm(coeffs), point)
    assert set(enclosed) == {"const:sqrt2", "affine:3/7/1/2:const:e"}
    seq = multiform.apery_forms(3, 80)
    one, enclose = seq.point.coords[0], seq.point.coords[0].enclose
    monkeypatch.setattr(one, "enclose", lambda k: enclosed.append(one.spec) or enclose(k))
    multiform.tau_empirical(seq, window=(40, 80))
    assert one.spec not in enclosed


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("n", [80, 120])
def test_apery_rates_decide_on_bit_lengths_and_read_four_heights(monkeypatch, s, n):
    # the window's residuals are 2**-48 and below and mostly move by about
    # a bit per step, so bit lengths settle nearly every step: at s = 3 and
    # n = 80 the two steps onto the primes 43 and 47, where the scale jumps
    # by n**3, land near the 3/4 edge, within the bound's radius of it. The
    # limits read the window's first height and its last three
    powers, heights = [], []
    power_test, height = seqbuild._power_test, multiform.LinearForm.height
    monkeypatch.setattr(seqbuild, "_power_test", lambda *a: powers.append(a) or power_test(*a))
    monkeypatch.setattr(
        multiform.LinearForm, "height",
        property(lambda f: heights.append(f) or height.fget(f)),
    )
    est = multiform.tau_empirical(multiform.apery_forms(s, n), window=(n // 2, n))
    assert est.regular and est.decayed
    assert len(powers) <= (2 if (s, n) == (3, 80) else 0)
    assert len(heights) <= 4
