import json
import math
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from dioph import dichotomy
from dioph.cli import main
from dioph.contfrac import convergents, expand
from dioph.dichotomy import (
    LemmaParams,
    _Descent,
    _case_i_search,
    _find_hit,
    _frac_window_check,
    _residue_hits,
    _Stats,
    _surrogate_window,
    find_fractional_hit,
    solve_disjunction,
)
from dioph.enclosure import Enclosure
from dioph.errors import (
    CertificateError,
    Inconclusive,
    NeitherCaseCertified,
    PreconditionError,
    RangeTooLarge,
    Unrepresentable,
)
from dioph.oracle import (
    AffineOracle,
    CFOracle,
    GoldenOracle,
    RationalOracle,
    RealOracle,
    SqrtOracle,
    convergent_pairs,
    nearest_int,
    parse_oracle,
    refine,
    sign_of_form,
)

SQRT2 = SqrtOracle(2, "sqrt2")
GOLDEN = GoldenOracle()


def window(t_lo, t_hi, lo_strict=False, hi_strict=False):
    """[t_lo, t_hi] in the search's integer form (lo, hi, den, lo_strict, hi_strict)."""
    (a, b), (c, e) = F(t_lo).as_integer_ratio(), F(t_hi).as_integer_ratio()
    return a * e, c * b, b * e, lo_strict, hi_strict


def case_i_search(oracle, u_limit, bound, stats):
    """``_case_i_search`` on rationals, which it takes as (numerator, denominator) pairs."""
    return _case_i_search(oracle, F(u_limit).as_integer_ratio(), F(bound).as_integer_ratio(), stats)


class TestLemmaParams:
    def test_valid(self):
        p = LemmaParams(F(3, 2), F(19, 10), F(1, 2), 10**6)
        assert p.bound_u == 45
        assert p.dist_factor == F(53, 2)

    @pytest.mark.parametrize(
        "c,cp,eps,Q",
        [
            (2, 3, F(1, 100), 10),      # c, c' out of (1, 2)
            (F(3, 2), F(3, 2), F(1, 10), 10),  # need c < c'
            (F(19, 10), F(3, 2), F(1, 10), 10),
            (F(3, 2), F(19, 10), 0, 10),
            (F(3, 2), F(19, 10), 1, 10),
            (F(3, 2), F(19, 10), F(1, 10), 1),
        ],
    )
    def test_invalid(self, c, cp, eps, Q):
        with pytest.raises(PreconditionError):
            LemmaParams(c, cp, eps, Q)


def test_window_search_shifted_sqrt2():
    hit = find_fractional_hit(AffineOracle(1, -1, SQRT2), 10, 15, F(1, 10), F(19, 100))
    assert hit == (10, 4)


def test_window_search_rational_miss():
    assert find_fractional_hit(RationalOracle(F(1, 2)), 2, 4, F(1, 10), F(2, 5)) is None


def test_window_search_shifted_golden():
    hit = find_fractional_hit(AffineOracle(1, -1, GOLDEN), 5, 8, F(1, 20), F(1, 10))
    assert hit == (5, 3)


def test_window_search_sqrt2_narrow_band():
    q, p = find_fractional_hit(SQRT2, 50, 100, F(1, 100), F(3, 100))
    assert (q, p) == (58, 82)
    # certify 1/100 < 58 sqrt2 - 82 < 3/100 by squaring
    assert (F(82) + F(1, 100)) ** 2 < 2 * 58**2 < (F(82) + F(3, 100)) ** 2


def test_window_search_preconditions():
    # an inverted q range is an empty search, not an error
    assert find_fractional_hit(SQRT2, 10, 5, F(1, 10), F(2, 10)) is None
    with pytest.raises(PreconditionError):
        find_fractional_hit(SQRT2, 5, 10, F(0), F(1, 2))
    with pytest.raises(PreconditionError):
        find_fractional_hit(SQRT2, 5, 10, F(1, 2), F(3, 2))


def direct_hit(oracle, q_lo, q_hi, t_lo, t_hi):
    """Reference: check every q in [q_lo, q_hi] in turn, an exact value by
    its fractional part and any other by the certified window check."""
    t_lo, t_hi = F(t_lo), F(t_hi)
    exact = oracle.exact_value()
    for q in range(max(1, math.ceil(q_lo)), math.floor(q_hi) + 1):
        if exact is None:
            hit = _frac_window_check(oracle, q, window(t_lo, t_hi), _Stats())
            if hit is not None:
                return q, hit[0]
        elif t_lo <= q * exact - math.floor(q * exact) <= t_hi:
            return q, math.floor(q * exact)
    return None


class FixedEnclosure(RealOracle):
    """An oracle whose every enclosure is [lo, hi], recording each k asked for."""

    spec = "fixed"

    def __init__(self, lo, hi):
        super().__init__()
        self.enc, self.asked = Enclosure(lo, hi), []

    def enclose(self, k):
        self.asked.append(k)
        return self.enc


def test_window_check_decides_outside_where_the_floor_is_undecided():
    # 3 xi in [29/10, 31/10] straddles 3, so floor(3 xi) stays undecided,
    # but no integer p puts 3 xi - p in [3/10, 3/5]: the first enclosure
    # decides "outside", where the floor-based check climbed to the cap
    oracle = FixedEnclosure(F(29, 30), F(31, 30))
    stats = _Stats()
    assert _frac_window_check(oracle, 3, window(F(3, 10), F(3, 5)), stats) is None
    assert oracle.asked == [64] and stats.candidates == 1
    # a given enclosure of 3 xi decides it before any rung is read
    near = Enclosure(F(29, 10), F(31, 10))
    assert _frac_window_check(oracle, 3, window(F(3, 10), F(3, 5)), stats, near) is None
    assert oracle.asked == [64] and stats.candidates == 2
    # the least candidate strictly inside is the hit, with its enclosure
    assert _frac_window_check(oracle, 3, window(F(-1, 5), F(1, 5)), stats) == (3, Enclosure(F(-1, 10), F(1, 10)))


STRUCTURED_CASES = [
    (SQRT2, 10, 40, F(1, 10), F(3, 10)),
    (SQRT2, 100, 200, F(1, 50), F(1, 25)),
    (SQRT2, 1, 30, F(2, 5), F(1, 2)),
    (GOLDEN, 7, 90, F(1, 25), F(2, 25)),
    (CFOracle((0, 3, 1000000)), 5, 60, F(3, 10), F(7, 20)),
]


@pytest.mark.parametrize("oracle,qlo,qhi,tlo,thi", STRUCTURED_CASES)
def test_structured_matches_direct(oracle, qlo, qhi, tlo, thi):
    assert find_fractional_hit(oracle, qlo, qhi, tlo, thi) == direct_hit(
        oracle, qlo, qhi, tlo, thi
    )


def test_disjunction_case_ii_example():
    res = solve_disjunction(
        AffineOracle(1, -1, SQRT2), LemmaParams(F(3, 2), F(19, 10), F(1, 10), 10)
    )
    assert res.outcome == "case_ii"
    assert (res.witness.q, res.witness.p) == (10, 4)
    # residual encloses 10 sqrt2 - 14
    r = res.residual
    assert (14 + r.lo) ** 2 <= 200 <= (14 + r.hi) ** 2
    assert F(1, 10) <= r.lo and r.hi <= F(19, 100)
    assert res.stats.candidates >= 1


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    [example] = [b for b in blocks if "affine:1/-1:const:sqrt2" in b]
    assert "enclosure of 10*xi - 4," in example
    scope = {}
    exec(example, scope)
    res = scope["res"]
    assert (res.witness.q, res.witness.p) == (10, 4)
    assert "CaseIIWitness(q=10, p=4)" in capsys.readouterr().out
    # xi = sqrt2 - 1, so 10 xi - 4 = 10 sqrt2 - 14
    r = res.residual
    assert -14 < r.lo and (14 + r.lo) ** 2 <= 200 <= (14 + r.hi) ** 2
    a = r.abs()
    assert F(1, 10) <= a.lo and a.hi < F(19, 10) * F(1, 10)


def test_case_ii_residual_is_the_window_checks_enclosure():
    # frac(3 xi) is within 10**-30 of 1/2: the band eps <= |r| < c' eps
    # holds on the level-64 enclosure, the window [eps, 1/2] only on the
    # level-128 one, and the residual is the enclosure that decided the window
    xi = parse_oracle("cf:[0;2,1000000000000000000000000000000]+periodic:[1]")
    res = solve_disjunction(xi, LemmaParams(F(3, 2), F(19, 10), F(3, 10), 3))
    assert (res.witness.q, res.witness.p) == (3, 1)
    assert res.stats.precision_bits == 128
    assert res.residual == xi.enclose(128) * 3 - 1


NEAR_HALF = "cf:[0;2,1000000000000000000000000000000]+periodic:[1]"


def test_both_windows_try_a_q_their_streams_share(monkeypatch):
    # frac(q xi) = 1/2 + 2.8e-21 at every odd q near 10**40: q = 10**40 + 1 is
    # a candidate of the plus window [49/100, 1/2], enlarged past 1/2, and of
    # the minus window (-1/2, -49/100]; the plus check misses, and the minus
    # check of the same q is the hit
    checks = []
    check = dichotomy._frac_window_check

    def recording(oracle, q, win, *args):
        checks.append((q, F(win[0], win[2])))
        return check(oracle, q, win, *args)

    monkeypatch.setattr(dichotomy, "_frac_window_check", recording)
    eps, w, Q = F(49, 100), F(1, 2), 10**40
    windows = [window(eps, w, False, False), window(-w, -eps, True, False)]
    q, p, f = _find_hit(parse_oracle(NEAR_HALF), Q, 3 * Q // 2, windows, _Stats())
    assert (q, p) == (Q + 1, 4999999999999999999999999999997500000001)
    assert checks == [(Q + 1, eps), (Q + 1, -w)]
    assert -w < f.lo and f.hi <= -eps


@pytest.mark.parametrize("cap,error,checked", [
    (None, RangeTooLarge, 1000),
    # the first surrogate is read at level 64, a restart at 128 and the next
    # one would pass the cap
    (128, Inconclusive, 128),
])
def test_misses_forever_end_at_the_budget_or_the_cap(monkeypatch, precision_cap, cap, error, checked):
    # a check that rejects every candidate: the restarts after 64, 128, 256
    # and 512 misses share one budget, and the cap ends them
    checks = []
    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 1000)
    monkeypatch.setattr(dichotomy, "_frac_window_check", lambda oracle, q, *a: checks.append(q))
    if cap is not None:
        precision_cap(cap)
    stats = _Stats()
    with pytest.raises(error):
        _find_hit(SqrtOracle(2, "sqrt2"), 1, 10**9, [window(F(1, 3), F(2, 3), False, False)], stats)
    assert len(checks) == checked
    assert checks == sorted(set(checks))
    assert stats.bits == (1024 if cap is None else 128)


class ShortSupply(CFOracle):
    """A CF oracle whose supply runs short after the search's first surrogate:
    every later read by the window search raises UNREPRESENTABLE."""

    reads = 0

    def within(self, width, what=None, stats=None):
        if what is not None:
            self.reads += 1
            if self.reads > 1:
                raise Unrepresentable("supply too short for a finer surrogate")
        return super().within(width, what, stats)


def test_a_short_supply_keeps_the_old_surrogate(monkeypatch):
    # the eps = 3/10 near-half lemma finds its witness on the surrogate read
    # after 64 misses; when that read is UNREPRESENTABLE, the streams go on
    # on the first surrogate, past the last candidate, with no further read,
    # and the search ends at the budget with that read's UNREPRESENTABLE
    checks = []
    check = dichotomy._frac_window_check

    def recording(oracle, q, *args):
        checks.append(q)
        return check(oracle, q, *args)

    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 200)
    monkeypatch.setattr(dichotomy, "_frac_window_check", recording)
    xi = ShortSupply([0, 2, 10**30], periodic=[1])
    assert xi.spec == NEAR_HALF
    with pytest.raises(Unrepresentable) as info:
        solve_disjunction(xi, LemmaParams(F(3, 2), F(8, 5), F(3, 10), 10**40))
    assert info.value.exit_code == 3
    assert xi.reads == 2
    assert len(checks) == 200 and checks == sorted(set(checks))


def test_window_hit_failing_its_band_is_a_bug(capsys, monkeypatch):
    # a window hit always lies in the band, so a hit whose enclosure fails
    # the band check exits 5 (bug), never 4 (no witness exists)
    def out_of_band(oracle, q, window, stats, near=None):
        return 0, Enclosure.point(0)

    monkeypatch.setattr(dichotomy, "_frac_window_check", out_of_band)
    with pytest.raises(CertificateError) as info:
        solve_disjunction(
            AffineOracle(1, -1, SQRT2), LemmaParams(F(3, 2), F(19, 10), F(1, 10), 10)
        )
    assert info.value.code == "INTERNAL"
    argv = ["lemma", "--oracle", "const:sqrt2", "--c", "3/2", "--c-prime", "19/10",
            "--eps", "1/10", "--Q", "10"]
    assert main(argv) == 5
    assert "error: INTERNAL" in capsys.readouterr().err


def test_disjunction_case_i_example():
    oracle = CFOracle((0, 3, 1000000))
    assert oracle.exact_value() == F(1000000, 3000001)
    res = solve_disjunction(oracle, LemmaParams(F(3, 2), F(19, 10), F(1, 2), 10**6))
    assert res.outcome == "case_i"
    w = res.witness
    assert (w.u, w.v) == (3, 1)
    assert w.bound_u == 45
    assert w.bound_dist == F(53, 2) / (3 * 10**6)
    # |3 xi - 1| = 1/3000001 is far inside the certified distance
    assert abs(3 * oracle.exact_value() - 1) <= F(53, 2) / 10**6


def test_disjunction_rejects_bad_params():
    with pytest.raises(PreconditionError):
        solve_disjunction(SQRT2, LemmaParams(2, 3, F(1, 100), 50))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["c", "c_prime", "eps", "Q"])
def test_lemma_params_reject_non_finite_floats(field, bad):
    fields = {"c": F(3, 2), "c_prime": F(19, 10), "eps": F(1, 100), "Q": 50, field: bad}
    with pytest.raises(PreconditionError) as err:
        LemmaParams(**fields)
    assert err.value.code == "BAD_PARAMS"


def test_disjunction_neither_case_is_honest():
    # eps within 1e-6 of 1/2 pinches the case (ii) band to a sliver, and at
    # Q = 3000 the distance bound is below everything a u < 46 can reach
    # for the golden ratio. The solver must refuse to certify either case.
    params = LemmaParams(F(3, 2), F(19, 10), F(499999, 1000000), 3000)
    with pytest.raises(NeitherCaseCertified):
        solve_disjunction(AffineOracle(1, -1, GOLDEN), params)
    # brute confirmation, case (ii): no q in [3000, 4500] has
    # ||q phi|| >= 499999/1000000
    for q in range(3000, 4501):
        _, d = nearest_int(GOLDEN, q)
        assert d.hi < params.eps
    # brute confirmation, case (i): every u below the bound stays farther
    # than dist_factor / Q from its nearest fraction
    thr = params.dist_factor / params.Q
    for u in range(1, 46):
        _, d = nearest_int(GOLDEN, u)
        assert d.lo > thr


def _brute_case_ii(val, params):
    q = -((-params.Q.numerator) // params.Q.denominator)
    q_hi = (params.c * params.Q).__floor__()
    while q <= q_hi:
        t = q * val
        fr = t - t.__floor__()
        d = min(fr, 1 - fr)
        if params.eps <= d < params.c_prime * params.eps:
            p = t.__floor__() + (0 if 2 * fr <= 1 else 1)
            return q, p
        q += 1
    return None


def _brute_case_i(val, params):
    thr = params.dist_factor / params.Q
    u = 1
    while u < params.bound_u:
        t = u * val
        fr = t - t.__floor__()
        if min(fr, 1 - fr) <= thr:
            return u
        u += 1
    return None


def test_brute_force_agreement():
    rng = random.Random(911)
    outcomes = {"ii": 0, "i": 0, "none": 0}
    for _ in range(150):
        quots = [0] + [rng.randint(1, 9) for _ in range(12)]
        oracle = CFOracle(quots)
        val = oracle.exact_value()
        Q = rng.randint(10, 2000)
        eps = F(rng.randint(1, 4999), 10000)
        c = 1 + F(rng.randint(1, 999), 1000)
        cp = c + (2 - c) * F(rng.randint(1, 999), 1000)
        params = LemmaParams(c, cp, eps, Q)
        expect_ii = _brute_case_ii(val, params)
        try:
            res = solve_disjunction(oracle, params)
        except NeitherCaseCertified:
            assert expect_ii is None
            assert _brute_case_i(val, params) is None
            outcomes["none"] += 1
            continue
        if res.outcome == "case_ii":
            assert expect_ii == (res.witness.q, res.witness.p)
            outcomes["ii"] += 1
        else:
            assert expect_ii is None
            assert _brute_case_i(val, params) == res.witness.u
            outcomes["i"] += 1
    # the draw should exercise both branches
    assert outcomes["ii"] > 50 and outcomes["i"] >= 3


def test_residue_stream_budget_counts_hits(monkeypatch):
    # 3 q mod 7 in [0, 1] for q = 0 or 5 mod 7: 8 hits in [1, 32], 9 in [1, 33];
    # the fixed window takes three descents, the rest are three-gap steps, and
    # a stream read for one hit takes one (most window searches read one)
    hits = [5, 7, 12, 14, 19, 21, 26, 28]
    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 8)
    assert list(_residue_hits(_Descent(3, 7), 1, 32, lambda q: (0, 1))) == hits
    seen, descents = [], []
    first_hit = _Descent.first_hit
    monkeypatch.setattr(_Descent, "first_hit", lambda ch, *a: descents.append(a) or first_hit(ch, *a))
    assert next(_residue_hits(_Descent(3, 7), 1, 33, lambda q: (0, 1))) == 5
    assert len(descents) == 1
    with pytest.raises(RangeTooLarge, match="budget 8"):
        for q in _residue_hits(_Descent(3, 7), 1, 33, lambda q: (0, 1)):
            seen.append(q)
    assert seen == hits
    assert len(descents) == 1 + 3


def extend_convergents(conv: list, quots) -> list:
    """Reference: append to the convergents (p, q) in ``conv`` those of
    ``quots``, the quotients after the ones it covers, from the seeds 0/1,
    1/0 when empty; the oracle stored every convergent this way."""
    (p0, q0), (p1, q1) = [(0, 1), (1, 0), *conv[-2:]][-2:]
    for a in quots:
        p1, q1, p0, q0 = a * p1 + p0, a * q1 + q0, p1, q1
        conv.append((p1, q1))
    return conv


def quotient_supply(oracle):
    """Number of quotients a truncated or finite supply holds, else None."""
    if not isinstance(oracle, CFOracle):
        return None
    if oracle.liouville_base is not None:
        return oracle.liouville_cap + 1
    quots, ended = oracle.cf_quotients(0)
    return len(quots) if ended else None


def convergent_stream(oracle):
    """Reference: the convergents (p_j, q_j) of the value from j = 0, read off
    the oracle's quotient cache as it grows, up to the end of a terminated
    expansion or of a truncated supply."""
    supply = quotient_supply(oracle)

    def quotients():
        j = 0
        while (supply is None or j < supply) and j < len(quots := oracle.cf_quotients(j + 1)[0]):
            yield quots[j]
            j += 1

    return convergent_pairs(quotients())


def reference_within(oracle, width):
    """Reference for ``CFOracle.within``: the linear scan over the stored
    convergents that forms q_(j-1) q_j at every step, as an Enclosure."""
    n, j, conv = quotient_supply(oracle), 1, []
    while n is None or j < n:
        quots, _ = oracle.cf_quotients(j + 1)
        (p0, q0), (p1, q1) = extend_convergents(conv, quots[len(conv):j + 1])[j - 1:j + 1]
        if q0 * q1 * width.numerator >= width.denominator:
            a, b = F(p0, q0), F(p1, q1)
            return Enclosure(min(a, b), max(a, b))
        j += 1
    return None


def first_convergent_reached(oracle, q_bound):
    """(j, (p_j, q_j)) for the first convergent in the oracle's stream with
    q_j >= ``q_bound``."""
    return next((j, pq) for j, pq in enumerate(convergent_stream(oracle)) if pq[1] >= q_bound)


def test_walk_stops_at_the_first_convergent_reached():
    # sqrt2 denominators 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378
    assert first_convergent_reached(SqrtOracle(2, "sqrt2"), 1000) == (9, (3363, 2378))
    # a bound met exactly, past the quotients the first rung certifies
    o = SqrtOracle(2, "sqrt2")
    j, (_, q) = first_convergent_reached(o, 723573111879672)
    assert j == 39 and q == 723573111879672
    assert o.cf_quotients(0)[0][:40] == [1] + [2] * 39


def _first_accurate_convergent(oracle, accuracy_den):
    """((p_K, q_K), q_{K+1}) for the first convergent with q_K q_{K+1} >= accuracy_den."""
    supply, depth = quotient_supply(oracle), 16
    while True:
        cf = expand(oracle, (depth if supply is None else min(depth, supply)) - 1)
        cons = extend_convergents([], cf.quotients)
        for K in range(len(cons) - 1):
            if cons[K][1] * cons[K + 1][1] >= accuracy_den:
                return cons[K], cons[K + 1][1]
        if len(cf.quotients) < depth:
            raise Unrepresentable("quotient supply too small for a surrogate")
        depth *= 2


def convergent_surrogate_hit(oracle, q_lo, q_hi, t_lo, t_hi):
    """Reference for ``_find_hit`` on an irrational value: the window search
    on the convergent surrogate p_K/q_K with q_K q_{K+1} >= 8 n_hi/(t_hi -
    t_lo), its window enlarged by n_hi/(q_K q_{K+1}), as (q, p) or None."""
    n_lo, n_hi = max(1, q_lo.__ceil__()), q_hi.__floor__()
    if n_lo > n_hi:
        return None
    (a, m), m_next = _first_accurate_convergent(oracle, (8 * n_hi / (t_hi - t_lo)).__ceil__())
    delta = F(n_hi, m * m_next)
    lo_i, hi_i = ((t_lo - delta) * m).__ceil__(), ((t_hi + delta) * m).__floor__()
    for q in _residue_hits(_Descent(a, m), n_lo, n_hi, lambda q: (lo_i, hi_i)):
        hit = _frac_window_check(oracle, q, window(t_lo, t_hi), _Stats())
        if hit is not None:
            return q, hit[0]
    return None


def plain_window_hit(oracle, q_lo, q_hi, t_lo, t_hi, stats, lo_strict, hi_strict, budget, q_read=None):
    """Reference for one window of ``_find_hit``, as the search ran before the
    windows were merged: one stream on one surrogate, read for this window and
    for q up to ``q_read`` (default q_hi), with no restart; (q, floor(q xi),
    enclosure of frac(q xi)) or None, and RANGE_TOO_LARGE past ``budget``
    candidates."""
    n_lo, n_hi = max(1, q_lo.__ceil__()), q_hi.__floor__()
    v = oracle.exact_value()
    if n_lo > n_hi or v is None and t_lo >= t_hi:
        return None
    if v is None:
        n_read = n_hi if q_read is None else q_read.__floor__()
        enc = oracle.within((t_hi - t_lo) / (8 * n_read), "window surrogate", stats)
        residues = _surrogate_window(enc, n_read, window(t_lo, t_hi))
    else:
        enc = Enclosure.point(v)
        lo = (t_lo * enc.d).__floor__() + 1 if lo_strict else (t_lo * enc.d).__ceil__()
        residues = lo, (t_hi * enc.d).__ceil__() - 1 if hi_strict else (t_hi * enc.d).__floor__()
    for seen, q in enumerate(_residue_hits(_Descent(enc.l, enc.d), n_lo, n_hi, lambda q: residues)):
        if seen == budget:
            raise RangeTooLarge(f"candidate stream exceeded budget {budget}")
        if v is not None:
            stats.candidates += 1
            p = (q * v).__floor__()
            return q, p, Enclosure.point(q * v - p)
        hit = _frac_window_check(oracle, q, window(t_lo, t_hi), stats, enc * q)
        if hit is not None:
            return (q, *hit)
    return None


def plain_solve(oracle, params, budget, one_surrogate=False):
    """Reference for ``solve_disjunction``: the plus window frac(q xi) in
    [eps, w] over all of [Q, c Q], then the minus window [1 - w, 1 - eps] below
    the plus hit, w = min(c' eps, 1/2), then case (i) on [-b, b], each window
    on :func:`plain_window_hit`; (outcome, witness pair, candidates). The
    minus window reads its surrogate for q below the plus hit, or with
    ``one_surrogate`` for all of [Q, c Q], as the plus window does."""
    stats = _Stats()
    c, cp, eps, Q = params.c, params.c_prime, params.eps, params.Q
    w = min(cp * eps, F(1, 2))
    if eps <= F(1, 2):
        plus = plain_window_hit(oracle, Q, c * Q, eps, w, stats, False, w == cp * eps, budget)
        top = c * Q if plus is None else F(plus[0] - 1)
        minus = plain_window_hit(
            oracle, Q, top, 1 - w, 1 - eps, stats, True, False, budget, c * Q if one_surrogate else None
        )
        if minus is not None:
            return "case_ii", (minus[0], minus[1] + 1), stats.candidates
        if plus is not None:
            return "case_ii", plus[:2], stats.candidates
    u_hi = params.bound_u.__ceil__() - 1
    bound = params.dist_factor / Q
    beta = min(bound, F(1))
    hit = plain_window_hit(
        oracle, F(1), F(u_hi if 2 * bound < 1 else min(u_hi, 1)), -beta, beta, stats, False, False, budget
    )
    if hit is None:
        raise NeitherCaseCertified("no witness for either case")
    u, p, f = hit
    return "case_i", (u, p if f.le_certain(beta) else p + 1), stats.candidates


def _approx_fractions(oracle, u_limit):
    """Reference: every convergent and semiconvergent (u, v) with u below
    ``u_limit``, listed one at a time in increasing denominator order."""
    supply = quotient_supply(oracle)
    depth = 16
    while True:
        cf = expand(oracle, (depth if supply is None else min(depth, supply)) - 1)
        cons = convergents(cf)
        if cf.terminated or cons[-1].q >= u_limit:
            break
        if len(cf.quotients) < depth:
            raise Unrepresentable(f"quotient supply ends below denominator bound {u_limit}")
        depth *= 2
    out = []
    p_prev, q_prev = 1, 0
    for i, c in enumerate(cons):
        if i >= 1:
            a = cf.quotients[i]
            p0, q0 = cons[i - 1].p, cons[i - 1].q
            for j in range(1, a):
                u = q_prev + j * q0
                if u >= u_limit:
                    return out
                out.append((u, p_prev + j * p0))
            p_prev, q_prev = p0, q0
        if c.q >= u_limit:
            return out
        out.append((c.q, c.p))
    return out


def test_approx_fractions_in_denominator_order():
    got = _approx_fractions(SqrtOracle(2, "sqrt2"), 100)
    assert got[:6] == [(1, 1), (1, 2), (2, 3), (3, 4), (5, 7), (7, 10)]
    assert got[-1] == (99, 140)
    assert len(_approx_fractions(SqrtOracle(2, "sqrt2"), 10**20)) == 106


def _certify_le(oracle, u, v, bound: F, stats) -> bool:
    """Reference: certified |u xi - v| <= bound (inclusive)."""
    val = oracle.exact_value()
    if val is not None:
        return abs(u * val - v) <= bound

    def step(k):
        d = (oracle.enclose(k) * u - v).abs()
        if d.hi <= bound:
            return True
        if d.lo > bound:
            return False
        return None

    return refine(step, lambda: f"distance certificate for {v}/{u} undecided", stats)


def _case_i_hit(oracle, u_limit: F, bound: F, stats):
    """Reference for ``_case_i_search``: the first convergent (q, p) with q <
    u_limit and certified |q xi - p| <= bound, or None, the least such q by
    Lagrange's best-approximation theorem. A short quotient supply raises
    UNREPRESENTABLE before any check."""
    if quotient_supply(oracle) is not None and oracle.exact_value() is None and all(
        q < u_limit for _, q in convergent_stream(oracle)
    ):
        raise Unrepresentable(f"{oracle.spec}: quotient supply ends below denominator bound")
    for p, q in convergent_stream(oracle):
        if q >= u_limit:
            return None
        if _certify_le(oracle, q, p, bound, stats):
            return q, p
    return None


@pytest.fixture
def case_i_checks(monkeypatch):
    """Records u for each window check the dichotomy makes on case (i)'s
    window [-b, b], the one window that holds 0."""
    calls = []
    check = dichotomy._frac_window_check

    def counting(oracle, u, win, *a):
        if win[0] < 0 < win[1]:
            calls.append(u)
        return check(oracle, u, win, *a)

    monkeypatch.setattr(dichotomy, "_frac_window_check", counting)
    return calls


def test_short_quotient_supply_is_unrepresentable(case_i_checks):
    # quotients 0, 2, 2**2, 2**6 and no more: denominators 1, 2, 9, 578
    short = CFOracle(None, liouville_base=2, liouville_cap=3)
    with pytest.raises(Unrepresentable, match=r"quotients give width above 2\*\*-23"):
        find_fractional_hit(short, 10**5, 2 * 10**5, F(1, 3), F(2, 3))
    # at bound 1, u = 1 is the first hit whatever xi is: a coarse enclosure
    # decides v = 0 and no surrogate for u below 10**6 is asked for
    assert case_i_search(short, F(10**6), F(1), _Stats()) == (1, 0)
    assert case_i_checks == [1]
    # at bound 1/4, proving the first hit below 10**6 needs xi to within
    # 1/(16 (10**6 - 1)), which the supply cannot give
    with pytest.raises(Unrepresentable, match=r"quotients give width above 2\*\*-24$"):
        case_i_search(short, F(10**6), F(1, 4), _Stats())
    assert case_i_checks == [1]


CASE_I_SPECS = [
    "const:sqrt2", "const:e", "const:zeta3", "cf:liouville:3",
    "cf:[0;3,1000]+periodic:[1]", "rat:355/113", "cf:[0;2,1]",
]


@pytest.mark.parametrize("spec", CASE_I_SPECS)
def test_case_i_scan_matches_linear_scan(spec):
    rng = random.Random(spec)
    oracle = parse_oracle(spec)
    for _ in range(40):
        u_limit = F(rng.randint(2, 10**rng.randint(1, 9)), rng.randint(1, 7))
        if u_limit <= 1:
            continue
        bound = F(1, rng.randint(1, 10**rng.randint(1, 12)))
        expected = next(
            (
                (u, v) for u, v in _approx_fractions(oracle, u_limit)
                if _certify_le(oracle, u, v, bound, _Stats())
            ),
            None,
        )
        assert case_i_search(oracle, u_limit, bound, _Stats()) == expected
        assert _case_i_hit(oracle, u_limit, bound, _Stats()) == expected


def test_case_i_denominator_bound_is_strict():
    # sqrt2: |2 xi - 3| = 0.17..., |5 xi - 7| = 0.07...; u = 5 is not below 5
    assert case_i_search(SQRT2, F(5), F(1, 10), _Stats()) is None
    assert case_i_search(SQRT2, F(6), F(1, 10), _Stats()) == (5, 7)


@pytest.mark.parametrize("spec,bound,expected", [
    # from 1/2 on every window holds u = 1, and the floor side comes first
    ("const:e", F(1), (1, 2)),
    ("const:golden", F(7, 10), (1, 1)),
    ("const:golden", F(1, 2), (1, 2)),
    ("const:sqrt2", F(3), (1, 1)),
    ("rat:7/2", F(1, 2), (1, 3)),
    ("rat:-7/2", F(1, 2), (1, -4)),
    ("affine:-1/1/0/1:const:e", F(3, 5), (1, -3)),
])
def test_case_i_from_half_on_takes_u_one(spec, bound, expected):
    oracle = parse_oracle(spec)
    assert case_i_search(oracle, F(10**6), bound, _Stats()) == expected
    assert _case_i_hit(parse_oracle(spec), F(10**6), bound, _Stats()) == expected


def test_integer_with_trailing_quotient_one_takes_the_integer():
    # [0; 1] is 1: the convergent scan met 0/1 first, at distance 1, and
    # answered v = a0 = 0 wherever the bound reached 1; the window search
    # answers v = floor(1 xi) = 1, at distance 0
    for bound in (F(1), F(3, 2), F(3)):
        assert case_i_search(parse_oracle("cf:[0;1]"), F(100), bound, _Stats()) == (1, 1)
        assert _case_i_hit(parse_oracle("cf:[0;1]"), F(100), bound, _Stats()) == (1, 0)
    assert case_i_search(parse_oracle("cf:[0;1]"), F(100), F(9, 10), _Stats()) == (1, 1)
    assert _case_i_hit(parse_oracle("cf:[0;1]"), F(100), F(9, 10), _Stats()) == (1, 1)


def _lemma_cli(capsys, spec, eps, big_q):
    code = main([
        "lemma", "--oracle", spec, "--c", "3/2", "--c-prime", "19/10",
        "--eps", eps, "--Q", big_q,
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    return json.loads(out)


def test_long_semiconvergent_run_is_skipped(capsys, case_i_checks):
    # a_2 = 10**8: the linear scan listed 10**8 semiconvergents and hung
    doc = _lemma_cli(capsys, "cf:[0;3,100000000]+periodic:[1]", "1/10000000", "1000")
    assert doc["outcome"] == "I"
    assert (doc["witness"]["u"], doc["witness"]["v"]) == ("3", "1")
    assert len(case_i_checks) <= 2


def test_cf_surrogate_reports_its_precision(capsys):
    # the case (i) window check is decided on the surrogate, two convergents
    # with q_(j-1) q_j >= 2**81, read at level 128; the CF surrogate reported
    # no level, so the solve printed the 64 of a ladder it no longer climbs
    doc = _lemma_cli(capsys, "cf:liouville:2", "1e-12", "1e12")
    assert doc["outcome"] == "I"
    assert doc["stats"] == {"candidates": 1, "precision_bits": 128}


def test_liouville_case_i_checks_convergents_only(capsys, case_i_checks):
    # a_4 = 2**24 semiconvergents lie below the denominator bound 2.25e13;
    # one check each ran for minutes
    doc = _lemma_cli(capsys, "cf:liouville:2", "1e-12", "1e12")
    assert doc["outcome"] == "I"
    assert (doc["witness"]["u"], doc["witness"]["v"]) == ("9697230857", "4311744516")
    assert len(case_i_checks) <= 2


def test_case_i_solve_extracts_no_quotient():
    # the convergent scan expanded the affine value, 5 quotients by Euclid
    # on its enclosures; the window search reads enclosures only
    oracle = parse_oracle("affine:1/1:cf:liouville:2")
    res = solve_disjunction(oracle, LemmaParams(F(3, 2), F(19, 10), F(1, 10**12), 10**12))
    assert res.outcome == "case_i"
    assert (res.witness.u, res.witness.v) == (9697230857, 4311744516 + 9697230857)
    assert oracle._cf_quotients == []


def test_affine_liouville_surrogate_stops_before_the_supply(capsys):
    # the walk asked for 16 quotients first, so the affine oracle's ladder
    # ran past the inner quotient supply and raised UNREPRESENTABLE; a scan
    # of every q from Q up finds the same first hit
    doc = _lemma_cli(capsys, "affine:1/1:cf:liouville:3", "1/1000", "3486784401")
    assert doc["outcome"] == "II"
    assert (doc["witness"]["q"], doc["witness"]["p"]) == ("3486799276", "4607562286")


@pytest.fixture
def default_int_limit():
    """Python's default limit of 4300 digits on int-to-str conversion, which
    the CLI lifts around each command but a library caller keeps."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


BIG = 10**5000  # 16610 bits, past the 4300-digit limit
BIG_SQRT2 = math.isqrt(2 * BIG * BIG)  # floor(BIG sqrt2)


def test_lemma_past_4300_digits(default_int_limit):
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), BIG)
    res = solve_disjunction(SqrtOracle(2, "sqrt2"), params)
    assert res.outcome == "case_ii"
    assert BIG <= res.witness.q <= F(3, 2) * BIG
    assert F(1, 1000) <= res.residual.abs().lo


def test_lemma_past_4300_digits_under_a_low_cap_is_inconclusive(
    default_int_limit, precision_cap
):
    precision_cap(4096)
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), BIG)
    with pytest.raises(Inconclusive):
        solve_disjunction(SqrtOracle(2, "sqrt2"), params)


@pytest.mark.parametrize("ladder", [
    lambda o: _frac_window_check(o, BIG, window(F(1, 3), F(2, 3)), _Stats()),
    lambda o: _frac_window_check(o, BIG, window(F(-1, 10**6), F(1, 10**6)), _Stats()),
    lambda o: nearest_int(o, BIG),
    lambda o: sign_of_form(o, BIG, BIG_SQRT2),
    lambda o: find_fractional_hit(o, BIG, BIG, F(1, 3), F(2, 3)),
], ids=["window", "distance", "nearest", "sign", "surrogate"])
def test_failed_ladder_names_huge_numbers_by_bit_length(
    default_int_limit, precision_cap, ladder
):
    precision_cap(4096)
    with pytest.raises(Inconclusive, match="16610-bit number"):
        ladder(SqrtOracle(2, "sqrt2"))


@pytest.mark.parametrize("walk", [
    lambda o: case_i_search(o, F(BIG), F(1, 10), _Stats()),
], ids=["case_i"])
def test_short_quotient_supply_names_huge_numbers_by_bit_length(
    default_int_limit, case_i_checks, walk
):
    # the surrogate width 1/(40 (BIG - 1)), named by the bit length of 40 BIG
    with pytest.raises(Unrepresentable, match=r"give width above 2\*\*-16615$"):
        walk(CFOracle(None, liouville_base=2, liouville_cap=3))
    assert case_i_checks == []
