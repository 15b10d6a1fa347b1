import json
import math
import random
from fractions import Fraction as F

import pytest

from dioph import dichotomy
from dioph.cli import main
from dioph.contfrac import convergents, expand
from dioph.dichotomy import (
    LemmaParams,
    _case_i_hit,
    _certify_le,
    _frac_window_check,
    _residue_hits,
    _Stats,
    _surrogate,
    find_fractional_hit,
    solve_disjunction,
)
from dioph.enclosure import Enclosure
from dioph.errors import (
    CertificateError,
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
    SqrtOracle,
    nearest_int,
    parse_oracle,
)

SQRT2 = SqrtOracle(2, "sqrt2")
GOLDEN = GoldenOracle()


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
            hit, p = _frac_window_check(oracle, q, t_lo, t_hi, _Stats())
        else:
            p = math.floor(q * exact)
            hit = t_lo <= q * exact - p <= t_hi
        if hit:
            return q, p
    return None


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


def test_window_hit_failing_its_band_is_a_bug(capsys, monkeypatch):
    # a window hit always lies in the band, so a failed residual
    # certificate exits 5 (bug), never 4 (no witness exists)
    def refuse(oracle, q, p, eps, cpe, stats):
        return Enclosure.point(0), False

    monkeypatch.setattr(dichotomy, "_residual_signed", refuse)
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
    # 3 q mod 7 in [0, 1] for q = 0 or 5 mod 7: 8 hits in [1, 32], 9 in [1, 33]
    hits = [5, 7, 12, 14, 19, 21, 26, 28]
    monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", 8)
    assert list(_residue_hits(3, 7, 1, 32, lambda q: (0, 1))) == hits
    seen = []
    with pytest.raises(RangeTooLarge, match="budget 8"):
        for q in _residue_hits(3, 7, 1, 33, lambda q: (0, 1)):
            seen.append(q)
    assert seen == hits


def test_surrogate_is_the_first_convergent_accurate_enough():
    # sqrt2 convergents 1/1, 3/2, 7/5, 17/12, 41/29, 99/70: 29 * 70 >= 1000
    sur = _surrogate(SqrtOracle(2, "sqrt2"), 1000)
    assert (sur.p, sur.q) == (41, 29)
    # past the first 16 quotients: the expansion depth has to double twice
    sur = _surrogate(SqrtOracle(2, "sqrt2"), 10**30)
    assert sur.index == 39 and sur.q == 723573111879672


def _approx_fractions(oracle, u_limit):
    """Reference: every convergent and semiconvergent (u, v) with u below
    ``u_limit``, listed one at a time in increasing denominator order."""
    supply = oracle.quotient_count()
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


@pytest.fixture
def certify_calls(monkeypatch):
    """Counts the case (i) distance checks the dichotomy makes."""
    calls = []

    def counting(oracle, u, v, bound, stats):
        calls.append((u, v))
        return _certify_le(oracle, u, v, bound, stats)

    monkeypatch.setattr(dichotomy, "_certify_le", counting)
    return calls


def test_short_quotient_supply_is_unrepresentable(certify_calls):
    # quotients 0, 2, 2**2, 2**6 and no more: denominators 1, 2, 9, 578
    short = CFOracle(None, liouville_base=2, liouville_cap=3)
    with pytest.raises(Unrepresentable, match="surrogate of accuracy 1/1000000"):
        _surrogate(short, 10**6)
    # |1 xi - 0| < 1 would pass; the supply runs out before any check
    with pytest.raises(Unrepresentable, match="below denominator bound 1000000"):
        _case_i_hit(short, F(10**6), F(1), _Stats())
    assert certify_calls == []


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
        assert _case_i_hit(oracle, u_limit, bound, _Stats()) == expected


def test_case_i_denominator_bound_is_strict():
    # sqrt2: |2 xi - 3| = 0.17..., |5 xi - 7| = 0.07...; u = 5 is not below 5
    assert _case_i_hit(SQRT2, F(5), F(1, 10), _Stats()) is None
    assert _case_i_hit(SQRT2, F(6), F(1, 10), _Stats()) == (5, 7)


def _lemma_cli(capsys, spec, eps, big_q):
    code = main([
        "lemma", "--oracle", spec, "--c", "3/2", "--c-prime", "19/10",
        "--eps", eps, "--Q", big_q,
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    return json.loads(out)


def test_long_semiconvergent_run_is_skipped(capsys, certify_calls):
    # a_2 = 10**8: the linear scan listed 10**8 semiconvergents and hung
    doc = _lemma_cli(capsys, "cf:[0;3,100000000]+periodic:[1]", "1/10000000", "1000")
    assert doc["outcome"] == "I"
    assert (doc["witness"]["u"], doc["witness"]["v"]) == ("3", "1")
    assert certify_calls == [(1, 0), (3, 1)]


def test_liouville_case_i_checks_convergents_only(capsys, certify_calls):
    # a_4 = 2**24 semiconvergents lie below the denominator bound 2.25e13;
    # one check each ran for minutes
    doc = _lemma_cli(capsys, "cf:liouville:2", "1e-12", "1e12")
    assert doc["outcome"] == "I"
    assert (doc["witness"]["u"], doc["witness"]["v"]) == ("9697230857", "4311744516")
    assert [u for u, _ in certify_calls] == [1, 2, 9, 578, 9697230857]


def test_affine_liouville_surrogate_stops_before_the_supply(capsys):
    # the walk asked for 16 quotients first, so the affine oracle's ladder
    # ran past the inner quotient supply and raised UNREPRESENTABLE; a scan
    # of every q from Q up finds the same first hit
    doc = _lemma_cli(capsys, "affine:1/1:cf:liouville:3", "1/1000", "3486784401")
    assert doc["outcome"] == "II"
    assert (doc["witness"]["q"], doc["witness"]["p"]) == ("3486799276", "4607562286")
