import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from dioph import certlog, dichotomy, multiform, seqbuild
from dioph.errors import (
    CertificateError,
    Degenerate,
    PreconditionError,
    RangeTooLarge,
    ZeroFormValue,
)
from dioph.multiform import (
    FormSequence,
    LinearForm,
    PointVec,
    apery_forms,
    dirichlet_witness,
    evaluate_form,
    nesterenko_report,
    omega0_search,
    tau_empirical,
)
from dioph.oracle import (
    GoldenOracle,
    RationalOracle,
    SqrtOracle,
    Zeta2Oracle,
    Zeta3Oracle,
    parse_oracle,
)

ONE = RationalOracle(1, spec="rat:1")
GOLDEN = GoldenOracle()
SQRT2 = SqrtOracle(2, "sqrt2")
SQRT3 = SqrtOracle(3, "sqrt3")


class TestBasics:
    def test_form_validation(self):
        assert LinearForm((-3, 2)).height == 3
        with pytest.raises(PreconditionError):
            LinearForm((5,))
        with pytest.raises(PreconditionError):
            LinearForm((0, 0))

    def test_point_validation(self):
        PointVec((ONE, SQRT2, SQRT3))
        with pytest.raises(PreconditionError):
            PointVec((SQRT2,))

    def test_ratio_oracles(self):
        assert PointVec((ONE, SQRT2)).ratio_oracles() == (SQRT2,)
        scaled = PointVec((RationalOracle(F(1, 2)), SQRT2)).ratio_oracles()
        enc = scaled[0].enclose(80)
        assert enc.lo**2 < 8 < enc.hi**2
        with pytest.raises(PreconditionError):
            PointVec((SQRT2, GOLDEN)).ratio_oracles()
        with pytest.raises(Degenerate):
            PointVec((RationalOracle(0), SQRT2)).ratio_oracles()

    @pytest.mark.parametrize("coeffs,want", [((2.0, F(4)), (2, 4)), ((True, -3), (1, -3))])
    def test_form_takes_integral_values(self, coeffs, want):
        coeffs = LinearForm(coeffs).coeffs
        assert coeffs == want and all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("coeffs", [
        (1.5, 2), (F(3, 2), 1), (0.4, 0.3), (math.inf, 1), (1, math.nan), ("1", 2), (None, 1),
    ])
    def test_form_refuses_what_is_not_an_integer(self, coeffs):
        # each was truncated (1.5 to 1, 0.4 and 0.3 to a zero form) or raised
        # a bare OverflowError, ValueError or TypeError
        with pytest.raises(PreconditionError, match="is not an integer") as info:
            LinearForm(coeffs)
        assert info.value.code == "BAD_FORM"

    @pytest.mark.parametrize("bad", [2.5, F(3, 2), math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_from_uv_refuses_what_is_not_an_integer(self, bad, at):
        rows = [[1, 2, 3], [2, 5, 7], [3, 12, 17]]
        rows[1][at] = bad
        with pytest.raises(PreconditionError) as info:
            FormSequence.from_uv(rows, SQRT2)
        assert info.value.code == "BAD_FORM"
        rows[1][at] = float([2, 5, 7][at])
        assert FormSequence.from_uv(rows, SQRT2).forms[1].coeffs == (-7, 5)

    @pytest.mark.parametrize("bad", [10.5, F(21, 2), math.inf, math.nan])
    @pytest.mark.parametrize("search", [dirichlet_witness, omega0_search])
    def test_search_bound_that_is_not_an_integer_is_bad_params(self, search, bad):
        # each raised a bare AttributeError from int.bit_length
        with pytest.raises(PreconditionError) as info:
            search(PointVec((ONE, SQRT2)), bad)
        assert info.value.code == "BAD_PARAMS"
        assert search(PointVec((ONE, SQRT2)), 10.0) == search(PointVec((ONE, SQRT2)), 10)

    def test_evaluate_form(self):
        with pytest.raises(PreconditionError):
            evaluate_form(LinearForm((1, 2, 3)), PointVec((ONE, SQRT2)))
        with pytest.raises(ZeroFormValue):
            evaluate_form(LinearForm((-1, 2)), PointVec((ONE, RationalOracle(F(1, 2)))))


def _binomial_value(s: int, n: int) -> int:
    term = lambda k: math.comb(n, k) ** 2 * math.comb(n + k, k) ** s
    return sum(term(k) for k in range(n + 1))


class TestAperyForms:
    def test_zeta3_matches_binomial_sums(self):
        seq = apery_forms(3, 30)
        assert seq.ns == tuple(range(31))
        assert seq.scale_e_power == 3
        for n in seq.ns:
            assert seq.forms[n].coeffs[1] == seq.scales[n] * _binomial_value(2, n)

    def test_zeta2_matches_binomial_sums(self):
        seq = apery_forms(2, 30)
        assert seq.scale_e_power == 2
        for n in seq.ns:
            assert seq.forms[n].coeffs[1] == seq.scales[n] * _binomial_value(1, n)

    def test_frozen_prefixes(self):
        a3 = apery_forms(3, 10)
        assert list(a3.scales[:4]) == [2, 2, 16, 432]
        assert a3.forms[2].coeffs == (-1404, 1168)
        a2 = apery_forms(2, 5)
        assert [f.coeffs for f in a2.forms[:3]] == [(0, 1), (-5, 3), (-125, 76)]
        assert list(a2.scales[:5]) == [1, 1, 4, 36, 144]

    def test_small_positive_value(self):
        a3 = apery_forms(3, 10)
        enc = evaluate_form(a3.forms[2], a3.point, index=2)
        assert 0 < enc.lo and enc.hi < F(1, 100)

    @pytest.mark.parametrize("s", [2, 3])
    def test_integer_recurrence_matches_fraction_recurrence(self, s):
        seq = apery_forms(s, 150)
        coeffs, scales = _fraction_apery(s, 150)
        assert [f.coeffs for f in seq.forms] == coeffs
        assert seq.scales == scales

    @pytest.mark.parametrize("s", [2, 3])
    def test_every_count_matches_the_fraction_recurrence(self, s):
        coeffs, scales = _fraction_apery(s, 60)
        for count in range(2, 61):
            seq = apery_forms(s, count)
            assert [f.coeffs for f in seq.forms] == coeffs[: count + 1]
            assert seq.scales == scales[: count + 1]
            assert seq.ns == tuple(range(count + 1))

    def test_integral_parameters_are_taken(self):
        seq = apery_forms(F(3), 40.0)
        assert seq.forms == apery_forms(3, 40).forms and seq.scale_e_power == 3

    @pytest.mark.parametrize("bad", [2.5, F(3, 2), math.inf, math.nan, "60"])
    def test_count_that_is_not_an_integer_is_bad_params(self, bad):
        for args in ((3, bad), (bad, 60)):
            with pytest.raises(PreconditionError) as info:
                apery_forms(*args)
            assert info.value.code == "BAD_PARAMS"

    @pytest.mark.parametrize("s", [2, 3])
    def test_too_small_scale_is_not_integral(self, monkeypatch, s):
        # scales 2 (s=3) and 1 (s=2): a_2 = 19/4 and b_2 = 351/4 are not integers
        monkeypatch.setattr(multiform, "lcm", lambda *args: 1)
        with pytest.raises(CertificateError) as info:
            apery_forms(s, 10)
        assert info.value.code == "INTEGRALITY"

    @pytest.mark.parametrize("bad", [0, -1, F(-1, 2)])
    def test_nonpositive_scale_rejected(self, bad):
        seq = apery_forms(3, 20)
        scales = list(seq.scales)
        scales[12] = bad
        with pytest.raises(PreconditionError) as info:
            FormSequence(seq.ns, seq.forms, seq.point, tuple(scales), seq.scale_e_power)
        assert info.value.code == "BAD_FORM"


def _fraction_apery(s, count):
    """Reference: the Apery pairs (a_n, b_n) in Fraction arithmetic, promoted
    to integer forms by the lcm-power scales; returns (coeffs, scales)."""
    if s == 3:
        a, b = [F(1), F(5)], [F(0), F(6)]
        P = lambda n: 34 * n**3 - 51 * n**2 + 27 * n - 5
        sign, scale_of = -1, lambda d: 2 * d**3
    else:
        a, b = [F(1), F(3)], [F(0), F(5)]
        P = lambda n: 11 * n**2 - 11 * n + 3
        sign, scale_of = 1, lambda d: d**2
    for n in range(2, count + 1):
        for y in (a, b):
            y.append((P(n) * y[n - 1] + sign * (n - 1) ** s * y[n - 2]) / n**s)
    coeffs, scales, d = [], [], 1
    for n in range(count + 1):
        d = math.lcm(d, max(n, 1))
        S = scale_of(d)
        assert (S * a[n]).denominator == 1 and (S * b[n]).denominator == 1
        coeffs.append((-int(S * b[n]), int(S * a[n])))
        scales.append(F(S))
    return coeffs, tuple(scales)


class TestTauEmpirical:
    def test_fibonacci_forms(self):
        fib = [0, 1]
        while len(fib) < 45:
            fib.append(fib[-1] + fib[-2])
        rows = [(k, fib[k + 1], fib[k + 2]) for k in range(20, 41)]
        seq = FormSequence.from_uv(rows, GOLDEN)
        est = tau_empirical(seq)
        assert est.regular and est.decayed
        assert est.window == (30, 40)
        assert F(95, 100) <= est.tau_hat <= 1 + F(1, 10**12)

    def test_constant_form_has_no_decay(self):
        f = LinearForm((1, -1))
        point = PointVec((ONE, RationalOracle(F(3, 2))))
        est = tau_empirical(FormSequence((0, 1, 2, 3), (f, f, f, f), point))
        assert est.tau_hat == 0
        assert not est.decayed

    def test_zeta2_window(self):
        est = tau_empirical(apery_forms(2, 60), window=(30, 60))
        assert float(est.tau_hat) == pytest.approx(0.09220634322294138, abs=1e-12)
        assert est.method == "ratio-richardson/ratio-richardson"

    def test_descaled_residuals_are_the_reciprocal_products(self, monkeypatch):
        # the residuals _measure_core descales on integers are, integer for
        # integer, the products with the reciprocal scale 1/s it once formed
        seen = []
        estimate = seqbuild._estimate_limit
        monkeypatch.setattr(seqbuild, "_estimate_limit", lambda v, *a: seen.append(v) or estimate(v, *a))
        seq = apery_forms(3, 120)
        tau_empirical(seq, window=(60, 120))
        core_res = seen[0]
        assert sorted(core_res) == [60, 118, 119, 120]
        for i, r in core_res.items():
            raw = evaluate_form(seq.forms[i], seq.point, index=seq.ns[i]).abs()
            want = raw * (F(1) / seq.scales[i])
            assert (r.l, r.h, r.d) == (want.l, want.h, want.d)

    def test_window_takes_no_log(self, monkeypatch):
        calls = {"root": 0, "ln_frac": 0, "tau_ln": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(seqbuild, "root_enclosure", counting("root", seqbuild.root_enclosure))
        monkeypatch.setattr(certlog, "ln_frac", counting("ln_frac", certlog.ln_frac))
        monkeypatch.setattr(seqbuild, "ln_frac", counting("tau_ln", seqbuild.ln_frac))
        est = tau_empirical(apery_forms(3, 120), window=(60, 120))
        # Richardson takes no root and the regularity gate is a power test:
        # the only logs are the two of tau_hat
        assert est.method == "ratio-richardson/ratio-richardson"
        assert calls == {"root": 0, "ln_frac": 0, "tau_ln": 2}

    def test_window_encloses_only_its_forms(self, monkeypatch):
        indices = []
        form = multiform.evaluate_form

        def counting(f, point, index=None):
            indices.append(index)
            return form(f, point, index)

        monkeypatch.setattr(multiform, "evaluate_form", counting)
        tau_empirical(apery_forms(3, 120), window=(60, 120))
        # the top form is read first; each index of the window once, no other
        assert indices[0] == 120
        assert sorted(indices) == list(range(60, 121))

    @pytest.mark.parametrize("s,oracle,level", [(3, Zeta3Oracle, 2048), (2, Zeta2Oracle, 1024)])
    def test_window_sums_its_zeta_series_once(self, monkeypatch, s, oracle, level):
        # read from its top form down, the window asks a fresh oracle for its
        # finest level first, and the lower forms read that cached enclosure;
        # read upward, it summed the series at half that level too
        levels = []
        raw = oracle._raw
        monkeypatch.setattr(oracle, "_raw", lambda self, k: levels.append(k) or raw(self, k))
        tau_empirical(apery_forms(s, 120), window=(60, 120))
        assert levels == [level]

    def test_zero_form_outside_the_window_is_not_evaluated(self):
        # l . (1, 3/2) = 0 for l = (3, -2); the window starts past it
        zero, f = LinearForm((3, -2)), LinearForm((1, -1))
        point = PointVec((ONE, RationalOracle(F(3, 2))))
        seq = FormSequence((0, 1, 2, 3), (zero, f, f, f), point)
        with pytest.raises(ZeroFormValue):
            tau_empirical(seq, window=(0, 3))
        assert tau_empirical(seq, window=(1, 3)).tau_hat == 0

    def test_needs_three_forms(self):
        f = LinearForm((1, -1))
        point = PointVec((ONE, SQRT2))
        with pytest.raises(PreconditionError):
            tau_empirical(FormSequence((0, 1), (f, f), point))

    def test_sequence_validation(self):
        f = LinearForm((1, -1))
        point = PointVec((ONE, SQRT2))
        with pytest.raises(PreconditionError):
            FormSequence((0, 1), (f,), point)
        with pytest.raises(PreconditionError):
            FormSequence((0,), (f,), point, scales=(1, 2))


def brute_dirichlet(point, Q, mode="first"):
    """Reference for dirichlet_witness: scores every q in [1, Q**dim]."""
    ratios = point.ratio_oracles()
    bound = Q ** len(ratios)
    M, fixed = multiform._fixed_points(ratios, bound)
    err = bound + 2
    scores = {q: multiform._approx_score(q, fixed, M) for q in range(1, bound + 1)}
    if mode == "first":
        thr = (M + Q - 1) // Q + err
        picked = [q for q, s in scores.items() if s <= thr]
    else:
        near = min(scores.values()) + 2 * err
        picked = [q for q, s in scores.items() if s <= near]
    verified = []
    for q in picked:
        enc, qs = multiform._refined_max_dist(ratios, q)
        if mode == "first" and enc.hi <= F(1, Q):
            verified = [(enc.hi, q, enc, qs)]
            break
        verified.append((enc.hi, q, enc, qs))
    _, q, enc, qs = min(verified, key=lambda t: t[:2])
    omega = multiform._omega_point(enc.hi, q) if q > 1 else F(0)
    return multiform.SimultaneousWitness(q, qs, enc, omega, enc.hi <= F(1, Q), bound)


def brute_records(point, lo, hi):
    """(records, maybe) of [lo, hi]: the q whose d(q) = max_j ||q x_j|| is
    certified below d at every smaller q of the range, and the q not
    certified above it. Each d(q) is bounded over 2**K from the integer
    bounds of one enclosure per ratio, as ||t|| is 1-Lipschitz in t."""
    K = 128 + hi.bit_length()
    M = 1 << K
    bounds = []
    for r in point.ratio_oracles():
        enc = r.enclose(K)
        lo_x = (enc.lo * M).__floor__()
        bounds.append((lo_x, (enc.hi * M).__ceil__() - lo_x))
    records, maybe = [], []
    least_lo = least_hi = M  # bounds on the least d so far, above every d
    for q in range(lo, hi + 1):
        d_lo = d_hi = 0
        for x, width in bounds:
            t = q * x % M
            dist, slack = min(t, M - t), q * width
            d_lo, d_hi = max(d_lo, dist - slack), max(d_hi, dist + slack)
        if d_hi < least_lo:
            records.append(q)
        if d_lo < least_hi:
            maybe.append(q)
        least_lo, least_hi = min(least_lo, d_lo), min(least_hi, d_hi)
    return records, maybe


def brute_omega0(point, q_bound):
    """Reference for omega0_search: the largest certified exponent over the
    q of each half that may be records, where the largest exponent is."""
    ratios = point.ratio_oracles()

    def pick(lo, hi):
        best = []
        for q in brute_records(point, lo, hi)[1]:
            enc, _ = multiform._refined_max_dist(ratios, q)
            best.append((multiform._omega_point(enc.hi, q), -q, enc))
        return max(best)

    half = q_bound // 2
    found = [pick(lo, hi) for lo, hi in [(2, half), (max(2, half + 1), q_bound)] if lo <= hi]
    top, tail = max(found), found[-1]
    return multiform.OmegaReport(
        q_bound, -top[1], top[0], top[2], -tail[1], tail[0], tail[2]
    )


def _assert_scored_once_in(scores, rng):
    """The searches score a stream of denominators: ascending, none twice,
    all inside the search range."""
    assert scores and all(a < b for a, b in zip(scores, scores[1:]))
    assert rng.start <= scores[0] and scores[-1] < rng.stop


def test_one_record_stream_serves_both_searches():
    """multiform.py walks a residue stream in ``_records`` alone; omega0
    cuts that stream's window rather than walking its own."""
    path = Path(multiform.__file__)
    callers = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, ast.FunctionDef):
            callers += [
                fn.name for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_residue_hits"
            ]
    # a call in a nested def counts for it and for each def around it
    assert callers == ["_records"]


def _stream_lengths(monkeypatch, run):
    """The most hits one residue stream yields while ``run`` runs."""
    lengths = []
    hits = multiform._residue_hits

    def counting(*args):
        lengths.append(0)
        for q in hits(*args):
            lengths[-1] += 1
            yield q

    with monkeypatch.context() as m:
        m.setattr(multiform, "_residue_hits", counting)
        run()
    return max(lengths)


class TestDirichlet:
    def test_golden(self):
        w = dirichlet_witness(PointVec((ONE, GOLDEN)), 3)
        assert (w.q0, w.qs) == (2, (3,))
        assert w.within_dirichlet
        # |2 phi - 3| = sqrt5 - 2
        assert (2 + w.dist.lo) ** 2 <= 5 <= (2 + w.dist.hi) ** 2
        assert float(w.dist.hi) == pytest.approx(0.2360679774997897, abs=1e-12)

    def test_two_irrationals(self):
        w = dirichlet_witness(PointVec((ONE, SQRT2, SQRT3)), 10)
        assert (w.q0, w.qs) == (41, (58, 71))
        assert w.within_dirichlet
        # the worst coordinate is sqrt2: |41 sqrt2 - 58| = 58 - 41 sqrt2
        assert (58 - w.dist.hi) ** 2 <= 2 * 41**2 <= (58 - w.dist.lo) ** 2
        assert float(w.dist.hi) == pytest.approx(0.017243942703102998, abs=1e-12)

    def test_best_mode_not_worse(self):
        point = PointVec((ONE, SQRT2, SQRT3))
        first = dirichlet_witness(point, 10)
        best = dirichlet_witness(point, 10, mode="best")
        assert best.dist.hi <= first.dist.hi

    def test_validation(self):
        with pytest.raises(PreconditionError):
            dirichlet_witness(PointVec((ONE, GOLDEN)), 1)
        with pytest.raises(PreconditionError):
            dirichlet_witness(PointVec((ONE, GOLDEN)), 3, mode="exhaustive")

    def test_first_mode_gives_up_at_the_budget(self, monkeypatch):
        # the first hit for Q = 10 is q0 = 41 (test_two_irrationals)
        point = PointVec((ONE, SQRT2, SQRT3))
        k = _stream_lengths(monkeypatch, lambda: dirichlet_witness(point, 10))
        assert k < 41  # the budget counts stream hits, not denominators
        monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", k)
        assert dirichlet_witness(point, 10).q0 == 41
        scores = []
        score = multiform._approx_score
        monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", k - 1)
        monkeypatch.setattr(
            multiform, "_approx_score", lambda q, *a: scores.append(q) or score(q, *a)
        )
        with pytest.raises(RangeTooLarge, match=f"budget {k - 1}"):
            dirichlet_witness(point, 10)
        assert len(scores) == k - 1
        _assert_scored_once_in(scores, range(1, 41))

    @pytest.mark.parametrize("search", [
        lambda point: dirichlet_witness(point, 10, mode="best"),
        lambda point: omega0_search(point, 101),
    ])
    def test_full_scans_take_a_range_up_to_the_budget(self, monkeypatch, search):
        point = PointVec((ONE, SQRT2, SQRT3))
        k = _stream_lengths(monkeypatch, lambda: search(point))
        monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", k)
        search(point)
        monkeypatch.setattr(dichotomy, "DEFAULT_BUDGET", k - 1)
        with pytest.raises(RangeTooLarge):
            search(point)

    @pytest.mark.parametrize("search,scored", [
        (lambda point: dirichlet_witness(point, 10, mode="best"), range(1, 101)),
        (lambda point: omega0_search(point, 101), range(2, 102)),
    ], ids=["dirichlet-best", "omega0"])
    def test_full_scans_score_each_denominator_once(self, monkeypatch, search, scored):
        point = PointVec((ONE, SQRT2, SQRT3))
        scores = []
        score = multiform._approx_score
        monkeypatch.setattr(
            multiform, "_approx_score", lambda q, *a: scores.append(q) or score(q, *a)
        )
        search(point)
        _assert_scored_once_in(scores, scored)

    def test_rational_point_rejected(self):
        with pytest.raises(PreconditionError, match="INFINITE_WITNESS"):
            dirichlet_witness(PointVec((ONE, RationalOracle(F(1, 2)))), 4)


def test_omega_search_zeta3():
    rep = omega0_search(PointVec((ONE, parse_oracle("const:zeta3"))), 10**4)
    assert rep.best_q == 5
    assert float(rep.omega_best) == pytest.approx(2.843921968092333, abs=1e-12)
    assert rep.tail_q == 6612
    assert float(rep.omega_tail) == pytest.approx(0.9457710187750794, abs=1e-12)


class TestNesterenko:
    def test_zeta3_forms(self):
        rep = nesterenko_report(apery_forms(3, 40), 200)
        assert F(1075, 1000) <= rep.implied_dim_bound <= F(1085, 1000)
        assert rep.consistent is True
        assert rep.implied_dim_bound == rep.tau_hat + 1

    def test_fibonacci_forms(self):
        fib = [0, 1]
        while len(fib) < 45:
            fib.append(fib[-1] + fib[-2])
        rows = [(k, fib[k + 1], fib[k + 2]) for k in range(20, 41)]
        rep = nesterenko_report(FormSequence.from_uv(rows, GOLDEN), 10**4)
        assert F(195, 100) <= rep.implied_dim_bound <= 2 + F(1, 10**12)
        assert float(rep.omega_tail) == pytest.approx(1.0912429684370228, abs=1e-12)
        assert rep.consistent is True
