import ast
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from dioph import certlog, seqbuild

from dioph.certlog import ln_frac
from dioph.contfrac import convergents, expand
from dioph.errors import (
    CaseIPersists,
    Inconclusive,
    PreconditionError,
    RateViolation,
    ZeroResidual,
)
from dioph.oracle import PRECISION_CAP, CFOracle, GoldenOracle, RationalOracle, SqrtOracle
from dioph.seqbuild import (
    ETA_MAX,
    EtaSchedule,
    RateSpec,
    build_sequence,
    density_data,
    lemma1_bound,
    measure_rates,
)

SQRT2 = SqrtOracle(2, "sqrt2")
GOLDEN = GoldenOracle()


class TestRateSpec:
    def test_geometric_targets(self):
        r = RateSpec.geometric(F(1, 2), 3)
        assert r.targets(3) == ((27, 1), (1, 8))
        assert r.targets(0) == ((1, 1), (1, 1))
        assert r.targets(-2) == ((1, 9), (4, 1))

    @pytest.mark.parametrize("a,b", [(F(3, 2), 3), (F(1, 2), 1), (0, 2), (F(1, 2), F(1, 2))])
    def test_geometric_invalid(self, a, b):
        with pytest.raises(PreconditionError):
            RateSpec.geometric(a, b)

    def test_table(self):
        r = RateSpec.from_table([(1, 10, F(1, 2)), (2, 100, F(1, 4))])
        assert r.targets(2) == ((100, 1), (1, 4))
        with pytest.raises(PreconditionError):
            r.targets(3)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("make", [
        lambda x: RateSpec.geometric(x, 3),
        lambda x: RateSpec.geometric(F(1, 2), x),
        lambda x: RateSpec.from_table([(1, x, F(1, 2))]),
        lambda x: RateSpec.from_table([(1, 10, x)]),
        lambda x: RateSpec.from_table([(x, 10, F(1, 2))]),
        lambda x: EtaSchedule.custom([(1, x)]),
        lambda x: EtaSchedule.custom([(x, F(1, 4))]),
        lambda x: build_sequence(SQRT2, x, RateSpec.geometric(F(1, 2), 3), range(1, 2)),
    ], ids=["alpha", "beta", "table_Q", "table_eps", "table_n", "eta", "eta_n", "mu_upper"])
    def test_non_finite_floats_are_bad_params(self, make, bad):
        with pytest.raises(PreconditionError) as err:
            make(bad)
        assert err.value.code == "BAD_PARAMS"

    @pytest.mark.parametrize("bad", [2.5, F(3, 2), float("inf"), float("nan")])
    @pytest.mark.parametrize("make", [
        lambda x: RateSpec.from_table([(x, 10, F(1, 2))]),
        lambda x: EtaSchedule.custom([(x, F(1, 4))]),
        lambda x: measure_rates([(1, 1, 1), (2, x, 3), (3, 5, 7)], SQRT2),
        lambda x: measure_rates([(1, 1, 1), (x, 2, 3), (3, 5, 7)], SQRT2),
        lambda x: measure_rates([(1, 1, 1), (2, 2, x), (3, 5, 7)], SQRT2),
        lambda x: density_data([1, x, 3], GOLDEN),
    ], ids=["table_n", "eta_n", "rows_u", "rows_n", "rows_v", "density_u"])
    def test_non_integers_are_bad_params(self, make, bad):
        # each was truncated to an int (2.5 and 3/2 to 2) or raised a bare
        # OverflowError or ValueError
        with pytest.raises(PreconditionError, match="is not an integer") as err:
            make(bad)
        assert err.value.code == "BAD_PARAMS"

    def test_integral_rows_are_taken(self):
        assert RateSpec.from_table([(2.0, 10, F(1, 2))]).targets(2) == ((10, 1), (1, 2))
        assert EtaSchedule.custom([(F(3), F(1, 4))]).value(3) == F(1, 4)
        rows = [(1, 1, 1), (2, 2, 3), (3, 5, 7), (4, 12, 17)]
        want = measure_rates(rows, SQRT2)
        assert measure_rates([tuple(map(float, r)) for r in rows], SQRT2) == want

    def test_table_invalid(self):
        with pytest.raises(PreconditionError):
            RateSpec.from_table([])
        with pytest.raises(PreconditionError):
            RateSpec.from_table([(1, 100, F(1, 2)), (2, 10, F(1, 4))])
        with pytest.raises(PreconditionError):
            RateSpec.from_table([(1, 10, F(1, 4)), (2, 100, F(1, 2))])
        with pytest.raises(PreconditionError):
            RateSpec.from_table([(1, 1, F(1, 2))])
        with pytest.raises(PreconditionError, match="two rows for n=2"):
            RateSpec.from_table([(1, 10, F(1, 2)), (2, 100, F(1, 4)), (2, 1000, F(1, 8))])

    @pytest.mark.parametrize("table,make,what", [
        ("rate", lambda: RateSpec.from_table([(1, 10)]), "row n=1 needs"),
        ("rate", lambda: RateSpec.from_table([(1, 10, F(1, 2), 7)]), "row n=1 needs"),
        ("eta", lambda: EtaSchedule.custom([(1,)]), "row n=1 needs"),
        ("eta", lambda: EtaSchedule.custom([(1, F(1, 4), 3)]), "row n=1 needs"),
        ("rate", lambda: RateSpec.from_table([()]), "has an empty row"),
        ("eta", lambda: EtaSchedule.custom([()]), "has an empty row"),
    ], ids=["rate-short", "rate-long", "eta-short", "eta-long", "rate-empty", "eta-empty"])
    def test_rows_of_the_wrong_length_are_bad_params(self, table, make, what):
        # each raised a bare ValueError from unpacking the row
        with pytest.raises(PreconditionError, match=f"BAD_PARAMS: {table} table {what}"):
            make()


class TestEtaSchedule:
    def test_default_clamps_small_indices(self):
        sched = EtaSchedule()
        assert sched.value(0) == ETA_MAX
        assert sched.value(100) < sched.value(10) < ETA_MAX

    def test_default_nonincreasing(self):
        sched = EtaSchedule()
        vals = [sched.value(n) for n in range(0, 60, 5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_custom(self):
        sched = EtaSchedule.custom([(1, F(1, 4)), (2, F(1, 8))])
        assert sched.value(2) == F(1, 8)
        with pytest.raises(PreconditionError):
            sched.value(3)

    def test_custom_invalid(self):
        with pytest.raises(PreconditionError):
            EtaSchedule.custom([])
        with pytest.raises(PreconditionError):
            EtaSchedule.custom([(1, F(1, 8)), (2, F(1, 4))])
        with pytest.raises(PreconditionError):
            EtaSchedule.custom([(1, F(1, 2))])
        with pytest.raises(PreconditionError, match="two rows for n=1"):
            EtaSchedule.custom([(1, F(1, 4)), (1, F(1, 8))])


def test_lemma1_bound_roundings():
    v = lemma1_bound(F(1, 2), 4)
    assert 3 <= v <= 3 + F(1, 10**30)
    v = lemma1_bound(F(1, 4), 2)
    assert F(3, 2) <= v <= F(3, 2) + F(1, 10**30)
    with pytest.raises(PreconditionError):
        lemma1_bound(2, 3)


def test_build_takes_custom_eta_up_to_one_half():
    # the default rule's 9/20 clamp does not bind a custom table
    eta = EtaSchedule.custom([(20, F(49, 100)), (21, F(23, 50))])
    res = build_sequence(SQRT2, F(21, 10), RateSpec.geometric(F(1, 2), 3), range(20, 22), eta)
    assert res.eta_used == {20: F(49, 100), 21: F(23, 50)}
    assert all(e.case_taken == "ii" for e in res.entries)
    # a directly constructed schedule is held to eta < 1/2 where it is built
    with pytest.raises(PreconditionError, match=r"eta at n=20 must be in \(0, 1/2\)"):
        EtaSchedule({20: F(1, 2)})


@pytest.fixture(scope="module")
def sqrt2_run():
    return build_sequence(SQRT2, F(21, 10), RateSpec.geometric(F(1, 2), 3), range(50, 101))


def test_build_structure(sqrt2_run):
    res = sqrt2_run
    assert res.shift == 1
    assert [e.n for e in res.entries] == list(range(50, 101))
    assert all(e.case_taken == "ii" for e in res.entries)
    assert all(e.u >= 1 for e in res.entries)
    # every residual has a certified sign
    assert all(e.residual.lo > 0 or e.residual.hi < 0 for e in res.entries)
    assert set(res.eta_used) == set(range(50, 101))
    assert all(0 < v <= ETA_MAX for v in res.eta_used.values())


def test_build_ratio_band(sqrt2_run):
    rus = [e.ratio_u for e in sqrt2_run.entries]
    assert float(min(rus)) == pytest.approx(0.8937586785862298, abs=1e-12)
    assert float(max(rus)) == pytest.approx(0.9069339421309558, abs=1e-12)


def test_measured_rates(sqrt2_run):
    est = measure_rates(sqrt2_run.entries, SQRT2)
    assert float(est.alpha_hat) == pytest.approx(0.4974344226274423, abs=1e-12)
    assert float(est.beta_hat) == pytest.approx(2.9997964831518185, abs=1e-12)
    assert float(est.tau_hat) == pytest.approx(0.6356516083872789, abs=1e-12)
    assert est.method == "ratio-geomean/ratio-richardson"
    assert est.window == (75, 100)
    assert est.regular and est.decayed
    assert est.alpha_enclosure.lo <= est.alpha_hat <= est.alpha_enclosure.hi
    assert est.beta_enclosure.lo <= est.beta_hat <= est.beta_enclosure.hi


def test_measure_rates_validation():
    with pytest.raises(PreconditionError):
        measure_rates([(1, 1, 1), (2, 2, 3)], SQRT2)
    with pytest.raises(PreconditionError):
        measure_rates([(1, 1, 1), (2, 0, 3), (3, 2, 3)], SQRT2)
    rows = [(1, 1, 1), (2, 2, 3), (3, 5, 7), (3, 12, 17)]
    with pytest.raises(PreconditionError, match="BAD_PARAMS: indices"):
        measure_rates(rows, SQRT2)


def test_measure_rates_encloses_only_the_window(monkeypatch):
    us = []
    enclose = seqbuild._form_enclosure

    def counting(oracle, u, v):
        us.append(u)
        return enclose(oracle, u, v)

    monkeypatch.setattr(seqbuild, "_form_enclosure", counting)
    rows = [(c.index, c.q, c.p) for c in convergents(expand(SQRT2, 12))[2:]]
    est = measure_rates(rows, SQRT2)
    assert us == [u for _, u, _ in rows[5:]]
    assert est.window == (7, 12)
    # validation runs before any enclosure
    us.clear()
    with pytest.raises(PreconditionError, match="zero coefficient"):
        measure_rates([(1, 1, 1), (2, 0, 3), (3, 2, 3)], SQRT2)
    with pytest.raises(PreconditionError, match="strictly increasing"):
        measure_rates([(1, 1, 1), (3, 2, 3), (2, 5, 7)], SQRT2)
    assert us == []


class TestRegularityGate:
    @pytest.mark.parametrize("e", [4, -4])
    def test_band_edges_are_in(self, e):
        # a = 2**e, both sides of 1: b**4 = a**5 and b**4 = a**3 are the
        # edges ln b / ln a = 5/4 and 3/4; one more ulp of b leaves the band
        a, ulp = F(2) ** e, F(1, 2**200)
        for k in (5, 3):
            b = F(2) ** (e * k // 4)
            assert seqbuild._regular_step(a, b)
            outward = b * (1 + ulp) if (e > 0) == (k == 5) else b * (1 - ulp)
            assert not seqbuild._regular_step(a, outward)

    @pytest.mark.parametrize("b", [F(1, 2), F(1), F(2)])
    def test_one_is_out(self, b):
        assert not seqbuild._regular_step(F(1), b)

    def test_reads_the_delta(self, monkeypatch):
        # ln 8 / ln 4 = 3/2: outside the 1/4 band, inside a 1/2 band
        assert not seqbuild._regular_step(F(4), F(8))
        assert not seqbuild._regular_step(F(1, 4), F(1, 8))
        monkeypatch.setattr(seqbuild, "REGULARITY_DELTA", F(1, 2))
        assert seqbuild._regular_step(F(4), F(8))
        assert seqbuild._regular_step(F(1, 4), F(1, 8))


def test_rate_violation():
    # -log eps / log Q ~ 1.71 exceeds 1/(mu-1) + slack = 0.55
    with pytest.raises(RateViolation):
        build_sequence(SQRT2, 3, RateSpec.geometric(F(1, 2), F(3, 2)), range(5, 10))


def test_case_i_persists():
    # a value glued to 1/3 never lands in the fractional band, so case (i)
    # with u = 3 wins at every index and the exponent guess gets flagged
    near_third = CFOracle((0, 3, 10**40))
    with pytest.raises(CaseIPersists) as info:
        build_sequence(near_third, F(21, 10), RateSpec.geometric(F(1, 2), 3), range(5, 11))
    err = info.value
    assert "3/3" in str(err)
    assert [e.case_taken for e in err.entries] == ["i"] * 6
    assert {e.u for e in err.entries} == {3}


def test_zero_residual_build():
    with pytest.raises(ZeroResidual) as info:
        build_sequence(
            RationalOracle(F(1, 3)), 2, RateSpec.from_table([(1, 1000, F(1, 5))]), [1]
        )
    assert "u=3" in str(info.value)


class TestDensityData:
    def test_deep_window(self):
        qs = [c.q for c in convergents(expand(GOLDEN, 45))[35:45]]
        dd = density_data(qs, GOLDEN)
        assert float(dd.alpha_xi) == pytest.approx(0.6180339887498949, abs=1e-12)
        assert float(dd.beta_u) == pytest.approx(1.618033988749897, abs=1e-12)
        assert float(dd.nu_estimate) == pytest.approx(6.199510332313967e-16, rel=1e-9)
        assert len(dd.distances) == 10
        # golden convergent distances shrink strictly
        assert all(b.hi < a.lo for a, b in zip(dd.distances, dd.distances[1:]))

    def test_shallow_window(self):
        qs = [c.q for c in convergents(expand(GOLDEN, 45))[5:15]]
        ds = density_data(qs, GOLDEN)
        assert float(ds.alpha_xi) == pytest.approx(0.6180339887498955, abs=1e-12)
        assert ds.beta_u == F(13, 8)
        assert float(ds.nu_estimate) == pytest.approx(0.002147995361049214, abs=1e-12)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            density_data([5], GOLDEN)
        with pytest.raises(PreconditionError):
            density_data([5, 3], GOLDEN)
        with pytest.raises(PreconditionError):
            density_data([0, 3], GOLDEN)

    def test_rational_multiple_raises(self):
        with pytest.raises(ZeroResidual):
            density_data([3, 6], RationalOracle(F(1, 3)))


# (2**200 + 1) / 2**200: its log's 96-bit enclosure has lower end 0
NEAR_ONE = F(2**200 + 1, 2**200)


def test_near_one_rates_climb_the_ladder():
    # each raised ZeroDivisionError from dividing by ln_frac(., 96).lo = 0;
    # a geometric spec's rows share one ratio, and its message names no row
    with pytest.raises(RateViolation, match="^RATE_VIOLATION: -log eps / log Q"):
        build_sequence(SQRT2, F(21, 10), RateSpec.geometric(F(1, 2), NEAR_ONE), range(5, 8))
    table = RateSpec.from_table([(n, F(2**200 + n, 2**200), F(1, 2**n)) for n in range(1, 4)])
    with pytest.raises(RateViolation, match="row n=1"):
        build_sequence(SQRT2, F(21, 10), table, range(1, 4))
    token = PRECISION_CAP.set(128)
    try:
        with pytest.raises(Inconclusive, match="not certified positive"):
            build_sequence(SQRT2, F(21, 10), RateSpec.geometric(F(1, 2), NEAR_ONE), range(1, 4))
    finally:
        PRECISION_CAP.reset(token)


def test_steepness_bound_reads_96_bits_below_that_cap():
    # a cap under 96 bits refused every build and lemma1_bound with INCONCLUSIVE
    token = PRECISION_CAP.set(64)
    try:
        assert lemma1_bound(F(1, 2), 3) == 1 + ln_frac(3, 96).hi / ln_frac(2, 96).lo
        res = build_sequence(SQRT2, F(21, 10), RateSpec(F(1, 2), 3), range(1, 4))
        with pytest.raises(Inconclusive, match="not certified positive"):
            lemma1_bound(1 - F(1, 2**150), 3)
    finally:
        PRECISION_CAP.reset(token)
    assert res == build_sequence(SQRT2, F(21, 10), RateSpec(F(1, 2), 3), range(1, 4))


def test_lemma1_bound_near_one():
    a = 1 - F(1, 2**150)
    with mpmath.workprec(1200):
        want = 1 - mpmath.log(3) / mpmath.log(mpmath.mpf(a.numerator) / a.denominator)
        bound = lemma1_bound(a, 3)
        got = mpmath.mpf(bound.numerator) / bound.denominator
        assert want <= got <= want * (1 + mpmath.mpf(2) ** -40)


def test_lemma1_bound_far_nearer_one_sums_no_constant_series(monkeypatch):
    # 0.85 s while ln(1/alpha_hat) summed the ln 2, ln 3 and ln 5 series at
    # 131072 bits only to multiply them by 0; t < ln(1/(1 - t)) < t/(1 - t)
    def forbidden(m, w):
        raise AssertionError("a constant's series was summed")

    monkeypatch.setattr(certlog, "_atanh_inv", forbidden)
    t = F(1, 2**60000)
    ratio = lemma1_bound(1 - t, 3) - 1
    ln3 = ln_frac(3, 96)
    assert ln3.lo * (1 - t) / t <= ratio <= ln3.hi / t * (1 + F(1, 2**40))


def _is_ln_frac(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ln_frac"


def _fractions(tree):
    """(numerator, denominator) of what ``tree`` puts over a fraction bar: the
    two sides of / and //, a ``Fraction`` call's two arguments and an integer
    pair's two items."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
            yield node.left, node.right
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction" and len(node.args) == 2:
            yield node.args[0], node.args[1]
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            yield node.elts[0], node.elts[1]


def _log_ends(tree, logs, ends=("lo", "hi", "l", "h")) -> set:
    """The log enclosures, as dumped nodes, whose ``ends`` ``tree`` reads:
    those of a ln_frac call or of a name in ``logs``."""
    return {
        ast.dump(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ends
        and (_is_ln_frac(node.value) or getattr(node.value, "id", None) in logs)
    }


def _log_divisions(tree, logs=()) -> list:
    """Lines where ``tree`` divides by the lower end of a log enclosure, its
    ``.lo`` or its integer ``.l``, or divides an end of one log enclosure by
    an end of another. A log enclosure is a ln_frac call, a name bound to one
    anywhere in ``tree``, or a name in ``logs``."""
    logs = {*logs} | {
        t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and _is_ln_frac(node.value)
        for t in node.targets if isinstance(t, ast.Name)
    }
    lines = []
    for num, den in _fractions(tree):
        lower, over, under = _log_ends(den, logs, ("lo", "l")), _log_ends(num, logs), _log_ends(den, logs)
        if lower or (over and under and len(over | under) > 1):
            lines.append(den.lineno)
    return lines


def test_rate_rules_are_stated_once():
    """Only ``certlog.ln_quotient`` divides by the lower end of a log
    enclosure or divides an end of one log enclosure by an end of another,
    and RateSpec has no ``kind`` field: a spec without a table is geometric.
    Dividing by a single log, as the eta rule floor(2**40 / ln(n + 3)) does,
    is not such a quotient."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            where = (path.name, getattr(node, "name", None))
            params = [a.arg for a in node.args.args] if where == ("certlog.py", "ln_quotient") else ()
            found |= {where for _ in _log_divisions(node, params)}
    assert found == {("certlog.py", "ln_quotient")}
    # the four formulas ln_quotient replaced are each caught
    old_sites = {
        "steepness": "def f(x, y):\n    ln_x = ln_frac(x, 96)\n    def step(k):\n        ln_y = ln_frac(y, k)\n"
                     "        return (ln_x.h * ln_y.d, ln_x.d * ln_y.l) if ln_y.l > 0 else None\n",
        "tau": "def f(a, b):\n    ln_a = ln_frac(a, 96)\n    ln_b = ln_frac(b, 96)\n"
               "    return Fraction(ln_a.l * ln_b.d, ln_a.d * ln_b.h)\n",
        "omega": "def f(d, q):\n    return ln_frac(1 / d, 96).lo / ln_frac(q, 96).hi\n",
        "mu": "def f(q0, q1):\n    return 1 + ln_frac(q1, 96).lo / ln_frac(q0, 96).hi\n",
    }
    assert {k: _log_divisions(ast.parse(v)) for k, v in old_sites.items()} == {
        "steepness": [5], "tau": [4], "omega": [2], "mu": [2],
    }
    # a lower end alone in a denominator, off the call or a bound name
    reintroduced = "def f(Q, x):\n    ln = ln_frac(Q, 96)\n    return x / ln.lo + x / ln_frac(Q, 96).lo\n"
    assert _log_divisions(ast.parse(reintroduced)) == [3, 3]
    on_ints = "def g(Q, x):\n    ln = ln_frac(Q, 96)\n    y = Fraction(x, ln.l)\n    return x, 2 * ln_frac(Q, 96).l\n"
    assert _log_divisions(ast.parse(on_ints)) == [3, 4]
    eta = "def h(n):\n    ln = ln_frac(n + 3, 96)\n    return (ln.d << 40) // ln.h, Fraction(ln.h, 2 * ln.d)\n"
    assert _log_divisions(ast.parse(eta)) == []
    assert "kind" not in RateSpec.__dataclass_fields__
    assert RateSpec(F(1, 2), 3).table is None


def test_schedules_are_checked_where_built():
    with pytest.raises(PreconditionError, match="0 < alpha < 1 < beta"):
        RateSpec(F(1, 2), F(1, 2))
    with pytest.raises(PreconditionError, match="Q increasing"):
        RateSpec(table={1: (100, F(1, 2)), 2: (10, F(1, 4))})
    with pytest.raises(PreconditionError, match="no alpha or beta"):
        RateSpec(F(1, 2), table={1: (10, F(1, 2))})
    with pytest.raises(PreconditionError, match="nonincreasing"):
        EtaSchedule({1: F(1, 8), 2: F(1, 4)})
    assert RateSpec(table={2: (10, 0.5)}).targets(2) == ((10, 1), (1, 2))
    assert EtaSchedule({3: 0.25}).value(3) == F(1, 4)
