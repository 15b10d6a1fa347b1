import random
from bisect import bisect
from fractions import Fraction as F
from itertools import islice
from math import ceil, floor, isfinite, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dioph import dichotomy, multiform, seqbuild
from dioph.contfrac import MuEstimate, expand, mu_estimate
from dioph.dichotomy import (
    LemmaParams,
    _Descent,
    _find_hit,
    _frac_window_check,
    _residue_hits,
    _Stats,
    _surrogate_window,
    find_fractional_hit,
    solve_disjunction,
)
from dioph.enclosure import Enclosure, dyadic_above, dyadic_below, root_enclosure, sqrt_enclosure, sqrt_lower
from dioph.errors import (
    DiophError,
    HalfInteger,
    NeitherCaseCertified,
    PreconditionError,
    RateViolation,
    Unrepresentable,
    ZeroFormValue,
    ZeroResidual,
)
from dioph.multiform import (
    LinearForm,
    PointVec,
    dirichlet_witness,
    evaluate_form,
    omega0_search,
)
from dioph.certlog import LOG_BITS, _LN235_W, _RATIOS, _SPLITS, _W, _atanh_frac, _ln235_series, ln_frac, ln_quotient
from dioph.oracle import (
    CATALOG,
    PRECISION_CAP,
    SEPARATION_BITS,
    AffineOracle,
    CFOracle,
    GoldenOracle,
    RationalOracle,
    RealOracle,
    SqrtOracle,
    _certified_prefix,
    convergent_pairs,
    is_separated,
    level_for,
    nearest_int,
    parse_oracle,
    parse_rational,
    refine,
    separated,
)
from test_dichotomy import (
    _brute_case_ii,
    _case_i_hit,
    case_i_search,
    convergent_stream,
    convergent_surrogate_hit,
    direct_hit,
    extend_convergents,
    plain_solve,
    quotient_supply,
    reference_within,
    window,
)
from test_multiform import brute_dirichlet, brute_omega0, brute_records
from test_enclosure import _encode
from test_oracle import ENCLOSE_RULE_ORACLES, LopsidedSqrt2, _mp_bracket

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
positives = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
units = st.fractions(min_value=0, max_value=1, max_denominator=64)

IRRATIONALS = (
    SqrtOracle(2, "sqrt2"),
    SqrtOracle(3, "sqrt3"),
    SqrtOracle(5, "sqrt5"),
    GoldenOracle(),
    parse_oracle("const:e"),
    parse_oracle("const:log2"),
)


def _box(a, b):
    return Enclosure(min(a, b), max(a, b))


def _pick(box, t):
    return box.lo + t * (box.hi - box.lo)


@settings(deadline=None, max_examples=60)
@given(rationals, rationals, rationals, rationals, units, units)
def test_interval_arithmetic_contains_points(a1, a2, b1, b2, s, t):
    A, B = _box(a1, a2), _box(b1, b2)
    x, y = _pick(A, s), _pick(B, t)
    su = A + B
    assert su.lo <= x + y <= su.hi
    pr = A * B
    assert pr.lo <= x * y <= pr.hi


@settings(deadline=None, max_examples=40)
@given(positives, st.integers(min_value=16, max_value=128))
def test_sqrt_enclosure_brackets(x, k):
    s = sqrt_enclosure(x, k)
    assert s.lo >= 0
    assert s.lo**2 <= x <= s.hi**2
    assert s.hi - s.lo <= 2 * F(1, 2**k)


@settings(deadline=None, max_examples=40)
@given(positives, positives)
def test_log_is_additive(a, b):
    combined = ln_frac(a * b, 64)
    split = ln_frac(a, 64) + ln_frac(b, 64)
    assert combined.lo <= split.hi and split.lo <= combined.hi


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(IRRATIONALS),
    st.integers(min_value=8, max_value=96),
    st.integers(min_value=8, max_value=96),
)
def test_oracle_refinement_nests(oracle, k1, k2):
    k1, k2 = min(k1, k2), max(k1, k2)
    coarse = oracle.enclose(k1)
    fine = oracle.enclose(k2)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.hi - fine.lo <= F(1, 2**k2)


def reference_is_separated(enc):
    """The ``Fraction`` formula that ``is_separated`` decides in integers."""
    a = enc.abs()
    return a.lo > 0 and a.width <= a.lo / (1 << SEPARATION_BITS)


@settings(deadline=None, max_examples=300)
@given(
    rationals, rationals,
    st.fractions(min_value=0, max_value=2, max_denominator=1 << 12), st.booleans(),
)
@example(F(3), F(0), F(1), False)
@example(F(3), F(0), F(1), True)
@example(F(0), F(0), F(0), False)
@example(F(-1), F(0), F(0), False)
def test_is_separated_matches_the_fraction_formula(x, y, t, mirror):
    # [x, x + t |x| 2**-S] is at the bound, from either side, at t = 1
    near = Enclosure(x, x + t * abs(x) / (1 << SEPARATION_BITS))
    for enc in (near, -near if mirror else near, _box(x, y)):
        assert is_separated(enc) == reference_is_separated(enc), enc


quotient_lists = st.tuples(
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    st.integers(min_value=2, max_value=9),
).map(lambda t: (t[0], *t[1], t[2]))


@settings(deadline=None, max_examples=60)
@given(quotient_lists)
def test_canonical_cf_round_trip(quots):
    value = F(quots[-1])
    for a in reversed(quots[:-1]):
        value = a + 1 / value
    if quots[0] >= 0:
        assert CFOracle(quots).exact_value() == value
    cf = expand(RationalOracle(value), len(quots) + 2)
    assert cf.terminated
    assert cf.quotients == quots


def _mobius_ladder(enc):
    """Reference: floor of the enclosure's image under the running Mobius map."""
    quots = []
    A, B, C, D = 1, 0, 0, 1
    while True:
        den = enc * C + D
        if den.contains_zero():
            return quots
        a = ((enc * A + B) / den).floor_unique()
        if a is None:
            return quots
        quots.append(a)
        A, B, C, D = C, D, A - a * C, B - a * D


@settings(deadline=None, max_examples=200)
@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=10**30),
    st.integers(min_value=0, max_value=120),
    units,
)
def test_lockstep_euclid_matches_mobius_ladder(x, k, t):
    enc = Enclosure(x, x + t / 2**k)
    assert _certified_prefix(enc) == _mobius_ladder(enc)


non_squares = st.integers(min_value=2, max_value=500).filter(lambda n: isqrt(n) ** 2 != n)
resumable = st.one_of(
    non_squares.map(lambda n: SqrtOracle(n, f"sqrt{n}")),
    st.tuples(st.sampled_from(sorted(CATALOG)), rationals.filter(bool), rationals).map(
        lambda t: AffineOracle(t[1], t[2], CATALOG[t[0]]())
    ),
)


@settings(deadline=None, max_examples=60)
@given(resumable, st.integers(min_value=1, max_value=1500), st.integers(min_value=1, max_value=3000))
def test_resumed_extraction_matches_extraction_from_a0(oracle, k1, dk):
    # the finer enclosure nests in the one that certified the prefix, so
    # Euclid resumed past the prefix's last two convergents finds the rest
    head = _certified_prefix(oracle.enclose(k1))
    tail = _certified_prefix(oracle.enclose(k1 + dk), extend_convergents([], head)[-2:])
    assert head + tail == _certified_prefix(oracle.enclose(k1 + dk))


stream_oracles = st.one_of(
    st.sampled_from(sorted(CATALOG)).map(lambda name: CATALOG[name]()),
    st.tuples(st.sampled_from(sorted(CATALOG)), rationals.filter(bool), rationals).map(
        lambda t: AffineOracle(t[1], t[2], CATALOG[t[0]]())
    ),
    st.tuples(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6),
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4),
    ).map(lambda t: CFOracle(t[0], periodic=t[1])),
    st.tuples(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=4)).map(
        lambda t: CFOracle(None, liouville_base=t[0], liouville_cap=t[1])
    ),
)
# random widths, and widths 2**-e and just off them, where CFOracle.within's
# bit-length test hands over to the product q_(j-1) q_j
stream_widths = st.one_of(
    st.fractions(min_value=F(1, 2**300), max_value=2).filter(bool),
    st.tuples(
        st.integers(min_value=0, max_value=400), st.sampled_from([-1, 0, 1]), st.integers(1, 10**6)
    ).map(lambda t: F(1, 2**t[0]) * (1 + F(t[1], t[2] + 2**t[0]))),
)


@settings(deadline=None, max_examples=60)
@given(
    stream_oracles,
    st.integers(min_value=1, max_value=200),
    st.lists(stream_widths, max_size=4),
    st.integers(min_value=1, max_value=200),
)
def test_convergent_stream_matches_stored_convergents(oracle, depth, widths, j):
    supply = quotient_supply(oracle)
    count = depth + 1 if supply is None else min(depth + 1, supply)
    got = list(islice(convergent_stream(oracle), count))
    quots, _ = oracle.cf_quotients(count)
    assert got == extend_convergents([], quots[:count])
    if supply is not None:
        assert len(list(convergent_stream(oracle))) == supply
    if isinstance(oracle, CFOracle) and count > 1:
        # 1/width at q_(j-1) q_j and where its bit-length range [2**(b-2), 2**b) ends
        (_, q0), (_, q1) = got[min(j, count - 1) - 1:min(j, count - 1) + 1]
        b = q0.bit_length() + q1.bit_length()
        near = [q0 * q1, 2 ** (b - 2), 2 ** (b - 1), 2**b]
        widths += [F(1, n + d) for n in near for d in (-1, 0, 1) if n + d > 0]
    if isinstance(oracle, CFOracle):
        for width in widths:
            ref = reference_within(oracle, width)
            if ref is None:
                bits = ((width.denominator - 1) // width.numerator).bit_length()
                with pytest.raises(Unrepresentable, match=rf"give width above 2\*\*-{bits}$"):
                    oracle.within(width)
            else:
                assert oracle.within(width) == ref


def _fraction_ln_frac(x, k):
    """Reference: the reduction of ln_frac done in Fraction arithmetic, over
    the same table, atanh series and import-time constants."""
    f = F(x)
    e = f.numerator.bit_length() - f.denominator.bit_length()
    m = f / F(2) ** e
    if m >= 2:
        e += 1
        m /= 2
    elif m < 1:
        e -= 1
        m *= 2
    P, R, i, j, l = _RATIOS[bisect(_SPLITS, floor(m * 2**20))]
    r = F(P, R)
    e += i
    w = k + max(16, k.bit_length() + 3) + (abs(e) + abs(j) + abs(l)).bit_length()
    scale = F(1, 1 << w)
    if w > _W:
        consts = _ln235_series(w)
    else:
        cut = F(1, 1 << (_W - w))
        consts = [(floor(lo * cut), ceil(hi * cut)) for lo, hi in _LN235_W]
    out = Enclosure.point(0)
    for c, (lo, hi) in zip((e, j, l), consts):
        out = out + Enclosure(lo * scale, hi * scale) * c
    z = (m - r) / (m + r)
    if z:
        s, n = _atanh_frac(abs(z.numerator), z.denominator, w)
        series = Enclosure(2 * s * scale, 2 * (s + 2 * n + 2) * scale)
        out = out + (series if z > 0 else -series)
    return out


# integers of 1 to 2000 bits, each length about equally likely
big_ints = st.integers(min_value=1, max_value=2000).flatmap(
    lambda b: st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1)
)
log_args = st.one_of(
    st.builds(F, big_ints, big_ints),
    st.builds(lambda a, b: F(min(a, b), max(a, b) + 1), big_ints, big_ints),
    st.integers(min_value=-300, max_value=300).map(lambda j: F(2) ** j),
    st.integers(min_value=0, max_value=300).map(lambda j: F(2 ** (j + 1) - 1, 2**j)),
    st.integers(min_value=0, max_value=300).map(lambda j: F(2**j + 1, 2**j)),
)


ln_ks = st.sampled_from([16, 64, 96, 200, 600])


@settings(deadline=None, max_examples=300)
@given(log_args, ln_ks)
def test_integer_ln_frac_matches_fraction_reduction(x, k):
    assert ln_frac(x, k) == _fraction_ln_frac(x, k)


@settings(deadline=None, max_examples=200)
@given(log_args, ln_ks, st.integers(min_value=1, max_value=2**64))
def test_ln_frac_reads_a_pair_by_its_value(x, k, g):
    # an unreduced pair (g n, g d) gives the very integers of n/d's enclosure
    got, want = ln_frac((g * x.numerator, g * x.denominator), k), ln_frac(x, k)
    assert (got.l, got.h, got.d) == (want.l, want.h, want.d)


@settings(deadline=None, max_examples=300)
@given(log_args, ln_ks)
def test_ln_frac_contains_ln_within_width(x, k):
    # mpmath at 4k bits: its error, under 2**-(4k - 16) on |ln x| < 1400, is
    # far inside the 2**-(3k) slack
    with mpmath.workprec(4 * k):
        y = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
    man, exp = y.man_exp
    v, slack = F(-man if y < 0 else man) * F(2) ** exp, F(1, 1 << (3 * k))
    enc = ln_frac(x, k)
    assert enc.lo - slack <= v <= enc.hi + slack
    assert enc.width <= F(1, 1 << k)


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(IRRATIONALS[:4]),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=2, max_value=30),
    st.fractions(min_value=F(1, 100), max_value=F(9, 10), max_denominator=100),
    st.fractions(min_value=F(1, 100), max_value=F(9, 100), max_denominator=100),
)
def test_structured_search_matches_enumeration(oracle, q_lo, span, t_lo, width):
    t_hi = t_lo + width
    if t_hi >= 1:
        return
    s = find_fractional_hit(oracle, q_lo, q_lo + span, t_lo, t_hi)
    assert s == direct_hit(oracle, q_lo, q_lo + span, t_lo, t_hi)


constants = st.sampled_from(sorted(CATALOG)).map(lambda name: f"const:{name}")
scales = st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool)
surrogate_specs = st.one_of(
    constants,
    st.builds(
        lambda a, b, inner: f"affine:{a.numerator}/{a.denominator}/{b.numerator}/{b.denominator}:{inner}",
        scales, rationals, constants,
    ),
    st.builds(
        lambda head, block: f"cf:[{head[0]};{','.join(map(str, head[1:]))}]+periodic:[{','.join(map(str, block))}]",
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=5),
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4),
    ),
    st.tuples(st.integers(min_value=2, max_value=10), st.integers(min_value=3, max_value=8)),
)


def _surrogate_oracle(spec):
    if isinstance(spec, tuple):
        base, cap = spec
        return CFOracle(None, liouville_base=base, liouville_cap=cap)
    return parse_oracle(spec)


@settings(deadline=None, max_examples=150)
@given(
    surrogate_specs,
    st.one_of(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=400).flatmap(lambda d: st.integers(1, 10**d + 1)),
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.booleans(),
    st.booleans(),
)
# a supply whose last convergents are 2**-38 apart: no level of the ladder
# exists, and no candidate either
@example((9, 3), 2, F(17, 20), F(320991, 500000), F(938959, 1000000), False, False)
def test_enclosure_surrogate_matches_convergent_surrogate(
    spec, q_lo, span, t1, t2, lo_strict, hi_strict
):
    # wherever the convergent-surrogate search answers, the search on the
    # first narrow enough enclosure finds the same first hit
    t_lo, t_hi = min(t1, t2), max(t1, t2)
    assume(0 < t_lo < t_hi < 1)
    q_lo = F(q_lo)
    q_hi = q_lo * (1 + span)
    try:
        expected = convergent_surrogate_hit(_surrogate_oracle(spec), q_lo, q_hi, t_lo, t_hi)
    except DiophError:
        return
    windows = [window(t_lo, t_hi, lo_strict, hi_strict)]
    got = _find_hit(_surrogate_oracle(spec), q_lo.__ceil__(), q_hi.__floor__(), windows, _Stats())
    assert (None if got is None else got[:2]) == expected


@settings(deadline=None, max_examples=300)
@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
    st.fractions(min_value=0, max_value=F(1, 1000), max_denominator=10**9),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=300),
    st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    st.booleans(),
)
def test_integer_window_bounds_give_the_reduced_windows_candidates(lo, width, g, n, t1, t2, case_i):
    # the window on an unreduced surrogate [l/d, h/d] against the window
    # formulas on its reduced low end a/m: case (ii)'s ceil((t_lo - n w) m) to
    # floor((t_hi + n w) m), and case (i)'s -r to r, r = floor((b + n w) m)
    enc = _encode(lo, lo + width, g)
    a, m, delta = enc.lo.numerator, enc.lo.denominator, n * enc.width
    if case_i:
        b = abs(t1)
        t_lo, t_hi = -b, b
        r = ((b + delta) * m).__floor__()
        old = (-r, r)
    else:
        t_lo, t_hi = min(t1, t2), max(t1, t2)
        old = (((t_lo - delta) * m).__ceil__(), ((t_hi + delta) * m).__floor__())
    lo_i, hi_i = _surrogate_window(enc, n, window(t_lo, t_hi))
    got = _residue_hits(_Descent(enc.l, enc.d), 1, n, lambda q: (lo_i, hi_i))
    assert list(got) == list(_residue_hits(_Descent(a, m), 1, n, lambda q: old))


case_i_specs = st.one_of(
    surrogate_specs.filter(lambda spec: not isinstance(spec, tuple)),
    rationals.map(lambda x: f"rat:{x.numerator}/{x.denominator}"),
    st.integers(min_value=2, max_value=10).map(lambda base: f"cf:liouville:{base}"),
)


@settings(deadline=None, max_examples=200)
@given(
    case_i_specs,
    st.builds(
        F,
        st.integers(min_value=0, max_value=30).flatmap(lambda d: st.integers(2, 10**d + 2)),
        st.integers(min_value=1, max_value=7),
    ),
    st.one_of(
        st.builds(
            F, st.integers(min_value=1, max_value=3 * 10**6), st.integers(0, 46).map(lambda e: 10**e)
        ).filter(lambda b: F(1, 10**40) <= b <= 3),
        st.fractions(min_value=F(1, 100), max_value=3, max_denominator=100),
    ),
)
@example("const:e", F(10**6), F(1))
@example("const:golden", F(10**6), F(7, 10))
@example("cf:liouville:3", F(22500000), F(53, 531441))
def test_case_i_search_matches_convergent_scan(spec, u_limit, bound):
    # the least u with |u xi - v| <= bound is a convergent (Lagrange), so the
    # window search and the convergent scan agree on (u, v) or on the error
    def outcome(search):
        try:
            return search(parse_oracle(spec), u_limit, bound, _Stats())
        except DiophError as exc:
            return exc.code

    assert outcome(case_i_search) == outcome(_case_i_hit)


def _solve_with(spec, params, miss_run, budget):
    """(outcome, witness pair, candidates) of ``solve_disjunction`` on a fresh
    oracle, a restart after ``miss_run`` candidates and at most ``budget`` of
    them, or (error code, None, None)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dichotomy, "MISS_RUN", miss_run)
        mp.setattr(dichotomy, "DEFAULT_BUDGET", budget)
        try:
            res = solve_disjunction(parse_oracle(spec), params)
        except DiophError as exc:
            return exc.code, None, None
    w = res.witness
    return res.outcome, ((w.q, w.p) if res.outcome == "case_ii" else (w.u, w.v)), res.stats.candidates


PLAIN_BUDGET = 2000
big_quotient_cfs = st.builds(
    lambda a, b: f"cf:[0;{a},{b}]+periodic:[1]", st.integers(1, 9), st.integers(0, 40).map(lambda e: 10**e)
)
ANSWERS = ("case_i", "case_ii", "NEITHER_CASE_CERTIFIED")


@settings(deadline=None, max_examples=200)
@given(
    # a big second quotient puts a class of q just past a window's end
    st.one_of(case_i_specs, big_quotient_cfs),
    st.integers(min_value=1, max_value=98).map(lambda k: 1 + F(k, 100)),
    st.integers(min_value=1, max_value=99).map(lambda j: F(j, 100)),
    st.one_of(
        st.builds(F, st.integers(min_value=1, max_value=999), st.integers(0, 30).map(lambda e: 10**e)),
        st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
    ).filter(lambda eps: 0 < eps < 1),
    st.builds(
        F,
        st.integers(min_value=0, max_value=60).flatmap(lambda d: st.integers(10**d + 1, 2 * 10**d + 2)),
        st.integers(min_value=1, max_value=7),
    ).filter(lambda Q: Q > 1),
)
@example("const:sqrt2", F(3, 2), F(1, 2), F(1, 1000), F(10**40))
@example("cf:[0;3,7,15]+periodic:[1,2]", F(3, 2), F(1, 2), F(9, 50), F(10**45))
# the plus-then-minus search reads its minus window's surrogate for q below
# the plus hit at 1007; that drops the minus candidate the merged stream
# checks first: 2 candidates against 1
@example("cf:[0;7,1]+periodic:[1]", F(127, 100), F(49, 50), F(1, 10), F(1001))
# past 64 misses on one surrogate, the restarts answer
@example("cf:[0;2,1000000000000000000000000000000]+periodic:[1]", F(3, 2), F(1, 5), F(3, 10), F(10**40))
def test_merged_search_matches_the_plus_then_minus_search(spec, c, t, eps, Q):
    # wherever the plus-then-minus search answers within its budget, the one
    # merged stream gives the same outcome and witness, from no more
    # candidates than that search checks with the minus window on the plus
    # window's surrogate (its own, read for q below the plus hit, is narrower
    # and can drop a candidate); wherever one fixed surrogate answers, so do
    # the restarts
    params = LemmaParams(c, c + (2 - c) * t, eps, Q)
    got = _solve_with(spec, params, dichotomy.MISS_RUN, dichotomy.DEFAULT_BUDGET)
    for one_surrogate in (False, True):
        try:
            ref = plain_solve(parse_oracle(spec), params, PLAIN_BUDGET, one_surrogate)
        except NeitherCaseCertified as exc:
            ref = exc.code, None, None
        except DiophError:
            continue
        assert got[:2] == ref[:2]
        assert not one_surrogate or got[0] not in ANSWERS[:2] or got[2] <= ref[2]
    fixed = _solve_with(spec, params, 3 * PLAIN_BUDGET + 1, 3 * PLAIN_BUDGET)
    if fixed[0] in ANSWERS:
        assert got[:2] == fixed[:2]


@settings(deadline=None, max_examples=300)
@given(rationals, st.one_of(st.just(F(0)), rationals), st.fractions(min_value=F(1, 100), max_value=3, max_denominator=100))
def test_case_i_at_u_one_takes_the_least_v_from_the_floor(b, a, bound):
    # x = a sqrt2 + b, or the rational b where a = 0: u = 1 is a hit when
    # some integer lies within beta = min(bound, 1) of x, and then v is the
    # least one from floor(x) on, max(floor(x), ceil(x - beta))
    beta = min(bound, 1)

    def expected(x):
        v = max(x.__floor__(), (x - beta).__ceil__())
        return (1, v) if x - v >= -beta else None

    if a == 0:
        oracle, (lo, hi) = RationalOracle(b), (b, b)
    else:
        oracle = AffineOracle(a, b, SqrtOracle(2, "sqrt2"))
        lo, hi = _mp_bracket(
            lambda: mpmath.mpf(a.numerator) * mpmath.sqrt(2) / a.denominator + mpmath.mpf(b.numerator) / b.denominator,
            256,
        )
    assert expected(lo) == expected(hi)
    assert case_i_search(oracle, F(2), bound, _Stats()) == expected(lo)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(sorted(ENCLOSE_RULE_ORACLES)),
    st.integers(min_value=1, max_value=10**30),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.fractions(min_value=F(1, 10**6), max_value=1, max_denominator=10**6),
    st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
)
def test_window_check_agrees_with_mpmath(spec, q, t_lo, width, near_k):
    # the one window check, with or without a given enclosure of q xi, against
    # q xi evaluated by mpmath at 4 times the finest level it read: the least
    # p with q xi - p strictly inside (t_lo, t_hi), or None when there is none
    t_hi = t_lo + width
    assume(-1 < t_lo and t_hi < 1 and width < 1)
    oracle = LopsidedSqrt2() if spec == LopsidedSqrt2.spec else parse_oracle(spec)
    near = None if near_k is None else oracle.enclose(near_k) * q
    stats = _Stats()
    got = _frac_window_check(oracle, q, window(t_lo, t_hi), stats, near)
    bits = max(stats.bits, 0 if near_k is None else level_for(near_k))
    lo, hi = _mp_bracket(lambda: q * ENCLOSE_RULE_ORACLES[spec](), 4 * bits + q.bit_length())
    p = (lo - t_hi).__ceil__()
    if p > (hi - t_lo).__floor__():
        assert got is None
    else:
        assert t_lo < lo - p and hi - p < t_hi
        assert got is not None and got[0] == p
        assert got[1].lo <= lo - p and hi - p <= got[1].hi


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=5, max_value=80),
    st.integers(min_value=-200, max_value=200),
    st.data(),
)
def test_band_ends_on_the_residue_grid(m, a, data):
    # eps = k/m and c' eps = l/m put both band ends, strict and not, on
    # fractional parts that q a/m really takes
    k = data.draw(st.integers(min_value=2, max_value=(m - 1) // 2))
    cp = F(data.draw(st.integers(min_value=k + 1, max_value=2 * k - 1)), k)
    c = 1 + (cp - 1) * data.draw(
        st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100)
    )
    Q = data.draw(st.fractions(min_value=F(8, 7), max_value=300, max_denominator=7))
    params = LemmaParams(c, cp, F(k, m), Q)
    oracle = RationalOracle(F(a, m))
    expect = _brute_case_ii(F(a, m), params)
    try:
        res = solve_disjunction(oracle, params)
    except NeitherCaseCertified:
        assert expect is None
        return
    if res.outcome == "case_ii":
        q, p = res.witness.q, res.witness.p
        assert (q, p) == expect
        # built on integers over m, unreduced, and equal to the exact point
        assert res.residual == Enclosure.point(q * F(a, m) - p)
    else:
        assert expect is None



class _Recorded(Exception):
    pass


def _solve_windows(params):
    """The q ranges and windows each ``_find_hit`` call of a solve is given:
    case (ii)'s, and case (i)'s after case (ii) is made to miss."""
    calls = []

    def recording(oracle, n_lo, n_hi, windows, stats):
        calls.append((n_lo, n_hi, windows))
        if len(calls) == 2:
            raise _Recorded
        return None

    find_hit = dichotomy._find_hit
    dichotomy._find_hit = recording
    try:
        solve_disjunction(RationalOracle(F(1, 3)), params)
    except _Recorded:
        pass
    finally:
        dichotomy._find_hit = find_hit
    return [(n_lo, n_hi, [(F(lo, den), F(hi, den), *flags) for lo, hi, den, *flags in windows])
            for n_lo, n_hi, windows in calls]


def _check_integer_params(c, cp, eps, Q):
    """LemmaParams's checks are cross products and the solve's band ends
    integers over one denominator; the Fraction formulas they replaced are
    the reference, inf and NaN included."""
    finite = all(isfinite(x) for x in (c, cp, eps, Q) if isinstance(x, float))
    ok = finite and 1 < c < cp < 2 and 0 < eps < 1 and Q > 1
    try:
        params = LemmaParams(c, cp, eps, Q)
    except PreconditionError as exc:
        assert exc.code == "BAD_PARAMS" and not ok
        return
    assert ok
    c, cp, eps, Q = F(c), F(cp), F(eps), F(Q)
    bound_u = (2 * c * c) / ((c - 1) * (cp - c)) / eps
    factor = (2 / (c - 1)) * (1 + c * c / (cp - c))
    assert (params.bound_u, params.dist_factor) == (bound_u, factor)
    w = min(cp * eps, F(1, 2))
    case_ii, case_i = _solve_windows(params)
    assert case_ii == (
        Q.__ceil__(), (c * Q).__floor__(), [(eps, w, False, cp * eps <= F(1, 2)), (-w, -eps, True, False)]
    )
    # from eps > 1/2 on both windows are empty; at 1/2 only the point 1/2 is left
    assert (eps > w) == (eps > F(1, 2))
    bound = factor / Q
    u_hi = bound_u.__ceil__() - 1
    beta = min(bound, F(1))
    assert case_i == (1, u_hi if 2 * bound < 1 else min(u_hi, 1), [(-beta, beta, False, False)])


@pytest.mark.parametrize("c,cp,eps,Q", [
    (F(1), F(19, 10), F(1, 10), 10),
    (F(3, 2), F(3, 2), F(1, 10), 10),
    (F(19, 10), F(3, 2), F(1, 10), 10),
    (F(3, 2), F(2), F(1, 10), 10),
    (F(3, 2), F(19, 10), F(0), 10),
    (F(3, 2), F(19, 10), F(1, 2), 10),
    (F(3, 2), F(19, 10), F(1), 10),
    (F(3, 2), F(19, 10), F(5, 19), 10),
    (F(3, 2), F(19, 10), F(49, 100), F(7, 3)),
    (F(3, 2), F(19, 10), F(1, 10), 1),
    (F(3, 2), F(19, 10), F(-1, 10), 10),
    (F(3, 2), F(19, 10), F(1, 10), -10),
    (float("inf"), F(19, 10), F(1, 10), 10),
    (F(3, 2), float("nan"), F(1, 10), 10),
    (F(3, 2), F(19, 10), float("nan"), 10),
    (F(3, 2), F(19, 10), F(1, 10), float("inf")),
], ids=["c=1", "c=c'", "c>c'", "c'=2", "eps=0", "eps=1/2", "eps=1", "c'eps=1/2", "eps=49/100", "Q=1",
        "eps<0", "Q<0", "c=inf", "c'=nan", "eps=nan", "Q=inf"])
def test_integer_params_and_band_at_the_edges(c, cp, eps, Q):
    _check_integer_params(c, cp, eps, Q)


def _inside(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=10**4).filter(lambda x: lo < x < hi)


def _param_values(lo, hi):
    # three in four draws strictly inside (lo, hi), the rest edges and non-finite values
    edges = st.sampled_from([F(0), F(1, 2), F(1), F(2), -1, float("inf"), float("-inf"), float("nan")])
    return st.one_of(edges, *[_inside(lo, hi)] * 3)


@settings(deadline=None, max_examples=400)
@given(
    st.one_of(
        st.tuples(_param_values(1, 2), _param_values(1, 2)),
        # c' a fraction t of the way from c to 2
        st.tuples(_inside(1, 2), _inside(0, 1)).map(lambda ct: (ct[0], ct[0] + (2 - ct[0]) * ct[1])),
    ),
    _param_values(0, 1),
    st.one_of(_param_values(1, 10**6), st.integers(2, 10**50)),
)
def test_integer_params_and_band_equal_the_fraction_formulas(c_pair, eps, Q):
    c, cp = c_pair
    _check_integer_params(c, cp, eps, Q)


def _brute_residue_hits(a, m, q_lo, q_hi, window):
    """Every q in [q_lo, q_hi] whose least y >= lo with y = a q mod m is at
    most hi, (lo, hi) = window(hits so far)."""
    hits = []
    for q in range(q_lo, q_hi + 1):
        lo, hi = window(len(hits))
        if lo + (a * q - lo) % m <= hi:
            hits.append(q)
    return hits


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=250),
    st.integers(min_value=-80, max_value=80),
    st.integers(min_value=-20, max_value=150),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_residue_stream_matches_brute_scan(m, j, q_lo, span, lo, width, shrink, data):
    # a = j m + r covers a = 0 mod m, 2a > m and negative a; the window
    # [lo, lo + width] may start below 0, end past m - 1 or be empty, and
    # the caller narrows it by ``shrink`` at each end after every hit
    a = j * m + data.draw(st.integers(min_value=0, max_value=m - 1))

    def window(k):
        return lo + shrink * k, lo + width - shrink * k

    hits = []
    for q in _residue_hits(_Descent(a, m), q_lo, q_lo + span, lambda q: window(len(hits))):
        hits.append(q)
    assert hits == _brute_residue_hits(a, m, q_lo, q_lo + span, window)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        st.integers(min_value=6, max_value=80).map(lambda k: 1 << k),
        st.integers(min_value=2**5, max_value=2**79).map(lambda k: 2 * k + 1),
    ),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2**100),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_residue_stream_matches_brute_scan_at_large_moduli(m, j, q_lo, span, pick, pad, shrink, data):
    # moduli up to 2**80, powers of two as the fixed points and dyadic
    # surrogates use and odd ones; the window (read cyclically) is centred
    # on the residue of q_lo and reaches those of q_hi and of one q between,
    # so a fixed window (shrink = 0) yields at least 3 hits and runs the
    # three-gap steps, while one that shrinks by pad > 0 descends again
    # after every hit; a near k/n of m makes gaps near n
    near = st.builds(
        lambda k, n, e: (m * k // n + e) % m,
        st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=20),
        st.integers(min_value=-1000, max_value=1000),
    )
    a = j * m + data.draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=m - 1), near))
    q_hi = q_lo + span + 2
    r0 = a * q_lo % m
    reach = max(min(d, m - d) for d in ((a * q - r0) % m for q in (q_lo + 1 + pick % (span + 1), q_hi)))
    w = reach + pad

    def window(k):
        return r0 - w + shrink * k * pad, r0 + w - shrink * k * pad

    hits = []
    for q in _residue_hits(_Descent(a, m), q_lo, q_hi, lambda q: window(len(hits))):
        hits.append(q)
    assert hits == _brute_residue_hits(a, m, q_lo, q_hi, window)
    if shrink == 0:
        assert len(hits) >= 3


@pytest.mark.parametrize("m", range(1, 25))
def test_residue_stream_gap_rule_is_the_least_return(m):
    # a stream whose first hit, q = 0, has residue x in [0, c) takes its
    # second hit by the gap rule; a fresh descent from x + a must agree, for
    # every a (a = 0 mod m and 2a > m included), c and x
    for a in range(m):
        chain = _Descent(a, m)
        for c in range(1, m + 1):
            for x in range(c):
                hits = _residue_hits(chain, 0, 2 * m, lambda q: (-x, c - 1 - x))
                assert next(hits) == 0
                assert next(hits) == 1 + _stack_first_hit(a, x + a, m, c)


def _stack_first_hit(a, b, m, c):
    """Reference: the least t >= 0 with (a t + b) mod m < c, or None, by the
    descent as it ran before one chain served every query on a/m: Euclid on
    (a, m) afresh at each call, mirrored where 2a > m, one frame per level
    on an explicit stack, unwound with two products and a division a level."""
    if c <= 0:
        return None
    stack = []
    t = None
    while True:
        if c >= m:
            t = 0
            break
        a %= m
        b %= m
        if b < c:
            t = 0
            break
        if a == 0:
            break
        if 2 * a > m:
            a, b = m - a, (c - 1 - b) % m
            continue
        x0 = -((b - m) // a)  # ceil((m - b) / a), first wrap
        w1 = a * x0 + b - m
        if w1 < c:
            t = x0
            break
        r = (-m) % a
        stack.append((a, m, x0, w1, r))
        a, b, m = r, w1, a
    if t is None:
        return None
    while stack:
        a, m, x0, w1, r = stack.pop()
        wj = (w1 + t * r) % a
        t = x0 + (t * m + wj - w1) // a
    return t


def _hit_level(a, m, b, c):
    """(t, level): the least hit t and the level of a fresh chain's descent
    that it lies on, -1 for a hit at t = 0 that reads no level."""
    chain = _Descent(a, m)
    return chain.first_hit(b, c), len(chain.levels) - 1


def _queries(m):
    """(b, c) on the modulus m: any b, c from 1 to m drawn below a power of
    two of uniform size, so hits deep in the descent come as often as
    shallow ones."""
    cs = st.integers(min_value=0, max_value=m.bit_length()).flatmap(
        lambda k: st.integers(min_value=1, max_value=min(m, 1 << k))
    )
    return st.tuples(st.integers(min_value=-m, max_value=2 * m), cs)


big_moduli = st.integers(min_value=1, max_value=4000).flatmap(
    lambda k: st.integers(min_value=2, max_value=1 << k)
)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_descent_chain_matches_brute_scan(m, data):
    # a = 0 mod m, 2a > m and negative a; c below 1 and past m; every hit
    # unwound, and again with each past level 0 solved by the inverse
    a = data.draw(st.integers(min_value=-2 * m, max_value=2 * m))
    queries = data.draw(st.lists(
        st.tuples(st.integers(min_value=-m, max_value=2 * m), st.integers(min_value=-1, max_value=m + 1)),
        min_size=1, max_size=8,
    ))
    for deep in (dichotomy.DEEP, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dichotomy, "DEEP", deep)
            chain = _Descent(a, m)
            for b, c in queries:
                brute = next((t for t in range(m) if (a * t + b) % m < c), None)
                assert chain.first_hit(b, c) == brute


@settings(deadline=None, max_examples=60)
@given(big_moduli, st.data())
def test_descent_chain_matches_the_stack_descent(m, data):
    a = data.draw(st.integers(min_value=-m, max_value=2 * m))
    chain = _Descent(a, m)
    for b, c in data.draw(st.lists(_queries(m), min_size=1, max_size=3)):
        assert chain.first_hit(b, c) == _stack_first_hit(a, b, m, c)


@pytest.mark.parametrize("seed", range(4))
def test_descent_chain_unwinds_and_inverts_alike_at_every_depth(seed):
    # one 4000-bit a/m and b, c stepping down by 2**(1/4) so that the hits
    # lie on most levels down to past 2 DEEP; each is solved by inverting
    # only (DEEP = 0), by unwinding only, and as shipped, on one chain per
    # setting, and each answer is the reference's
    rng = random.Random(seed)
    m = rng.getrandbits(4000) | 1 << 3999
    a, b = rng.randrange(m), rng.randrange(m)
    queries = [isqrt(isqrt(1 << k)) for k in range(4 * 3999, 4 * 3900, -1)]
    want = [_stack_first_hit(a, b, m, c) for c in queries]
    levels = {_hit_level(a, m, b, c)[1] for c in queries}
    deep = dichotomy.DEEP
    assert {lv for lv in levels if 0 < lv <= deep} and max(levels) > 2 * deep
    for unwound in (0, deep, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dichotomy, "DEEP", unwound)
            chain = _Descent(a, m)
            assert [chain.first_hit(b, c) for c in queries] == want


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=1500).flatmap(lambda k: st.integers(min_value=2, max_value=1 << k)),
       st.data())
def test_one_chain_answers_queries_in_any_order(m, data):
    # the chain extends lazily: a deep query after shallow ones reads past
    # the levels they built, a shallow one after a deep one reads only the
    # top of the chain, and each answer is the fresh reference's
    a = data.draw(st.integers(min_value=-m, max_value=2 * m))
    queries = data.draw(st.lists(_queries(m), min_size=2, max_size=6))
    want = {(b, c): _stack_first_hit(a, b, m, c) for b, c in queries}
    chain = _Descent(a, m)
    by_c = sorted(queries, key=lambda q: q[1])
    for q in data.draw(st.permutations(queries)) + by_c + by_c[::-1]:
        assert chain.first_hit(*q) == want[q]


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=300).flatmap(lambda k: st.integers(min_value=1, max_value=1 << k)),
       st.data())
def test_descent_chain_mirror_identity(m, data):
    # (-a t - b) mod m < c exactly when (a t + c - 1 + b) mod m < c, for 1 <=
    # c <= m: the return time n2 of a residue stream, b = a, is a query on
    # the chain of a, not a descent of -a
    a, b = (data.draw(st.integers(min_value=-m, max_value=2 * m)) for _ in range(2))
    chain = _Descent(a, m)
    for c in data.draw(st.lists(st.integers(min_value=1, max_value=m), min_size=1, max_size=4)):
        assert chain.first_hit(c - 1 + b, c) == _stack_first_hit(-a, -b, m, c)
        assert chain.first_hit(c - 1 + a, c) == _stack_first_hit(-a, -a, m, c)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(IRRATIONALS[:4]), st.integers(min_value=-3, max_value=3))
def test_integer_shift_preserves_cf_tail(base, shift):
    plain = expand(base, 8).quotients
    shifted = expand(AffineOracle(1, shift, base), 8).quotients
    assert shifted[0] == plain[0] + shift
    assert shifted[1:] == plain[1:]


@settings(deadline=None, max_examples=60)
@given(rationals)
def test_parse_rational_round_trip(x):
    assert parse_rational(f"{x.numerator}/{x.denominator}") == x
    assert parse_rational(str(x)) == x


@settings(deadline=None, max_examples=60)
@given(rationals, st.integers(min_value=4, max_value=60))
def test_dyadic_bounds_bracket(x, k):
    lo = dyadic_below(x, k)
    hi = dyadic_above(x, k)
    assert lo <= x <= hi
    assert hi - lo <= 2 * F(1, 2**k)
    assert (lo * 2**k).denominator == 1 and (hi * 2**k).denominator == 1


scales = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
coordinates = st.builds(
    lambda name, a, b: AffineOracle(a, b, CATALOG[name]()),
    st.sampled_from(sorted(CATALOG)), scales, st.fractions(-3, 3, max_denominator=7),
) | st.sampled_from(sorted(CATALOG)).map(lambda name: CATALOG[name]())
points = st.builds(
    lambda lead, rest: PointVec((RationalOracle(lead),) + tuple(rest)),
    scales, st.lists(coordinates, min_size=1, max_size=2),
)


def _verified(search, *args):
    """The search's result and the denominators it verified with
    enclosures, in first-seen order."""
    seen = []
    verify = multiform._refined_max_dist
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            multiform, "_refined_max_dist", lambda r, q: seen.append(q) or verify(r, q)
        )
        result = search(*args)
    return result, list(dict.fromkeys(seen))


@settings(deadline=None, max_examples=30)
@given(
    points,
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=1, max_value=96),
)
def test_simultaneous_searches_match_full_scans(point, Q, q_bound, loosen):
    assert _verified(dirichlet_witness, point, Q) == _verified(brute_dirichlet, point, Q)
    assert _verified(dirichlet_witness, point, Q, "best") == _verified(
        brute_dirichlet, point, Q, "best"
    )
    report, verified = _verified(omega0_search, point, q_bound)
    assert report == brute_omega0(point, q_bound)
    ratios = point.ratio_oracles()

    def largest(qs):
        return max(
            (multiform._omega_point(multiform._refined_max_dist(ratios, q)[0].hi, q), -q)
            for q in qs
        )

    # each half certifies records only, and its winner is the winner of all
    # of its records
    half = q_bound // 2
    for lo, hi in ((2, half), (max(2, half + 1), q_bound)):
        if lo > hi:
            continue
        records = brute_records(point, lo, hi)[0]
        certified = [q for q in verified if lo <= q <= hi]
        assert set(certified) <= set(records)
        assert largest(certified) == largest(records)

    # any looser caps, which reorder the records, keep the report
    bounds = multiform._omega_bounds

    def looser(M, s, err, q):
        cap, floor = bounds(M, s, err, q)
        return cap + q * loosen % 7, floor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiform, "_omega_bounds", looser)
        assert omega0_search(point, q_bound) == report


@settings(deadline=None, max_examples=30)
@given(points, st.integers(min_value=2, max_value=2000))
def test_omega_cap_bounds_every_records_certified_exponent(point, q_bound):
    # omega0 may leave out a record only because its cap is at least the
    # exponent it would certify there
    ratios = point.ratio_oracles()
    M, fixed = multiform._fixed_points(ratios, q_bound)
    err = q_bound + 2
    for q in brute_records(point, 2, q_bound)[0]:
        cap, _ = multiform._omega_bounds(M, multiform._approx_score(q, fixed, M), err, q)
        enc, _ = multiform._refined_max_dist(ratios, q)
        assert cap >= multiform._omega_point(enc.hi, q)


SQRT2_300 = F(isqrt(2 << 600), 1 << 300)  # within 2**-300 of sqrt2


def near_third():
    """A fresh point within 2**-300 of (1, 1/3), sqrt2 + 1/3 - SQRT2_300 with
    enclosures of sqrt2's widths: d(3) is far below the width of a distance
    refined from 64 bits up, so the exponent certified at 3 is read off that
    width."""
    return PointVec((RationalOracle(1), AffineOracle(1, F(1, 3) - SQRT2_300, SqrtOracle(2, "sqrt2"))))


def _certified_omega(point, q):
    return multiform._omega_point(multiform._refined_max_dist(point.ratio_oracles(), q)[0].hi, q)


@settings(deadline=None, max_examples=40)
@given(points | st.builds(near_third), st.integers(min_value=2, max_value=3000))
def test_omega0_prunes_below_every_certified_exponent(point, q_bound):
    # the stream's om is the largest floor of the records it has yielded, and
    # each floor is at most the exponent its record certifies, so a q left out
    # for scoring above q**-om could neither beat nor tie that record
    floors = []
    bounds = multiform._omega_bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiform, "_omega_bounds",
                   lambda M, s, err, q: floors.append((q, bounds(M, s, err, q))) or floors[-1][1])
        omega0_search(point, q_bound)
    assert floors
    for q, (_, (n, m)) in floors:
        assert F(n, m) <= _certified_omega(point, q)


@settings(deadline=None, max_examples=60)
@given(points.map(lambda p: lambda: p) | st.just(near_third),
       st.integers(min_value=1, max_value=128), st.data())
@example(near_third, 120, None)
@example(near_third, 2, None)
def test_omega_floor_is_below_the_certified_exponent_at_any_q(point, bits, data):
    # the floor bounds d(q) by the score alone, so it holds at every q, and
    # past 2**80 bits of fixed point it allows for the refinement width: here
    # the distance is certified on a fresh oracle, where it is widest
    q_bound = 3 << bits
    q = 3 if data is None else data.draw(st.integers(min_value=2, max_value=q_bound))
    ratios = point().ratio_oracles()
    M, fixed = multiform._fixed_points(ratios, q_bound)
    _, (n, m) = multiform._omega_bounds(M, multiform._approx_score(q, fixed, M), q_bound + 2, q)
    assert F(n, m) <= _certified_omega(point(), q)


def _omega_above(enc, q):
    """Directed-up -log d / log q from the lower end of an enclosure of d."""
    if enc.lo <= 0:
        return float("inf")
    ln_inv = ln_frac((enc.lo.denominator, enc.lo.numerator), LOG_BITS)
    return F(*ln_quotient(ln_inv, ln_frac(q, LOG_BITS), up=True))


@settings(deadline=None, max_examples=25)
@given(points, st.integers(min_value=2, max_value=1500))
def test_omega0_skips_only_what_cannot_win(point, q_bound):
    # every q of a half that omega0's stream does not yield has a distance
    # certified above that of a record yielded before it (``near``), or an
    # exponent certified below the om then in force (the window). Both hold
    # with a margin of 2/M, over 2**-80 at these sizes, so the refined
    # distances decide them
    records = []
    bounds = multiform._omega_bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiform, "_omega_bounds",
                   lambda M, s, err, q: records.append((q, bounds(M, s, err, q))) or records[-1][1])
        omega0_search(point, q_bound)
    ratios = point.ratio_oracles()
    half = q_bound // 2
    for lo, hi in ((2, half), (max(2, half + 1), q_bound)):
        mine = [(q, F(*om)) for q, (_, om) in records if lo <= q <= hi]
        yielded = {q for q, _ in mine}
        least, om, k = None, F(0), 0
        for q in range(lo, hi + 1):
            enc = multiform._refined_max_dist(ratios, q)[0]
            if q in yielded:
                om = max(om, mine[k][1])
                least = enc.hi if least is None else min(least, enc.hi)
                k += 1
            else:
                assert (least is not None and enc.lo > least) or _omega_above(enc, q) < om


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.fractions(0, 1, max_denominator=10**9), min_size=1, max_size=3),
    st.integers(min_value=6, max_value=14),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=300),
    units,
)
def test_record_stream_yields_every_record(xs, bits, lo, span, start):
    # a coarse fixed point, so that the scores' error matters
    M, hi = 1 << bits, lo + span
    fixed = [(x * M).__floor__() for x in xs]
    err = hi + 2  # |q X_j - q x_j M| < q
    near = (start * M).__floor__()
    got = list(multiform._records(fixed, M, err, lo, hi, near))
    assert [q for q, _ in got] == sorted({q for q, _ in got})
    assert all(s == multiform._approx_score(q, fixed, M) <= near for q, s in got)
    least = None
    for q in range(lo, hi + 1):
        d = max(abs(q * x - round(q * x)) for x in xs)
        if (least is None or d < least) and M * d + err <= near:
            assert q in dict(got)
        least = d if least is None else min(least, d)


def _summed_form(form, point):
    """Reference: the form value as a sum of Enclosure products at each
    level, separated from zero, with no rounding."""
    pad = sum(abs(c) for c in form.coeffs).bit_length() + 2

    def enclose_at(k):
        enc = Enclosure.point(0)
        for l, c in zip(form.coeffs, point.coords):
            if l:
                enc = enc + c.enclose(k + pad) * l
        return enc

    return separated(enclose_at, "reference form value")


def _significant_bits(x: F) -> int:
    n = abs(x.numerator)
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


def _assert_rounded_form(got: Enclosure, ref: Enclosure):
    assert got.lo <= ref.lo and ref.hi <= got.hi
    a = got.abs()
    assert a.lo > 0 and a.width <= a.lo / 2**SEPARATION_BITS
    for end in (got.lo, got.hi):
        d = end.denominator
        assert d & (d - 1) == 0
        assert _significant_bits(end) <= multiform.FORM_BITS + 1


def _base(coord):
    # golden = (1 + sqrt5)/2: one of the two per point keeps the value nonzero
    return "sqrt5" if coord[0] == "golden" else coord[0]


def _coordinate(name, affine, a, b):
    if not affine:
        return f"const:{name}"
    return f"affine:{a.numerator}/{a.denominator}/{b.numerator}/{b.denominator}:const:{name}"


coordinate_specs = st.tuples(
    st.sampled_from(sorted(CATALOG)),
    st.booleans(),
    st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)
heights = st.integers(min_value=-(2**2000), max_value=2**2000)


@settings(deadline=None, max_examples=40)
@given(st.lists(coordinate_specs, min_size=1, max_size=3, unique_by=_base), st.data())
def test_rounded_form_contains_the_summed_form(coords, data):
    specs = [_coordinate(*c) for c in coords]
    point = PointVec((RationalOracle(1), *(parse_oracle(s) for s in specs)))
    coeffs = data.draw(st.lists(heights, min_size=len(specs) + 1, max_size=len(specs) + 1))
    coeffs[-1] = coeffs[-1] or 1
    form = LinearForm(coeffs)
    _assert_rounded_form(evaluate_form(form, point), _summed_form(form, point))


@settings(deadline=None, max_examples=30)
@given(coordinate_specs, st.integers(min_value=1, max_value=400))
def test_rounded_form_keeps_tiny_values_separated(coord, j):
    # q x - p at a convergent is about 1/q**2, far below the unit ulp
    x = parse_oracle(_coordinate(*coord))
    p, q = next(islice(convergent_stream(x), j, None))
    point = PointVec((RationalOracle(1), x))
    form = LinearForm((-p, q))
    got = evaluate_form(form, point)
    _assert_rounded_form(got, _summed_form(form, point))
    assert abs(got.hi) < 1


@settings(deadline=None, max_examples=40)
@given(
    st.lists(rationals.filter(bool), min_size=2, max_size=4),
    st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=3, max_size=3),
)
def test_vanishing_form_on_rationals_raises(values, draws):
    # l_0 = -(l_1 r_1 + ...) / r_0, everything scaled to integers
    rest = [l * r for l, r in zip(draws, values[1:])]
    lead = -sum(rest, F(0)) / values[0]
    scale = lead.denominator
    coeffs = [int(lead * scale)] + [l * scale for l in draws[: len(values) - 1]]
    if not any(coeffs):
        coeffs = [values[1].numerator * values[0].denominator,
                  -values[0].numerator * values[1].denominator] + [0] * (len(values) - 2)
    point = PointVec(tuple(RationalOracle(v) for v in values))
    with pytest.raises(ZeroFormValue):
        evaluate_form(LinearForm(coeffs), point)


def _ln_mid_gate(a: F, b: F) -> bool:
    """Reference: the regularity step as 64-bit log midpoints decided it."""
    la, lb = ln_frac(a, 64).mid, ln_frac(b, 64).mid
    return la != 0 and abs(lb / la - 1) <= seqbuild.REGULARITY_DELTA


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=2**127, max_value=2**128 - 1),
    st.integers(min_value=2**127, max_value=2**128 - 1),
    st.integers(min_value=-3000, max_value=3000),
    st.fractions(min_value=F(1, 2), max_value=F(3, 2), max_denominator=1000),
)
def test_exact_gate_agrees_with_the_log_gate(ma, mb, ea, t):
    # dyadics like the form residuals, with ln b / ln a near t
    a = F(ma) * F(2) ** (ea - 128)
    b = F(mb) * F(2) ** (round(ea * t) - 128)
    la, lb = ln_frac(a, 128), ln_frac(b, 128)
    assume(not la.contains_zero())
    edge = abs((lb / la).mid - 1) - seqbuild.REGULARITY_DELTA
    assume(abs(edge) > F(1, 2**40))
    assert seqbuild._regular_step(a, b) == _ln_mid_gate(a, b)


def _per_rung_form(form, point):
    """Reference: the form value as each rung summed it before exact
    coordinates were folded in once, every coordinate's enclosure read at
    every rung, then rounded as evaluate_form rounds it."""
    pad = sum(abs(c) for c in form.coeffs).bit_length() + 2

    def enclose_at(k):
        lo_n, lo_d, hi_n, hi_d = 0, 1, 0, 1
        for l, c in zip(form.coeffs, point.coords):
            if l:
                enc = c.enclose(k + pad)
                a, b = (enc.l, enc.h) if l > 0 else (enc.h, enc.l)
                ad = bd = enc.d
                if ad & (ad - 1):
                    (a, ad), (b, bd) = F(a, ad).as_integer_ratio(), F(b, bd).as_integer_ratio()
                lo_n = lo_n * ad + l * a * lo_d
                lo_d *= ad
                hi_n = hi_n * bd + l * b * hi_d
                hi_d *= bd
        e = min(abs(n).bit_length() - d.bit_length() for n, d in ((lo_n, lo_d), (hi_n, hi_d)))
        up, down = max(multiform.FORM_BITS - 1 - e, 0), max(e + 1 - multiform.FORM_BITS, 0)
        lo = (lo_n << up) // (lo_d << down) << down
        hi = -((-hi_n << up) // (hi_d << down)) << down
        return Enclosure.from_ints(lo, hi, 1 << up)

    return separated(enclose_at, "per-rung form value")


@settings(deadline=None, max_examples=60)
@given(
    st.lists(coordinate_specs, min_size=1, max_size=2, unique_by=_base),
    st.lists(st.sampled_from(["rat:1", "rat:1/3", "rat:-5/7"]), min_size=1, max_size=3),
    st.data(),
)
def test_folded_exact_coordinates_give_the_per_rung_integers(irrational, exact, data):
    specs = data.draw(st.permutations([_coordinate(*c) for c in irrational] + exact))
    coeffs = data.draw(st.lists(heights, min_size=len(specs), max_size=len(specs)))
    coeffs[specs.index(_coordinate(*irrational[0]))] |= 1  # an irrational term
    got, want = [], []
    for out, fn in ((got, evaluate_form), (want, _per_rung_form)):
        # fresh oracles per side: neither reads levels the other cached
        point = PointVec(tuple(parse_oracle(s) for s in specs))
        try:
            enc = fn(LinearForm(coeffs), point)
            out.append((enc.l, enc.h, enc.d))
        except DiophError as exc:
            out.append(exc.code)
    assert got == want


@pytest.mark.parametrize("s", [2, 3])
def test_apery_form_values_are_the_per_rung_integers(s):
    seq = multiform.apery_forms(s, 120)
    for n in (2, 30, 60, 61, 119, 120):
        got = evaluate_form(seq.forms[n], seq.point, index=n)
        want = _per_rung_form(seq.forms[n], seq.point)
        assert (got.l, got.h, got.d) == (want.l, want.h, want.d)


def _power_gate(a, b) -> bool:
    """Reference: the regularity step as the exact power test alone, in
    Fraction arithmetic on the upper ends."""
    x, y = (v.hi if isinstance(v, Enclosure) else F(v) for v in (a, b))
    p, q = seqbuild.REGULARITY_DELTA.numerator, seqbuild.REGULARITY_DELTA.denominator
    s1, s2 = (y**q - x**e for e in (q - p, q + p))
    return x != 1 and min(s1, s2) <= 0 <= max(s1, s2)


positive = st.fractions(min_value=F(1, 2**300), max_value=2**300).filter(lambda x: x > 0)


@st.composite
def gate_pairs(draw):
    kind = draw(st.sampled_from(["free", "edge", "near one"]))
    if kind == "free":
        x, y = draw(positive), draw(positive)
    elif kind == "edge":
        # ln y / ln x at or within a few ulps of 3/4 or 5/4
        r = draw(st.fractions(min_value=F(1, 2**64), max_value=2**64).filter(lambda r: r > 0 and r != 1))
        x, y = r**4, r ** draw(st.sampled_from([3, 5]))
        y *= 1 + F(draw(st.integers(min_value=-2, max_value=2)), 2 ** draw(st.integers(min_value=2, max_value=400)))
    else:
        m = draw(st.integers(min_value=2, max_value=400))
        x = 1 + F(draw(st.integers(min_value=-3, max_value=3)), 2**m)
        y = draw(st.one_of(positive, st.just(x), st.builds(lambda j: x * (1 + F(j, 2**m)), st.integers(-3, 3))))

    def wrap(v):
        how = draw(st.sampled_from(["fraction", "point", "enclosure"]))
        if how == "fraction":
            return v
        if how == "point":
            return Enclosure.point(v)
        # upper end v over an unreduced denominator, lower end anywhere below
        c = draw(st.integers(min_value=1, max_value=2**70))
        h, d = v.numerator * c, v.denominator * c
        return Enclosure.from_ints(h - draw(st.integers(min_value=0, max_value=h)), h, d)

    return wrap(x), wrap(y)


@settings(deadline=None, max_examples=400)
@given(gate_pairs())
@example((F(16), F(32)))
@example((F(16), F(8)))
@example((F(1, 16), F(1, 32)))
@example((F(1), F(2)))
@example((Enclosure.point(F(2**200 + 1, 2**200)), F(3, 2)))
def test_bit_length_gate_agrees_with_the_power_test(pair):
    assert seqbuild._regular_step(*pair) == _power_gate(*pair)


def _corner(e, up, j, k):
    """X/D with bits(X) - bits(D) = e and log2(X/D) within 2**-k-ish of
    e + 1 (up) or e - 1: as far from its bit-length estimate as it gets."""
    k += max(e, 0)
    return F(2**k - j, 2 ** (k - e - 1)) if up else F(2 ** (k - 1), 2 ** (k - e) - j)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=-75, max_value=75),
    st.sampled_from([3, 5]),
    st.sampled_from([-9, -8, -7, -6, 6, 7, 8, 9]),
    st.tuples(st.booleans(), st.sampled_from([1, 3]), st.integers(min_value=3, max_value=60)),
    st.tuples(st.booleans(), st.sampled_from([1, 3]), st.integers(min_value=3, max_value=60)),
)
# one less in either radius decides these wrongly
@example(-3, 3, -6, (False, 1, 30), (True, 1, 30))
@example(-3, 5, 8, (True, 1, 30), (False, 1, 30))
def test_bit_length_gate_at_its_radius(base, e, target, xc, yc):
    # q log2 y - e log2 x estimated at exactly ``target`` from bit lengths,
    # with both ends in the corners where the estimate is worst
    ex = 4 * base + (-target * e) % 4  # 3 and 5 are their own inverses mod 4
    ey = (e * ex + target) // 4
    x, y = _corner(ex, *xc), _corner(ey, *yc)
    assert seqbuild._regular_step(x, y) == _power_gate(x, y)


def reference_missed_band(u, Q, r, eps, h):
    """The band forms the build row checked before it kept ratio_u and
    ratio_res: u*u <= lam Q*Q and Q*Q <= lam u*u, then |r|**2 against eps**2
    and mu eps**2."""
    lam, mu = 1 + h, 1 + 2 * h
    if not (u * u <= lam * Q * Q and Q * Q <= lam * u * u):
        return "coefficient"
    a = r.abs()
    if not ((a * a * mu).ge_certain(eps**2) and (a * a).le_certain(mu * eps**2)):
        return "residual"
    return None


near_edge = st.fractions(min_value=F(-6, 5), max_value=F(6, 5), max_denominator=1000)


@settings(deadline=None, max_examples=300)
@given(
    st.fractions(min_value=2, max_value=10**6, max_denominator=1000),
    near_edge,
    st.fractions(min_value=F(1, 10**6), max_value=F(999, 1000), max_denominator=10**6),
    near_edge,
    st.fractions(min_value=0, max_value=F(1, 100), max_denominator=1000),
    st.booleans(),
    st.fractions(min_value=F(1, 1000), max_value=F(1, 2), max_denominator=1000),
)
# on the edges: (11/10)**2 = 1 + 21/100 and (6/5)**2 = 1 + 2 (11/50)
@example(F(10), F(20, 21), F(1, 10), F(0), F(0), False, F(21, 100))
@example(F(10), F(0), F(1, 10), F(10, 11), F(0), True, F(11, 50))
@example(F(10), F(0), F(1, 10), F(-25, 33), F(0), False, F(11, 50))
def test_bands_on_the_ratios_match_the_squared_forms(Q, s_u, eps, s_r, width, negative, h):
    # u / Q and |r| / eps near 1 + s h / 2 and 1 + s h, about s times their
    # bands' half-widths, so both sides of each edge are drawn
    u = max(1, floor(Q * (1 + s_u * h / 2)))
    lo = eps * (1 + s_r * h)
    r = Enclosure(lo, lo + eps * width * h)
    r = -r if negative else r
    got = seqbuild._missed_band(F(u) / Q, r.abs() / eps, h)
    assert got == reference_missed_band(u, Q, r, eps, h)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=-1, max_value=10**6))
@example(-1)
@example(6)
@example(10**6)
def test_eta_rule_reads_the_log_integers(n):
    ln_hi = ln_frac(n + 3, 96).hi
    want = min(seqbuild.ETA_MAX, dyadic_below(1 / ln_hi, seqbuild.ETA_GRID_BITS))
    assert seqbuild.EtaSchedule().value(n) == want


above_one = st.one_of(
    st.fractions(min_value=1, max_value=10**6, max_denominator=10**6).filter(lambda x: x > 1),
    st.integers(min_value=1, max_value=300).map(lambda k: 1 + F(1, 2**k)),
)


@settings(deadline=None, max_examples=200)
@given(above_one, above_one)
@example(F(3), 1 + F(1, 2**150))
def test_steepness_bound_is_the_96_bit_quotient_where_that_exists(x, y):
    ln_y = ln_frac(y, 96)
    got = F(*seqbuild._ln_ratio_hi(x, y))
    if ln_y.lo > 0:
        assert got == ln_frac(x, 96).hi / ln_y.lo
        return
    with mpmath.workprec(1024):
        def mp(z):
            return mpmath.mpf(z.numerator) / z.denominator

        assert mp(got) >= mpmath.log(mp(x)) / mpmath.log(mp(y))


# The build on integers: each check of the row, its bands, the rate
# precheck, the rates and the density against the Fraction formula it replaced

def reference_row(rates, eta, n):
    """(Q_n, eps_n, LemmaParams) of row n as the build computed them in
    Fractions; the LemmaParams are None where Q_n / sqrt(1 + eta) <= 1."""
    Q, eps = (rates.beta**n, rates.alpha**n) if rates.table is None else rates.table[n]
    lam, mu = 1 + eta, 1 + 2 * eta
    band_Q = Q / sqrt_lower(lam, 64)
    if band_Q <= 1:
        return Q, eps, None
    shrink = seqbuild.SHRINK
    return Q, eps, LemmaParams(lam * shrink, mu * shrink, eps / sqrt_lower(mu, 64), band_Q)


class _Solved(Exception):
    pass


def row_params(rates, eta, n):
    """The LemmaParams the build row hands its solve at index n under
    mu_upper = 1 + 10**-9, so the precheck passes; None where the row refuses Q_n."""
    seen = []

    def solve(oracle, params):
        seen.append(params)
        raise _Solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqbuild, "solve_disjunction", solve)
        try:
            seqbuild.build_sequence(SqrtOracle(2, "sqrt2"), 1 + F(1, 10**9), rates, [n],
                                    seqbuild.EtaSchedule({n: eta}))
        except _Solved:
            return seen[0]
        except PreconditionError as err:
            assert "is too small for its band" in str(err)
            return None


@st.composite
def build_rows(draw):
    """(rates, n, eta): a geometric spec, or a one-row table whose Q_n /
    sqrt(1 + eta) is anywhere, or just below, at or just above 1; eta from
    the default rule or not dyadic."""
    eta = draw(st.one_of(
        st.fractions(F(1, 1000), F(499, 1000), max_denominator=1000),
        st.integers(-1, 10**6).map(seqbuild.EtaSchedule().value),
    ))
    kind = draw(st.sampled_from(["geometric", "table", "edge"]))
    if kind == "geometric":
        alpha = draw(st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000))
        beta = draw(st.fractions(F(1001, 1000), 1000, max_denominator=1000))
        return seqbuild.RateSpec(alpha, beta), draw(st.integers(-3, 40)), eta
    eps = draw(st.fractions(F(1, 10**6), F(999999, 10**6), max_denominator=10**6))
    if kind == "table":
        Q = draw(st.fractions(F(1001, 1000), 10**6, max_denominator=1000))
    else:
        Q = sqrt_lower(1 + eta, 64) * (1 + draw(st.sampled_from([-1, 0, 1])) * F(1, 2**70))
    n = draw(st.integers(0, 100))
    return seqbuild.RateSpec(table={n: (Q, eps)}), n, eta


@settings(deadline=None, max_examples=300)
@given(build_rows())
def test_row_on_integers_matches_the_fraction_row(row):
    rates, n, eta = row
    Q, eps, want = reference_row(rates, eta, n)
    assert rates.targets(n) == (Q.as_integer_ratio(), eps.as_integer_ratio())
    assert row_params(rates, eta, n) == want


@st.composite
def prechecks(draw):
    """(alpha, beta, mu_upper, slack) with the slack anywhere, or putting the
    bound just below, on or just above the steepness bound's ratio."""
    alpha = draw(st.fractions(F(1, 10**6), F(999, 1000), max_denominator=10**6))
    beta = draw(st.one_of(
        st.fractions(F(1001, 1000), 10**6, max_denominator=1000),
        st.integers(1, 200).map(lambda k: 1 + F(1, 2**k)),
    ))
    mu_upper = draw(st.fractions(F(1001, 1000), 4, max_denominator=1000))
    ratio = F(*seqbuild._ln_ratio_hi(1 / alpha, beta))
    on_edge = st.sampled_from([-1, 0, 1]).map(lambda e: ratio - 1 / (mu_upper - 1) + e * F(1, 10**40))
    return alpha, beta, mu_upper, draw(st.one_of(st.fractions(-2, 2, max_denominator=1000), on_edge))


@settings(deadline=None, max_examples=300)
@given(prechecks(), st.booleans())
def test_rate_precheck_on_integers_matches_the_fraction_bound(case, table):
    alpha, beta, mu_upper, slack = case
    rates = seqbuild.RateSpec(table={1: (beta, alpha)}) if table else seqbuild.RateSpec(alpha, beta)
    ratio, bound = F(*seqbuild._ln_ratio_hi(1 / alpha, beta)), 1 / (mu_upper - 1) + slack
    try:
        seqbuild._rate_precheck(rates, [1], mu_upper, slack)
    except RateViolation as err:
        assert ratio > bound
        assert f"~ {float(ratio):.4f} exceeds 1/(mu_upper-1) + {slack} = {float(bound):.4f}" in str(err)
    else:
        assert ratio <= bound


def reference_estimate_limit(values, ns, positions):
    """_estimate_limit as it read the mids and the width in Fractions."""
    if len(positions) >= 3:
        a, b, c = positions[-3:]
        x0, x1 = values[b] / values[a], values[c] / values[b]
        m0, m1 = x0.mid, x1.mid
        if m1 > 0 and abs(m1 - m0) <= m1 / 64 and x1.width <= m1 / 64:
            n0, n1 = ns[b], ns[c]
            return ((x1 * n1) - (x0 * n0)) * F(1, n1 - n0), "ratio-richardson"
    p0, p1 = positions[0], positions[-1]
    return root_enclosure(values[p1] / values[p0], ns[p1] - ns[p0], 64), "ratio-geomean"


@st.composite
def limit_windows(draw):
    """Three positive values: any, or with points v0 = 1 and v1 = m0 and v2 =
    m0 x1, so that x0 = m0 and x1 lie just inside, on or just outside
    |m1 - m0| <= m1/64 and width(x1) <= m1/64."""
    if draw(st.booleans()):
        los = draw(st.lists(st.fractions(F(1, 1000), 1000, max_denominator=1000), min_size=3, max_size=3))
        widths = draw(st.lists(st.fractions(0, F(1, 10), max_denominator=10**6), min_size=3, max_size=3))
        return [Enclosure(lo, lo + w) for lo, w in zip(los, widths)]
    m1 = draw(st.fractions(F(1, 100), 100, max_denominator=1000))
    tiny = F(1, 10**30)
    gap = m1 / 64 + draw(st.sampled_from([-1, 0, 1])) * tiny
    m0 = m1 + draw(st.sampled_from([-1, 1])) * draw(st.one_of(st.just(gap), st.fractions(0, m1 / 16)))
    w = m1 / 64 + draw(st.sampled_from([-1, 0, 1])) * tiny
    x1 = Enclosure(m1 - w / 2, m1 + w / 2)
    return [Enclosure.point(1), Enclosure.point(m0), x1 * m0]


@settings(deadline=None, max_examples=300)
@given(limit_windows(), st.lists(st.integers(1, 5), min_size=2, max_size=2), st.integers(-5, 50))
def test_stability_test_on_integers_matches_the_fraction_one(values, gaps, n0):
    ns = [n0, n0 + gaps[0], n0 + gaps[0] + gaps[1]]
    got = seqbuild._estimate_limit(values, ns, [0, 1, 2])
    assert got == reference_estimate_limit(values, ns, [0, 1, 2])


def reference_density(us, dists):
    """(alpha_xi, beta_u, nu_estimate) as density_data took them in Fractions."""
    alpha = max((b / a).hi for a, b in zip(dists, dists[1:]))
    beta = max(F(b, a) for a, b in zip(us, us[1:]))
    prod = alpha * beta
    return alpha, beta, ln_frac(prod, 96).hi / 2 if prod != 1 else F(0)


DENSITY_ORACLES = IRRATIONALS + (RationalOracle(F(2, 7)), RationalOracle(F(5, 11)))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(DENSITY_ORACLES), st.integers(1, 10**6),
       st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=2, max_size=6))
def test_density_maxima_on_integers_match_the_fractions(oracle, u0, mults):
    # multipliers from a few small ones tie the u ratios, and a repeated u
    # over a rational value ties the distance ratios at 1, so prod = 1
    us = [u0 * m for m in sorted(mults)]
    try:
        dd = seqbuild.density_data(us, oracle)
    except (ZeroResidual, HalfInteger):
        assume(False)
    assert (dd.alpha_xi, dd.beta_u, dd.nu_estimate) == reference_density(us, dd.distances)


def reference_nearest_int(oracle, u, accept=None):
    """nearest_int as it rounded with Fraction(1, 2) and an Enclosure add."""
    half = F(1, 2)

    def step(k):
        enc = oracle.enclose(k) * u
        m = (enc + half).floor_unique()
        if m is None:
            return None
        dist = (enc - m).abs()
        if dist.is_point() and 2 * dist.l == dist.d:
            raise HalfInteger("exactly half-integral")
        return (m, dist) if accept is None or dist.is_point() or accept(dist) else None

    return refine(step, "undecided")


class TouchingOracle(RealOracle):
    """The rational ``value`` as one end of every enclosure: [v, v + 2**-k]
    when ``side`` > 0, else [v - 2**-k, v]."""

    def __init__(self, value, side):
        super().__init__()
        self.value, self.side, self.spec = value, side, f"touching {value}"

    def _raw(self, k):
        w = F(1, 1 << k)
        return Enclosure(self.value, self.value + w) if self.side > 0 else Enclosure(self.value - w, self.value)


def _outcome(f, *args):
    try:
        return f(*args)
    except DiophError as err:
        return type(err), err.code


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 10**6),
    st.sampled_from([1, -1]),
    st.integers(-50, 50),
    st.sampled_from([-1, 0, 1]),
    st.fractions(-10, 10, max_denominator=1000),
    st.booleans(),
)
def test_nearest_int_rounds_on_integers_as_with_a_half(u, sign, k, side, x, separated_only):
    # on the irrationals, a rational x, and (2k + 1)/(2u), whose product with
    # u is exactly a half-integer: the point itself (side 0), or an end of
    # every enclosure, which then never decides on the side below
    u *= sign
    accept = is_separated if separated_only else None
    edge = F(2 * k + 1, 2 * u)
    makers = [lambda o=o: parse_oracle(o.spec) for o in IRRATIONALS] + [
        lambda: RationalOracle(x),
        lambda: TouchingOracle(edge, side) if side else RationalOracle(edge),
    ]
    token = PRECISION_CAP.set(2048)
    try:
        for make in makers:
            assert _outcome(nearest_int, make(), u, accept) == _outcome(reference_nearest_int, make(), u, accept)
    finally:
        PRECISION_CAP.reset(token)


# One log quotient: certlog.ln_quotient against mpmath, and each site that
# reads it against the formula it replaced, kept here as the reference

# integers of 1 to 10**4 bits, each length about equally likely
wide_ints = st.integers(min_value=1, max_value=10**4).flatmap(
    lambda b: st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1)
)
at_least_one = st.one_of(
    st.builds(lambda a, b: F(max(a, b), min(a, b)), wide_ints, wide_ints),
    st.builds(lambda b, s: 1 + F(s, 1 << b), st.integers(1, 10**4), st.integers(1, 3)),
    st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
)


def _mp_ln(x):
    """ln x for a rational x >= 1 as log1p((n - d)/d), to the working
    precision relative to ln x even within 2**-(10**4) of 1."""
    return mpmath.log1p(mpmath.mpf(x.numerator - x.denominator) / x.denominator)


@settings(deadline=None, max_examples=300)
@given(at_least_one, at_least_one.filter(lambda y: y > 1), st.booleans())
@example(F(3), 1 + F(1, 2**150), True)
@example(F(1), F(3), False)
@example(F(2**10000 + 1, 2**10000), F(2**9999 + 1, 2**9999), True)
def test_ln_quotient_is_directed(x, y, up):
    # mpmath at 4 * 96 bits is off by a relative 2**-370 or less, far inside
    # the 2**-96 enclosures' own spread
    num, den = ln_frac(x, LOG_BITS), ln_frac(y, LOG_BITS)
    got = ln_quotient(num, den, up)
    if (den.lo if up else den.hi) <= 0:
        assert got is None
        return
    p, q = got
    assert q > 0 and F(p, q) == (num.hi / den.lo if up else num.lo / den.hi)
    with mpmath.workprec(4 * LOG_BITS):
        ratio = _mp_ln(x) / _mp_ln(y)
        bound, slack = mpmath.mpf(p) / q, abs(ratio) * mpmath.mpf(2) ** -360
        assert bound >= ratio - slack if up else bound <= ratio + slack


def reference_ln_ratio_hi(x, y):
    ln_x = ln_frac(x, 96)

    def step(k):
        ln_y = ln_frac(y, k)
        return (ln_x.h * ln_y.d, ln_x.d * ln_y.l) if ln_y.l > 0 else None

    ratio = step(96)
    return ratio if ratio is not None else refine(step, "ln(y) not certified positive", start=192)


@settings(deadline=None, max_examples=200)
@given(above_one, above_one)
@example(F(3), 1 + F(1, 2**150))
@example(F(10**6), 1 + F(1, 2**300))
def test_steepness_pair_is_the_old_formula(x, y):
    assert seqbuild._ln_ratio_hi(x, y) == reference_ln_ratio_hi(x, y)


def reference_tau_hat(alpha_hat, beta_hat):
    ln_a = ln_frac(F(alpha_hat.denominator, alpha_hat.numerator), 96)
    ln_b = ln_frac(beta_hat, 96)
    return F(ln_a.l * ln_b.d, ln_a.d * ln_b.h)


@settings(deadline=None, max_examples=150)
@given(
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    st.integers(2, 60),
    st.lists(st.fractions(min_value=0, max_value=F(1, 4), max_denominator=64), min_size=4, max_size=12),
    st.lists(st.integers(0, 3), min_size=12, max_size=12),
)
def test_tau_hat_is_the_old_formula(alpha, beta, noise, lift):
    # residuals alpha**n (1 + e_n) and heights beta**n + h_n: tau_hat is the
    # old formula on the rates the window returns wherever the gates pass
    ns = list(range(len(noise)))
    res = [Enclosure.point(alpha**n * (1 + e)) for n, e in zip(ns, noise)]
    heights = [beta**n + h for n, h in zip(ns, lift)]
    rate = seqbuild._measure_core(ns, res.__getitem__, heights.__getitem__, None, None, None)
    gated = rate.decayed and rate.regular and rate.alpha_enclosure.strictly_lt(1) and rate.beta_enclosure.strictly_gt(1)
    assert rate.tau_hat == (reference_tau_hat(rate.alpha_hat, rate.beta_hat) if gated else 0)


def reference_omega_point(dist_hi, q):
    if dist_hi >= 1:
        return F(0)
    return ln_frac(1 / dist_hi, 96).lo / ln_frac(q, 96).hi


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.fractions(min_value=F(1, 10**6), max_value=2, max_denominator=10**6),
        st.integers(1, 4000).map(lambda b: F(1, 2**b)),
        st.integers(1, 4000).map(lambda b: 1 - F(1, 2**b)),
    ),
    st.one_of(st.integers(2, 10**6), st.integers(2, 10**300)),
)
def test_omega_point_is_the_old_formula(dist_hi, q):
    assert multiform._omega_point(dist_hi, q) == reference_omega_point(dist_hi, q)


def reference_mu_estimate(oracle, depth):
    cf = expand(oracle, depth)
    n = len(cf.quotients)
    best, best_k = None, None
    qs = [q for _, q in convergent_pairs(cf.quotients)]
    for k, (qk, qk1) in enumerate(zip(qs, qs[1:])):
        if k < n // 2 or qk < 2:
            continue
        ratio = 1 + ln_frac(qk1, 96).lo / ln_frac(qk, 96).hi
        if best is None or ratio > best:
            best, best_k = ratio, k
    return MuEstimate(F(2) if best is None else best, depth, best_k)


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.sampled_from([o.spec for o in IRRATIONALS] + ["cf:liouville:2", "cf:liouville:5"]),
        st.builds(
            lambda a0, pre, block: f"cf:[{a0};{','.join(map(str, [1, *pre]))}]+periodic:[{','.join(map(str, block))}]",
            st.integers(0, 5),
            st.lists(st.integers(1, 9), max_size=4),
            st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**6)), min_size=1, max_size=4),
        ),
    ),
    st.integers(2, 80),
)
@example("cf:[0;1]+periodic:[1]", 2)
def test_mu_estimate_is_the_old_formula(spec, depth):
    if spec.startswith("cf:liouville"):
        depth = min(depth, 7)
    assert mu_estimate(parse_oracle(spec), depth) == reference_mu_estimate(parse_oracle(spec), depth)
