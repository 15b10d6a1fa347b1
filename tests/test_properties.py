from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from dioph import multiform
from dioph.contfrac import expand
from dioph.dichotomy import (
    LemmaParams,
    _residue_hits,
    find_fractional_hit,
    solve_disjunction,
)
from dioph.enclosure import Enclosure, dyadic_above, dyadic_below, sqrt_enclosure
from dioph.errors import NeitherCaseCertified
from dioph.multiform import PointVec, dirichlet_witness, omega0_search
from dioph.certlog import _atanh_fixed, _ln2_fixed, ln_frac
from dioph.oracle import (
    CATALOG,
    AffineOracle,
    CFOracle,
    GoldenOracle,
    RationalOracle,
    SqrtOracle,
    _certified_prefix,
    extend_convergents,
    parse_oracle,
    parse_rational,
)
from test_dichotomy import _brute_case_ii, direct_hit
from test_multiform import brute_dirichlet, brute_omega0, brute_records

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


def _fraction_ln_frac(x, k):
    """Reference: the reduction of ln_frac done in Fraction arithmetic."""
    f = F(x)
    e = f.numerator.bit_length() - f.denominator.bit_length()
    m = f / F(2) ** e
    if m >= 2:
        e += 1
        m /= 2
    elif m < 1:
        e -= 1
        m *= 2
    w = k + 32 + abs(e).bit_length()
    lo2, hi2 = _ln2_fixed(w)
    scale = F(1, 1 << w)
    out = Enclosure(lo2 * scale, hi2 * scale) * e
    if m != 1:
        z = (m - 1) / (m + 1)
        alo, ahi = _atanh_fixed(z.numerator, z.denominator, w)
        out = out + Enclosure(2 * alo * scale, 2 * ahi * scale)
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


@settings(deadline=None, max_examples=300)
@given(log_args, st.sampled_from([64, 96, 200]))
def test_integer_ln_frac_matches_fraction_reduction(x, k):
    assert ln_frac(x, k) == _fraction_ln_frac(x, k)


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
        assert (res.witness.q, res.witness.p) == expect
    else:
        assert expect is None


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
    for q in _residue_hits(a, m, q_lo, q_lo + span, lambda q: window(len(hits))):
        hits.append(q)
    assert hits == _brute_residue_hits(a, m, q_lo, q_lo + span, window)


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
    cap = multiform._omega_cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiform, "_omega_cap", lambda M, e, q: cap(M, e, q) + q * loosen % 7)
        assert omega0_search(point, q_bound) == report


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
