from fractions import Fraction as F

import pytest

from dioph.contfrac import Convergent, convergents, expand, mu_estimate
from dioph.errors import Degenerate, Inconclusive, Unrepresentable
from dioph.oracle import (
    CATALOG,
    AffineOracle,
    CFOracle,
    GoldenOracle,
    RationalOracle,
    SqrtOracle,
    parse_oracle,
)

SQRT2 = SqrtOracle(2, "sqrt2")


def test_sqrt2_prefix():
    cf = expand(SQRT2, 5)
    assert cf.quotients == (1, 2, 2, 2, 2, 2)
    assert not cf.terminated


def test_depth_counts_quotients_after_a0():
    assert len(expand(SQRT2, 0).quotients) == 1
    assert len(expand(SQRT2, 12).quotients) == 13


def test_known_catalog_prefixes():
    assert expand(CATALOG["zeta3"](), 10).quotients == (1, 4, 1, 18, 1, 1, 1, 4, 1, 9, 9)
    assert expand(CATALOG["zeta2"](), 10).quotients == (1, 1, 1, 1, 4, 2, 4, 7, 1, 4, 2)
    assert expand(CATALOG["e"](), 10).quotients == (2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1)
    assert expand(CATALOG["log2"](), 10).quotients == (0, 1, 2, 3, 1, 6, 3, 1, 1, 2, 1)
    assert expand(GoldenOracle(), 6).quotients == (1,) * 7


def _e_quotients(n):
    # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]: 1, 2k, 1 repeating after a_0
    tail = [2 * (j // 3 + 1) if j % 3 == 1 else 1 for j in range(n - 1)]
    return (2, *tail)


DEEP = 320
KNOWN_PATTERNS = [
    ("const:e", _e_quotients(DEEP + 1)),
    ("const:sqrt2", (1,) + (2,) * DEEP),
    ("const:sqrt3", (1,) + (1, 2) * (DEEP // 2)),
    ("const:sqrt5", (2,) + (4,) * DEEP),
    ("const:golden", (1,) * (DEEP + 1)),
]


@pytest.mark.parametrize("spec,quotients", KNOWN_PATTERNS)
def test_deep_known_patterns(spec, quotients):
    assert expand(parse_oracle(spec), DEEP).quotients == quotients


def test_short_lived_oracles_get_their_own_quotients():
    # each oracle is freed before the next is built, so an allocator that
    # reuses addresses would expose any cache keyed by object identity
    for s in range(-20, 20):
        cf = expand(AffineOracle(1, -s, SQRT2), 30)
        assert cf.quotients == (1 - s,) + (2,) * 30


def test_rational_expansion_terminates():
    cf = expand(RationalOracle(F(22, 7)), 10)
    assert cf.quotients == (3, 7)
    assert cf.terminated
    cf = expand(RationalOracle(F(-22, 7)), 10)
    assert cf.quotients == (-4, 1, 6)
    assert cf.terminated
    assert expand(RationalOracle(F(5)), 3).quotients == (5,)


def test_rational_round_trip():
    # value -> canonical quotients -> value
    cf = expand(RationalOracle(F(87, 32)), 10)
    assert cf.quotients == (2, 1, 2, 1, 1, 4)
    assert CFOracle(cf.quotients).exact_value() == F(87, 32)


def test_finite_cf_partial_depth():
    o = CFOracle((2, 1, 2, 1, 1, 4))
    cf = expand(o, 3)
    assert cf.quotients == (2, 1, 2, 1)
    assert not cf.terminated
    assert expand(o, 5).terminated


def test_sqrt2_convergents():
    cons = convergents(expand(SQRT2, 5))
    assert [(c.p, c.q) for c in cons] == [
        (1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70),
    ]
    assert cons[3].value == F(17, 12)
    assert cons[3].index == 3


def test_convergent_identities():
    cons = convergents(expand(CATALOG["zeta3"](), 20))
    for k in range(1, len(cons)):
        a, b = cons[k - 1], cons[k]
        assert a.p * b.q - b.p * a.q == (-1) ** k
        assert b.q > a.q or k == 1
    # consecutive convergents straddle the value
    enc = CATALOG["zeta3"]().enclose(128)
    for k in range(1, len(cons)):
        lo, hi = sorted((cons[k - 1].value, cons[k].value))
        assert lo < enc.lo and enc.hi < hi


def test_expand_rejects_negative_depth():
    with pytest.raises(Degenerate):
        expand(SQRT2, -1)


def test_expand_cap_exhaustion(precision_cap):
    precision_cap(64)
    with pytest.raises(Inconclusive):
        expand(CATALOG["e"](), 40)


def test_liouville_expansion_supply():
    liou = CFOracle(None, liouville_base=10)
    cf = expand(liou, 8)
    assert len(cf.quotients) == 9
    assert cf.quotients[:4] == (0, 10, 100, 1000000)
    with pytest.raises(Unrepresentable):
        expand(liou, 9)


# Frozen exponent estimates; deterministic to the last bit, compared as floats.
MU_FROZEN = [
    ("const:golden", 50, 2.0411053659396656, 25),
    ("const:sqrt2", 30, 2.067474833220729, 15),
]


@pytest.mark.parametrize("spec,depth,mu,witness", MU_FROZEN)
def test_mu_estimate_frozen(spec, depth, mu, witness):
    est = mu_estimate(parse_oracle(spec), depth)
    assert est.depth == depth
    assert est.witness_index == witness
    assert abs(float(est.mu_lower) - mu) < 1e-12


def test_mu_estimate_is_lower_bound_near_two():
    # quadratic irrationals have exponent exactly 2; the ladder stays above
    for spec in ("const:golden", "const:sqrt2"):
        est = mu_estimate(parse_oracle(spec), 120)
        assert F(2) < est.mu_lower < F(21, 10)


def test_mu_estimate_liouville():
    est = mu_estimate(CFOracle(None, liouville_base=10), 6)
    assert abs(float(est.mu_lower) - 6.705869001750515) < 1e-12
    assert est.mu_lower > 5
    assert est.witness_index == 5


def test_mu_estimate_degenerate_inputs():
    with pytest.raises(Degenerate):
        mu_estimate(SQRT2, 1)
    with pytest.raises(Degenerate):
        mu_estimate(RationalOracle(F(22, 7)), 10)


def test_convergent_value_property():
    c = Convergent(17, 12, 3)
    assert c.value == F(17, 12)
