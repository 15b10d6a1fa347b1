"""Numbers enter through one door.

Every public entry reads its numbers through ``enclosure.as_rational`` or
``enclosure.as_integer``: an int, a Fraction or a finite float is read
exactly, an integer parameter also takes an integral value such as 2.0, and
anything else (a string, an infinite or NaN float, 5/2 where an integer is
needed) raises the entry's PreconditionError code, never a bare ValueError,
TypeError, OverflowError or AttributeError, and is never taken silently.
"""

import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from dioph import enclosure, oracle as oracle_mod
from dioph.contfrac import expand, mu_estimate
from dioph.dichotomy import LemmaParams, find_fractional_hit
from dioph.enclosure import Enclosure
from dioph.errors import PreconditionError
from dioph.multiform import (
    FormSequence,
    LinearForm,
    PointVec,
    apery_forms,
    nesterenko_report,
    tau_empirical,
)
from dioph.oracle import AffineOracle, CFOracle, RationalOracle, SqrtOracle, parse_oracle
from dioph.seqbuild import (
    EtaSchedule,
    RateSpec,
    build_sequence,
    lemma1_bound,
)

SQRT2 = SqrtOracle(2, "sqrt2")
ONE = RationalOracle(1, spec="rat:1")
GEOMETRIC = RateSpec.geometric(F(1, 2), 3)
MU = F(21, 10)
APERY = apery_forms(3, 12)
FORMS = (LinearForm((-1, 1)), LinearForm((-3, 2)), LinearForm((-7, 5)))


def _forms(ns=(0, 1, 2), scales=None, power=None):
    return FormSequence(ns, FORMS, PointVec((ONE, SQRT2)), scales, power)


# (entry, code, whether an integer is needed, make(x)); before the one door
# every entry took at least one of the bad values silently or raised a bare
# error on it. The entries that already refused them all (measure_rates,
# density_data, the search bounds, apery_forms, LinearForm, table rows other
# than Q) are tested in their own modules.
ENTRIES = [
    ("build_sequence n_range", "BAD_PARAMS", True, lambda x: build_sequence(SQRT2, MU, GEOMETRIC, [5, x, 7])),
    ("build_sequence rate_slack", "BAD_PARAMS", False,
     lambda x: build_sequence(SQRT2, MU, GEOMETRIC, [5], rate_slack=x)),
    ("nesterenko_report slack", "BAD_PARAMS", False, lambda x: nesterenko_report(APERY, 50, slack=x)),
    ("CFOracle quotient", "BAD_CF", True, lambda x: CFOracle([0, x, 2])),
    ("CFOracle periodic quotient", "BAD_CF", True, lambda x: CFOracle([1], periodic=[2, x])),
    ("CFOracle liouville_base", "BAD_CF", True, lambda x: CFOracle(None, liouville_base=x)),
    ("CFOracle liouville_cap", "BAD_CF", True, lambda x: CFOracle(None, liouville_base=2, liouville_cap=x)),
    ("RationalOracle", "BAD_RATIONAL", False, RationalOracle),
    ("AffineOracle scale", "BAD_AFFINE", False, lambda x: AffineOracle(x, 0, SQRT2)),
    ("AffineOracle shift", "BAD_AFFINE", False, lambda x: AffineOracle(1, x, SQRT2)),
    ("lemma1_bound alpha_hat", "BAD_PARAMS", False, lambda x: lemma1_bound(x, 3)),
    ("lemma1_bound beta_hat", "BAD_PARAMS", False, lambda x: lemma1_bound(F(1, 2), x)),
    ("find_fractional_hit q_lo", "BAD_PARAMS", False,
     lambda x: find_fractional_hit(SQRT2, x, 10, F(1, 4), F(1, 2))),
    ("find_fractional_hit q_hi", "BAD_PARAMS", False,
     lambda x: find_fractional_hit(SQRT2, 1, x, F(1, 4), F(1, 2))),
    ("find_fractional_hit t_lo", "BAD_WINDOW", False,
     lambda x: find_fractional_hit(SQRT2, 1, 10, x, F(1, 2))),
    ("find_fractional_hit t_hi", "BAD_WINDOW", False,
     lambda x: find_fractional_hit(SQRT2, 1, 10, F(1, 4), x)),
    ("expand depth", "BAD_PARAMS", True, lambda x: expand(SQRT2, x)),
    ("mu_estimate depth", "BAD_PARAMS", True, lambda x: mu_estimate(SQRT2, x)),
    ("FormSequence ns", "BAD_FORM", True, lambda x: _forms(ns=(0, x, 2))),
    ("FormSequence scales", "BAD_FORM", True, lambda x: _forms(scales=(1, x, 1))),
    ("FormSequence scale_e_power", "BAD_FORM", True, lambda x: _forms(power=x)),
    ("PointVec coordinate", "BAD_POINT", False, lambda x: PointVec((ONE, x))),
    ("tau_empirical window start", "BAD_PARAMS", True, lambda x: tau_empirical(APERY, window=(x, 12))),
    ("tau_empirical window end", "BAD_PARAMS", True, lambda x: tau_empirical(APERY, window=(2, x))),
    ("LemmaParams Q", "BAD_PARAMS", False, lambda x: LemmaParams(F(3, 2), F(19, 10), F(1, 10), x)),
    ("RateSpec.geometric beta", "BAD_PARAMS", False, lambda x: RateSpec.geometric(F(1, 2), x)),
    ("build_sequence mu_upper", "BAD_PARAMS", False, lambda x: build_sequence(SQRT2, x, GEOMETRIC, [5])),
    ("RateSpec.from_table Q", "BAD_PARAMS", False, lambda x: RateSpec.from_table([(1, x, F(1, 2))])),
    ("RateSpec.targets n", "BAD_PARAMS", True, lambda x: GEOMETRIC.targets(x)),
    ("EtaSchedule.value n", "BAD_PARAMS", True, lambda x: EtaSchedule().value(x)),
    ("Enclosure lo", "BAD_PARAMS", False, lambda x: Enclosure(x, 10)),
    ("Enclosure hi", "BAD_PARAMS", False, lambda x: Enclosure(-10, x)),
]

BAD = {"nan": math.nan, "inf": math.inf, "5/2": F(5, 2), "string": "5"}


@pytest.mark.parametrize("name,code,make,bad", [
    pytest.param(name, code, make, value, id=f"{name}-{label}")
    for name, code, integer, make in ENTRIES
    for label, value in BAD.items()
    if integer or label != "5/2"
])
def test_each_entry_refuses_what_is_not_its_number(name, code, make, bad):
    with pytest.raises(PreconditionError) as info:
        make(bad)
    assert info.value.code == code


def test_integral_values_are_read_as_ints():
    assert CFOracle([0, 2.0, F(3)]).spec == "cf:[0;2,3]"
    liouville = CFOracle(None, liouville_base=F(3), liouville_cap=4.0)
    assert (liouville.liouville_base, liouville.liouville_cap) == (3, 4)
    assert type(liouville.liouville_base) is int and liouville.spec == "cf:liouville:3"
    assert expand(SQRT2, 3.0) == expand(SQRT2, 3)
    seq = _forms(ns=(0.0, F(1), 2), power=F(2))
    assert seq.ns == (0, 1, 2) and all(type(n) is int for n in seq.ns)
    assert seq.scale_e_power == 2 and type(seq.scale_e_power) is int
    got = build_sequence(SQRT2, MU, GEOMETRIC, [5.0, F(6)])
    assert [e.n for e in got.entries] == [5, 6]
    assert got.entries == build_sequence(SQRT2, MU, GEOMETRIC, [5, 6]).entries


def test_rationals_are_read_exactly():
    # a float is read exactly, as its own binary fraction
    assert RationalOracle(0.1).value == F(0.1) != F(1, 10)
    assert Enclosure(0.5, 1) == Enclosure(F(1, 2), 1) and Enclosure(0.1, 1).lo == F(0.1)
    assert AffineOracle(0.5, 0.25, SQRT2).spec == "affine:1/2/1/4:const:sqrt2"
    assert RationalOracle(3).value == 3 and type(RationalOracle(3).value) is F


def test_cf_spec_hands_ints_and_a_list_of_ints_is_checked_in_one_pass(monkeypatch):
    assert oracle_mod._parse_cf_body("[0;1,22,3]") == [0, 1, 22, 3]
    assert all(type(a) is int for a in oracle_mod._parse_int_list("[4,5]"))

    def per_entry(*args):
        raise AssertionError("a list of ints was converted entry by entry")

    monkeypatch.setattr(enclosure, "as_integer", per_entry)
    quotients = [0] + [7] * 40
    assert parse_oracle("cf:[0;" + ",".join(["7"] * 40) + "]")._prefix == quotients
    assert CFOracle(quotients, periodic=[1, 2])._prefix == quotients


@pytest.mark.parametrize("spec", [
    "cf:[0;" + "1" * 5000 + "]",
    "cf:[0;1]+periodic:[" + "2" * 5000 + "]",
], ids=["prefix", "periodic"])
def test_a_quotient_past_the_int_digit_limit_is_bad_cf(spec):
    # int() raised a bare ValueError; the CLI lifts the limit and prints it in full
    with pytest.raises(PreconditionError, match="digit int limit") as info:
        parse_oracle(spec)
    assert info.value.code == "BAD_CF"


def test_apery_scales_stay_ints():
    seq = apery_forms(3, 40)
    assert all(type(s) is int for s in seq.scales)
    assert seq.scales[:4] == (2, 2, 16, 432)
    # a scale is an int: an integral float or Fraction is read as one, 5/2 is refused
    assert _forms(scales=(1, 2.0, F(7))).scales == (1, 2, 7)
    with pytest.raises(PreconditionError) as info:
        _forms(scales=(1, F(5, 2), 1))
    assert info.value.code == "BAD_FORM"


CONVERTERS = {"as_rational", "as_integer", "as_integers"}
RETIRED = {"_frac", "_param", "_integer"}


def test_outside_numbers_have_one_door():
    """The converters are defined in enclosure.py alone, the retired names
    ``_frac``, ``_param`` and ``_integer`` appear nowhere in src/, and every
    module that imports a converter imports it from enclosure, none from
    dichotomy."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    defined, names, sources = set(), set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                if node.name in CONVERTERS | RETIRED:
                    defined.add((path.name, node.name))
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
                if CONVERTERS & {a.name for a in node.names}:
                    sources.add(node.module)
            names.update(filter(None, (getattr(node, "id", None), getattr(node, "attr", None))))
    assert defined == {("enclosure.py", name) for name in CONVERTERS}
    assert not names & RETIRED
    assert sources == {"enclosure"}
