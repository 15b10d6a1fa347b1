import ast
import itertools
import re
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from dioph.enclosure import Enclosure, sqrt_enclosure
from dioph.errors import (
    HalfInteger,
    Inconclusive,
    PreconditionError,
    Unrepresentable,
)
from dioph.oracle import (
    CATALOG,
    AffineOracle,
    CFOracle,
    GoldenOracle,
    RationalOracle,
    SqrtOracle,
    floor_certified,
    level_for,
    nearest_int,
    parse_oracle,
    parse_rational,
    DEFAULT_PRECISION_CAP,
    PRECISION_CAP,
    EOracle,
    Log2Oracle,
    Zeta2Oracle,
    Zeta3Oracle,
    _certified_prefix,
    _series_fixed,
    _series_pad,
    refine,
    sign_of_form,
)
from dioph.dichotomy import LemmaParams, solve_disjunction
from dioph import oracle as oracle_module

mpmath.mp.dps = 60


def _mp_ref(name):
    table = {
        "sqrt2": mpmath.sqrt(2),
        "sqrt3": mpmath.sqrt(3),
        "sqrt5": mpmath.sqrt(5),
        "golden": (1 + mpmath.sqrt(5)) / 2,
        "log2": mpmath.log(2),
        "zeta2": mpmath.pi**2 / 6,
        "zeta3": mpmath.zeta(3),
        "e": mpmath.e,
    }
    return F(mpmath.nstr(table[name], 45))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_against_mpmath(name):
    ref = _mp_ref(name)
    enc = CATALOG[name]().enclose(128)
    slop = F(1, 10**40)  # the reference string itself is truncated
    assert enc.lo - slop <= ref <= enc.hi + slop
    assert abs(enc.mid - ref) < F(1, 10**30)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("k", [8, 64, 256, 1024])
def test_width_contract(name, k):
    assert CATALOG[name]().enclose(k).width <= F(1, 1 << k)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_nesting(name):
    oracle = CATALOG[name]()
    prev = oracle.enclose(8)
    for k in (16, 32, 64, 128, 256, 512):
        cur = oracle.enclose(k)
        assert prev.lo <= cur.lo and cur.hi <= prev.hi
        prev = cur
    # a later coarse request still contains everything learned since
    again = oracle.enclose(8)
    assert again.lo <= prev.lo and prev.hi <= again.hi


class LopsidedSqrt2(SqrtOracle):
    """sqrt2 whose raw enclosures need not nest: each is 2**-k wide and tight
    on one side, the side alternating with the level."""

    spec = "lopsided sqrt2"

    def __init__(self):
        super().__init__(2, "sqrt2")

    def _raw(self, k):
        e = sqrt_enclosure(2, 4 * k)
        side = F(1, 1 << k) - e.width
        return Enclosure(e.lo - side, e.hi) if k.bit_length() % 2 else Enclosure(e.lo, e.hi + side)


# each oracle the enclose rule is tested on, and its value at mpmath's precision
ENCLOSE_RULE_ORACLES = {
    **{f"const:{name}": lambda name=name: {
        "sqrt2": mpmath.sqrt(2), "sqrt3": mpmath.sqrt(3), "sqrt5": mpmath.sqrt(5),
        "golden": (1 + mpmath.sqrt(5)) / 2, "log2": mpmath.log(2),
        "zeta2": mpmath.pi**2 / 6, "zeta3": mpmath.apery, "e": mpmath.e,
    }[name] for name in CATALOG},
    "affine:7/2/-2/1:const:zeta3": lambda: mpmath.mpf(7) / 2 * mpmath.apery - 2,
    "affine:7/2/-2/1:affine:-6/1:const:e": lambda: -21 * mpmath.e + mpmath.mpf(3) / 2,
    "cf:[2;1,1,1,4]+periodic:[1,1,1,4]": lambda: mpmath.sqrt(7),
    "lopsided sqrt2": lambda: mpmath.sqrt(2),
}


@pytest.mark.parametrize("spec", sorted(ENCLOSE_RULE_ORACLES))
@settings(deadline=None, max_examples=20)
@given(ks=st.lists(st.integers(min_value=1, max_value=1100), min_size=1, max_size=10))
def test_enclose_rule_in_any_request_order(spec, ks):
    # requests out of order and repeated: each answer is no wider than asked,
    # contains the value, and nests with every other answer, higher k inside
    o = LopsidedSqrt2() if spec == LopsidedSqrt2.spec else parse_oracle(spec)
    ks = ks + ks[:2]
    encs = [o.enclose(k) for k in ks]
    # no end lies within 2**-(4 L) of the value, L the top level asked for
    lo, hi = _mp_bracket(ENCLOSE_RULE_ORACLES[spec], 4 * level_for(max(ks)))
    for k, enc in zip(ks, encs):
        assert enc.width <= F(1, 1 << k)
        assert enc.lo <= lo and hi <= enc.hi
    for i, j in itertools.combinations(range(len(ks)), 2):
        (_, outer), (_, inner) = sorted([(ks[i], encs[i]), (ks[j], encs[j])], key=lambda t: t[0])
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_rational_oracle():
    o = RationalOracle(F(22, 7))
    assert o.exact_value() == F(22, 7)
    e = o.enclose(100)
    assert e.is_point() and e.lo == F(22, 7)


def test_finite_cf_oracle_value():
    o = CFOracle((2, 1, 2, 1, 1, 4))
    assert o.exact_value() == F(87, 32)
    assert o.cf_quotients(0) == ([2, 1, 2, 1, 1, 4], True)


def test_periodic_cf_matches_closed_forms():
    sqrt2 = SqrtOracle(2, "sqrt2")
    per = CFOracle((1,), periodic=(2,))
    per.enclose(200).intersect(sqrt2.enclose(200))
    golden = GoldenOracle()
    allones = CFOracle((1,), periodic=(1,))
    allones.enclose(200).intersect(golden.enclose(200))


def test_cf_validation():
    with pytest.raises(PreconditionError):
        CFOracle(())
    with pytest.raises(PreconditionError):
        CFOracle((-1, 2))
    with pytest.raises(PreconditionError):
        CFOracle((1, 0, 3))
    with pytest.raises(PreconditionError):
        CFOracle((1,), periodic=(0,))
    with pytest.raises(PreconditionError):
        CFOracle(None, liouville_base=1)


def test_liouville_quotient_supply():
    liou = CFOracle(None, liouville_base=10)
    quots, ended = liou.cf_quotients(9)
    assert (quots[1], quots[3], len(quots), ended) == (10, 10**6, 9, False)
    with pytest.raises(Unrepresentable, match="liouville quotient index 9 exceeds the bound 8"):
        liou.cf_quotients(10)


def test_affine_oracle():
    shifted = AffineOracle(1, -1, SqrtOracle(2, "sqrt2"))
    e = shifted.enclose(96)
    ref = F(mpmath.nstr(mpmath.sqrt(2) - 1, 40))
    assert e.lo - F(1, 10**35) <= ref <= e.hi + F(1, 10**35)
    scaled = AffineOracle(F(-2, 3), F(5), RationalOracle(F(1, 2)))
    assert scaled.exact_value() == F(14, 3)
    with pytest.raises(PreconditionError):
        AffineOracle(0, 1, RationalOracle(F(1)))


def test_nested_affine_maps_compose():
    # a map of a map is one map over the innermost oracle, printed as nested
    e = EOracle()
    nested = AffineOracle(F(7, 2), -2, AffineOracle(-6, 1, e))
    assert nested.spec == "affine:7/2/-2/1:affine:-6/1/1/1:const:e"
    assert nested.inner is e and (nested.a, nested.b) == (-21, F(3, 2))
    over_rat = AffineOracle(F(7, 2), -2, AffineOracle(-6, 1, RationalOracle(F(1, 3))))
    assert over_rat.exact_value() == F(7, 2) * (-6 * F(1, 3) + 1) - 2


def test_parse_rational():
    assert parse_rational("22/7") == F(22, 7)
    assert parse_rational("-3") == F(-3)
    assert parse_rational("2.125") == F(17, 8)
    with pytest.raises(PreconditionError):
        parse_rational("1/0")
    with pytest.raises(PreconditionError):
        parse_rational("pi")


def test_parse_oracle_grammar():
    assert parse_oracle("rat:22/7").exact_value() == F(22, 7)
    assert parse_oracle("cf:[3;7]").exact_value() == F(22, 7)
    assert isinstance(parse_oracle("const:golden"), GoldenOracle)
    per = parse_oracle("cf:[1]+periodic:[2]")
    per.enclose(128).intersect(SqrtOracle(2, "sqrt2").enclose(128))
    liou = parse_oracle("cf:liouville:10")
    assert liou.liouville_base == 10
    aff = parse_oracle("affine:1/-1:const:sqrt2")
    assert aff.spec == "affine:1/1/-1/1:const:sqrt2"
    nested = parse_oracle("affine:1/2/0/1:affine:1/0:const:sqrt2")
    nested.enclose(96).intersect(SqrtOracle(2, "sqrt2").enclose(96) * F(1, 2))


@pytest.mark.parametrize("spec,canonical", [
    ("rat:22/7", "rat:22/7"),
    ("rat:-0.125", "rat:-1/8"),
    ("const:zeta3", "const:zeta3"),
    ("cf:[3;7,15,1,292]", "cf:[3;7,15,1,292]"),
    ("cf:[5]", "cf:[5]"),
    ("cf:[007;1,02]+periodic:[03]", "cf:[7;1,2]+periodic:[3]"),
    ("cf:[1]+periodic:[2,1]", "cf:[1]+periodic:[2,1]"),
    ("cf:liouville:3", "cf:liouville:3"),
    ("affine:2/-1:affine:1/2/3/4:cf:[0;2,2]", "affine:2/1/-1/1:affine:1/2/3/4:cf:[0;2,2]"),
])
def test_spec_round_trip(spec, canonical):
    # every grammar form prints its canonical spec, which parses back to the
    # same oracle
    o = parse_oracle(spec)
    assert o.spec == canonical
    again = parse_oracle(o.spec)
    assert again.spec == o.spec
    assert again.exact_value() == o.exact_value()
    assert repr(again) == repr(o) == f"<oracle {canonical}>"


@pytest.mark.parametrize(
    "bad",
    ["const:nope", "cf:[2;0,3]", "cf:1,2,3", "affine:1:const:e", "mystery:1"],
)
def test_parse_oracle_rejects(bad):
    with pytest.raises(PreconditionError):
        parse_oracle(bad)


DIGITS = "1" * 5000  # past Python's default int/str digit limit


# each spec's outcome under the parser this one replaced, recorded on it:
# the canonical spec it prints, or the code of its refusal
@pytest.mark.parametrize("spec,outcome", [
    ("cf: [1;2]", "cf:[1;2]"),
    ("cf:[1;2] +periodic:[3]", "cf:[1;2]+periodic:[3]"),
    ("cf:[1;2]+periodic: [3]", "cf:[1;2]+periodic:[3]"),
    ("cf:[1;2]+periodic:[3] ", "cf:[1;2]+periodic:[3]"),
    ("cf:[1;2]\n+periodic:[3]", "cf:[1;2]+periodic:[3]"),
    ("cf:liouville: 10", "cf:liouville:10"),
    ("cf:liouville:+10", "cf:liouville:10"),
    ("cf:liouville:1_0", "cf:liouville:10"),
    ("affine: 1/2:const:e", "affine:1/1/2/1:const:e"),
    ("affine:1/2: const:e", "affine:1/1/2/1:const:e"),
    ("affine:1.5/2:const:e", "affine:3/2/2/1:const:e"),
    ("affine:1/2/3/ 4:const:e", "affine:1/2/3/4:const:e"),
    ("const: sqrt2", "const:sqrt2"),
    ("rat: 3/4", "rat:3/4"),
    ("cf:[0]", "cf:[0]"),
    ("cf:[1; 2]", "BAD_CF"),
    ("cf:[ 1;2]", "BAD_CF"),
    ("cf:[1,2]", "BAD_CF"),
    ("cf:[1;2;3]", "BAD_CF"),
    ("cf:1;2", "BAD_CF"),
    ("cf:[1;2]x", "BAD_CF"),
    ("cf:[1;2]+periodic:[]", "BAD_CF"),
    ("cf:[1;2]+periodic:[3, 4]", "BAD_CF"),
    ("cf:[1;2]+periodic:[3]+periodic:[4]", "BAD_CF"),
    ("cf:[1;2] + periodic:[3]", "BAD_CF"),
    ("cf:[1;2]+periodic:[0]", "BAD_CF"),
    ("cf:[1;0]", "BAD_CF"),
    ("cf:[-1;2]", "BAD_CF"),
    ("cf:", "BAD_CF"),
    ("cf: liouville:3", "BAD_CF"),
    ("cf:liouville:", "BAD_CF"),
    ("cf:liouville:x", "BAD_CF"),
    ("cf:liouville:1", "BAD_CF"),
    ("cf:liouville:-3", "BAD_CF"),
    pytest.param("cf:[0;" + DIGITS + "]", "BAD_CF", id="long-quotient"),
    pytest.param("cf:liouville:" + DIGITS, "BAD_CF", id="long-base"),
    ("affine:1/2", "BAD_AFFINE"),
    ("affine:1/2/3:const:e", "BAD_AFFINE"),
    ("affine:1/0/0/1:const:e", "BAD_AFFINE"),
    ("affine:x/2:const:e", "BAD_RATIONAL"),
    ("affine:1/2:", "BAD_ORACLE"),
    ("rat:1/0", "BAD_RATIONAL"),
    ("rat:1/2:x", "BAD_RATIONAL"),
    ("const:pi", "BAD_CONST"),
    ("cf", "BAD_ORACLE"),
    ("cf :[1;2]", "BAD_ORACLE"),
    ("foo", "BAD_ORACLE"),
    ("", "BAD_ORACLE"),
])
def test_spec_grammar_keeps_its_outcomes(spec, outcome):
    if not outcome.startswith("BAD_"):
        assert parse_oracle(spec).spec == outcome
        return
    with pytest.raises(PreconditionError) as info:
        parse_oracle(spec)
    assert info.value.code == outcome


def test_spec_grammar_has_one_reader():
    """oracle.py reads a cf: body by one pattern and its integers by one
    reader, and the point splitter runs no loop of its own."""
    root = Path(__file__).resolve().parent.parent / "src" / "dioph"
    tree = ast.parse((root / "oracle.py").read_text())
    names = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not names & {"_CF_LIST", "_INT_LIST", "_parse_cf_body", "_parse_int_list", "_quotients"}
    assert {"_CF", "_ints"} <= names
    split = next(
        node for node in ast.walk(ast.parse((root / "cli.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_split_specs"
    )
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(split))


def test_certified_prefix_of_an_end_on_the_last_convergent_is_empty():
    # the endpoint 1 is the last convergent 1/1 of the seeds ((1, 0), (1, 1)),
    # which has no complete quotient after them
    assert _certified_prefix(Enclosure(1, 2), ((1, 0), (1, 1))) == []


def test_sign_of_form():
    sqrt2 = SqrtOracle(2, "sqrt2")
    assert sign_of_form(sqrt2, 3, 5) == -1
    assert sign_of_form(sqrt2, 3, 4) == 1
    assert sign_of_form(RationalOracle(F(2, 3)), 3, 2) == 0


def test_nearest_int():
    golden = GoldenOracle()
    v, d = nearest_int(golden, 2)
    assert v == 3
    # |2 phi - 3| = sqrt(5) - 2, checked by squaring
    assert (d.lo + 2) ** 2 <= 5 <= (d.hi + 2) ** 2
    v, d = nearest_int(RationalOracle(F(22, 7)), 7)
    assert v == 22 and d.is_point() and d.lo == 0


def test_nearest_int_climbs_until_accepted():
    sqrt2 = SqrtOracle(2, "sqrt2")
    levels = []
    v, d = nearest_int(sqrt2, 10**30, lambda d: levels.append(d) or d.width <= F(1, 2**100))
    assert v == 1414213562373095048801688724210
    # one test per rung that decides v, and the distance is the first passing one
    assert [e.width <= F(1, 2**100) for e in levels] == [False] * (len(levels) - 1) + [True]
    assert d is levels[-1] and len(levels) > 1
    # a rational value gives its exact distance, untested
    v, d = nearest_int(RationalOracle(F(22, 7)), 7, lambda d: False)
    assert v == 22 and d == Enclosure.point(0)


def test_nearest_int_half_integer():
    with pytest.raises(HalfInteger):
        nearest_int(RationalOracle(F(1, 2)), 3)
    v, d = nearest_int(RationalOracle(F(1, 2)), 4)
    assert v == 2 and d.lo == 0


def test_floor_certified():
    assert floor_certified(SqrtOracle(2, "sqrt2")) == 1
    assert floor_certified(CATALOG["e"]()) == 2
    assert floor_certified(RationalOracle(F(-3, 2))) == -2
    assert floor_certified(RationalOracle(F(4))) == 4


def test_default_precision_cap():
    assert PRECISION_CAP.get() == DEFAULT_PRECISION_CAP == 1 << 20


def test_cap_exhaustion_raises(precision_cap):
    # q * e sits 0.3 away from p, but at 64 bits the scaled width is ~500
    q = 10**25
    p = 27182818284590452353602875
    precision_cap(64)
    with pytest.raises(Inconclusive):
        sign_of_form(CATALOG["e"](), q, p)
    with pytest.raises(Inconclusive):
        nearest_int(CATALOG["e"](), q)


def test_library_call_reads_the_context_cap():
    xi = SqrtOracle(2, "sqrt2")
    params = LemmaParams(F(3, 2), F(19, 10), F(1, 1000), 10**400)
    token = PRECISION_CAP.set(64)
    try:
        with pytest.raises(Inconclusive) as info:
            solve_disjunction(xi, params)
    finally:
        PRECISION_CAP.reset(token)
    assert info.value.k_cap == 64
    assert solve_disjunction(xi, params).outcome == "case_ii"


class _Bits:
    def __init__(self):
        self.seen = []

    def bump_bits(self, k):
        self.seen.append(k)


def test_refine_climbs_the_ladder_in_order():
    visited = []
    stats = _Bits()

    def step(k):
        visited.append(k)
        return k if k == 512 else None

    assert refine(step, "ladder", stats=stats) == 512
    assert visited == [64, 128, 256, 512]
    assert stats.seen == visited


def test_refine_start_level(precision_cap):
    visited = []

    def step(k):
        visited.append(k)
        return k if k == 1024 else None

    precision_cap(1024)
    assert refine(step, "x", start=256) == 1024
    assert visited == [256, 512, 1024]
    assert refine(lambda k: k, "x", start=8) == 64


def test_refine_returns_false_and_zero():
    assert refine(lambda k: False, "f") is False
    assert refine(lambda k: 0, "z") == 0


def test_refine_raises_at_the_cap(precision_cap):
    visited = []
    precision_cap(300)
    with pytest.raises(Inconclusive) as info:
        refine(lambda k: visited.append(k), "never decided")
    assert info.value.k_cap == 300
    assert visited == [64, 128, 256]
    assert "never decided" in str(info.value)


def test_refine_below_the_first_level_never_steps(precision_cap):
    calls = []
    precision_cap(63)
    with pytest.raises(Inconclusive) as info:
        refine(lambda k: calls.append(k) or True, "x")
    assert calls == [] and info.value.k_cap == 63


def test_ladder_lives_only_in_oracle():
    """Only oracle.py names the first level, and the level doubling is
    written once, in refine."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name != "oracle.py":
            assert "_MIN_LEVEL" not in text, path.name
            assert "k *= 2" not in text, path.name
    oracle_src = (src / "oracle.py").read_text()
    assert oracle_src.count("k *= 2") == 1
    body = oracle_src[oracle_src.index("def refine("):]
    assert "k *= 2" in body[:body.index("\ndef ", 1)]


def test_separation_lives_only_in_oracle():
    """Only oracle.py names SEPARATION_BITS; other modules ask is_separated
    or separated."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    for path in sorted(src.glob("*.py")):
        if path.name != "oracle.py":
            assert "SEPARATION_BITS" not in path.read_text(), path.name


def _used_names(tree) -> set:
    """Names a module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.annotation if not isinstance(node, ast.FunctionDef) else node.returns
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_module_imports_an_unused_name():
    """Every name a module imports is read in it; the package root imports
    to re-export, so it is left out."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        assert imported - _used_names(tree) == set(), path.name


# defined in src/ and read only by the benchmark, which bench/tracing.py or
# bench/workloads.py names: dead code a benchmark change may remove
UNREAD_LEDGER = {
    "hull", "mid", "dyadic_below", "dyadic_above", "sqrt_lower", "sqrt_upper",
    "ln_enclosure", "sign_of_form", "geometric",
}


def test_no_module_defines_an_unread_name():
    """Every function, method and class defined in src/, dunders aside, is
    read somewhere in src/, as a name, an attribute or a re-export by the
    package root; the exceptions are UNREAD_LEDGER, each named by the bench."""
    root = Path(__file__).resolve().parent.parent
    defined, read = set(), set()
    for path in sorted((root / "src" / "dioph").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    assert defined - read == UNREAD_LEDGER
    bench = "".join((root / "bench" / name).read_text() for name in ("tracing.py", "workloads.py"))
    assert {name for name in UNREAD_LEDGER if not re.search(rf"\b{name}\b", bench)} == set()


def test_only_the_base_oracle_defines_exact_value():
    """An oracle's exact value is its ``value``, set when it is built, and
    ``RealOracle.exact_value`` is the one method that reads it."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    owners = {
        (path.name, node.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "exact_value" for f in node.body)
    }
    assert owners == {("oracle.py", "RealOracle")}


def test_precision_cap_has_one_source():
    """No function takes a ``cap`` parameter, only oracle.py reads
    PRECISION_CAP, and only cli.py sets and resets it."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    uses = {"get": set(), "set": set(), "reset": set()}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                names = [p.arg for p in params if p is not None]
                assert "cap" not in names, (path.name, node.lineno)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "PRECISION_CAP"
            ):
                uses.setdefault(node.attr, set()).add(path.name)
    assert uses == {"get": {"oracle.py"}, "set": {"cli.py"}, "reset": {"cli.py"}}


def test_residue_stream_has_one_budget():
    """Only ``dichotomy._residue_hits`` queries a descent chain's
    ``first_hit``, and only dichotomy.py names DEFAULT_BUDGET."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    callers, budget = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "first_hit" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        callers.add((path.name, fn.name))
        for node in ast.walk(tree):
            if "DEFAULT_BUDGET" in (
                getattr(node, "id", None), getattr(node, "attr", None),
                node.name if isinstance(node, ast.alias) else None,
            ):
                budget.add(path.name)
    assert callers == {("dichotomy.py", "_residue_hits")}
    assert budget == {"dichotomy.py"}


def test_quotient_caches_live_only_in_oracle():
    """Only oracle.py touches the quotient cache and the pair of convergents
    it resumes from, it runs the only convergent recurrence, neither
    contfrac.py nor dichotomy.py picks a quotient source by oracle type, and
    dichotomy.py reads no continued fraction at all."""
    src = Path(__file__).resolve().parent.parent / "src" / "dioph"
    recurrences = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        recurrences += [path.name for _ in re.finditer(r"\* p1 \+ p0", text)]
        if path.name != "oracle.py":
            assert not re.search(r"_cf_quotients|_cf_level|_cf_tail|_conv\b", text), path.name
    assert recurrences == ["oracle.py"]
    for name in ("contfrac.py", "dichotomy.py"):
        assert "CFOracle" not in (src / name).read_text(), name
    text = (src / "dichotomy.py").read_text()
    for name in ("convergent_stream", "cf_quotients", "convergent_pairs", "quotient_count"):
        assert name not in text, name


# The series as they were summed before the term-ratio recurrence: each term
# of zeta(2) and zeta(3) a division of 2**w by n**s C(2n, n), and e's loop.


def _zeta2_loop(k):
    w = k + _series_pad(k)
    c = 1
    total = 0
    n = 1
    while True:
        c = c * (2 * (2 * n - 1)) // n
        t = (1 << w) // (n * n * c)
        if t == 0:
            break
        total += t
        n += 1
    sc = F(3, 1 << w)
    return Enclosure(total * sc, (total + n + 2) * sc)


def _zeta3_loop(k):
    w = k + _series_pad(k)
    c = 1
    total = 0
    sign = 1
    n = 1
    while True:
        c = c * (2 * (2 * n - 1)) // n
        t = (1 << w) // (n * n * n * c)
        if t == 0:
            break
        total += sign * t
        sign = -sign
        n += 1
    slack = n + 2
    sc = F(5, 2 << w)
    return Enclosure((total - slack) * sc, (total + slack) * sc)


def _ln2_loop(k):
    # ln 2 = sum 1/(n 2**n), each of the w terms floored and the tail below 1
    w = k + _series_pad(k)
    total = sum((1 << (w - n)) // n for n in range(1, w + 1))
    sc = F(1, 1 << w)
    return Enclosure(total * sc, (total + w + 2) * sc)


def _e_loop(k):
    w = k + _series_pad(k)
    term = 1 << w
    total = term
    n = 1
    while term:
        term //= n
        total += term
        n += 1
    sc = F(1, 1 << w)
    return Enclosure(total * sc, (total + n + 2) * sc)


SERIES = {
    "zeta2": (Zeta2Oracle, lambda: mpmath.pi**2 / 6, _zeta2_loop),
    "zeta3": (Zeta3Oracle, lambda: mpmath.apery, _zeta3_loop),
    "e": (EOracle, lambda: mpmath.e, _e_loop),
    "log2": (Log2Oracle, lambda: mpmath.log(2), _ln2_loop),
}


def _mp_bracket(value, k):
    """Rationals within 2**-(k + 96) of ``value`` evaluated at k + 128 bits,
    so they bracket the true value (``man_exp`` drops the sign)."""
    with mpmath.workprec(k + 128):
        x = mpmath.mpf(value())
    man, exp = x.man_exp
    v, err = F(-man if x < 0 else man) * F(2) ** exp, F(1, 1 << (k + 96))
    return v - err, v + err


@pytest.mark.parametrize("name", sorted(SERIES))
@settings(deadline=None, max_examples=15)
@given(k=st.integers(min_value=1, max_value=8192))
def test_series_contain_the_value_within_width(name, k):
    cls, value, loop = SERIES[name]
    enc = cls()._raw(k)
    lo, hi = _mp_bracket(value, k)
    assert enc.lo <= lo and hi <= enc.hi
    assert enc.width <= F(1, 1 << k)
    if name == "e":
        assert enc == loop(k)


@pytest.mark.parametrize("name", ["log2", "zeta2", "zeta3"])
@pytest.mark.parametrize("k", [1, 64, 100, 1000, 2048])
def test_series_overlap_the_division_loops(name, k):
    cls, value, loop = SERIES[name]
    new, old = cls()._raw(k), loop(k)
    assert new.lo <= old.hi and old.lo <= new.hi
    lo, hi = _mp_bracket(value, k)
    assert old.lo <= lo and hi <= old.hi


# k log-uniform up to 2**15; the reference loops take seconds past 4096 bits,
# so they are read at min(k, 4096): both enclosures hold the value, so they meet
deep_ks = st.integers(min_value=0, max_value=14).flatmap(
    lambda b: st.integers(min_value=1 << b, max_value=1 << (b + 1))
)


@pytest.mark.parametrize("name", ["log2", "zeta2", "zeta3"])
@settings(deadline=None, max_examples=8)
@given(ks=st.lists(deep_ks, min_size=1, max_size=3))
def test_fast_series_are_certified_up_to_2_to_the_15(name, ks):
    cls, value, loop = SERIES[name]
    o = cls()
    for k in ks:
        raw = cls()._raw(k)
        assert raw.width <= F(1, 1 << k)
        lo, hi = _mp_bracket(value, k)
        assert raw.lo <= lo and hi <= raw.hi
        ref = loop(min(k, 4096))
        assert raw.lo <= ref.hi and ref.lo <= raw.hi
    encs = sorted((k, o.enclose(k)) for k in ks)
    for (_, outer), (_, inner) in itertools.combinations(encs, 2):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


@pytest.mark.parametrize("k", [1, 8, 64, 100, 1000, 4096, 20000])
def test_fast_series_term_counts(monkeypatch, k):
    # zeta(3) gains about 10 bits a term, Chudnovsky's pi about 47
    seen = {}
    series, pi, split = oracle_module._series_fixed, oracle_module._pi_fixed, oracle_module._chudnovsky

    def counted_series(t1, ratio, weight):
        total, n = series(t1, ratio, weight)
        seen["zeta3"] = (t1.bit_length() - 1, n - 1)
        return total, n

    def counted_pi(w):
        seen["pi_w"] = w
        return pi(w)

    def counted_split(a, b):
        if a == 0:
            seen["chudnovsky"] = max(seen.get("chudnovsky", 0), b)
        return split(a, b)

    monkeypatch.setattr(oracle_module, "_series_fixed", counted_series)
    monkeypatch.setattr(oracle_module, "_pi_fixed", counted_pi)
    monkeypatch.setattr(oracle_module, "_chudnovsky", counted_split)
    Zeta3Oracle()._raw(k)
    Zeta2Oracle()._raw(k)
    w, terms = seen["zeta3"]
    assert terms <= w / 9 + 3
    assert seen["chudnovsky"] <= seen["pi_w"] / 47 + 3


@pytest.mark.parametrize("k", [1, 8, 64, 65, 127, 1000, 2048, 4096])
def test_e_series_is_the_old_loop(k):
    assert EOracle()._raw(k) == _e_loop(k)


@pytest.mark.parametrize("k", [1, 8, 64, 65, 127, 1000, 2048, 4096])
def test_e_loop_matches_the_term_ratio_series(k):
    # e's terms divide by n alone; its own loop skips the multiply by p = 1
    w = k + _series_pad(k)
    total, n = _series_fixed(1 << w, lambda n: (1, n), lambda n: 1)
    sc = F(1, 1 << w)
    assert EOracle()._raw(k) == Enclosure(total * sc, (total + n + 2) * sc)
