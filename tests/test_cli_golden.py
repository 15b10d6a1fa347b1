"""Byte-for-byte CLI output against recorded golden files.

Each file in ``tests/golden/`` was recorded before a refactor that keeps
every witness, enclosure and quotient (the cf, build and sqrt2 lemma files
before quotient caching and the removal of the short-span direct scan, the
nesterenko and u,v tau files before the rate layer dropped its unread
diagnostics, the omega0 files at q-bound 100000 and 10000 before the search
left out the records whose exponent bounds cannot win, the Apéry tau files
at n-max 120 before form values were rounded to 128 bits, the rest before
the shared refinement ladder), so stdout must match byte for byte. The one
recorded difference is ``stats.candidates`` of ``lemma``: the direct scan
checked every integer of a short range, the residue-class search checks only
surrogate candidates. That key is asserted on its own. ``omega0_1_zeta3_q10000``
was recorded again when zeta(3) came to be summed by its term-ratio
recurrence: its ``best_dist`` and ``tail_dist`` ends moved with the wider
series slack, and every q and exponent in it stayed the same.
``build_sqrt2_n50_100`` was recorded again when the window check came to
decide on the search's surrogate first: the residual and ratio_res ends at n
= 96, 97 and 98 moved inside the ones they replaced. ``suite_seed20260823`` is
the stdout of the acceptance suite, whose wall times go to stderr.
``dirichlet_1_sqrt2_sqrt3_q100000`` was recorded before the residue-class
stream came to step between hits by the three gaps instead of descending
once per candidate. ``mu_e_depth200`` was recorded again when the
logarithm came to reduce its argument by a table of 5-smooth ratios: its
``mu_lower_exact`` moved, a lower bound from narrower log enclosures at a
different working precision, and ``mu_lower`` and ``witness_index`` stayed
the same. ``cf_periodic_1_2_3_p1_4_depth12`` was recorded before the
continued-fraction oracle came to build its spec on first read: it pins the
canonical ``cf:`` spec that the ``oracle`` field prints. ``apery3_n60`` and
``apery2_n60.csv`` were recorded before the Apéry recurrence came to run on
the scaled integers S_n a_n and S_n b_n, dividing only by n**s: they pin
every u, v, a, b and scale up to n = 60, in JSON and in CSV.
``lemma_sqrt2_eps1e1990_q1e2000`` was recorded before the window search came
to keep one descent chain per surrogate and to solve deep hits by one
modular inverse: its case (ii) windows, about 10**-1990 wide at q near
10**2000, are searched on a surrogate of 16387 bits whose Euclidean descent
the first hits reach some 5200 levels down, so the file pins a deep descent.
``omega0_1_sqrt2_sqrt3_q10000000`` was recorded before omega0's record
stream came to leave out the q whose distance puts their exponent below one
already reached: at that size the stream drops most of its candidates.

The two ``lemma_near_half_cf`` files were recorded when case (ii) came to
search both windows in one stream and to read a finer surrogate after a run
of misses; before that both commands exhausted the candidate budget and
wrote nothing. Every odd q near 10**40 sits just past 1/2, inside the
enlarged plus window: at eps = 49/100 the minus window holds q = 10**40 + 1,
and at eps = 3/10 the witness lies past 64 misses. Their ``stats.candidates``
is bounded, not matched, so a cheaper search does not need a new recording.
"""

import re
from pathlib import Path

import pytest

from dioph.cli import main

GOLDEN = Path(__file__).parent / "golden"
LEMMA = ("lemma", "--oracle", "const:sqrt2", "--c", "3/2", "--c-prime", "19/10",
         "--eps", "1/1000", "--Q")
POINT = "rat:1,const:sqrt2,const:sqrt3"
CANDIDATES = re.compile(r'"candidates":(\d+)')


def _stdout(capsys, argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name,argv", [
    ("cf_e_depth300.json", ("cf", "--oracle", "const:e", "--depth", "300")),
    ("build_sqrt2_n50_100.json",
     ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2",
      "--beta", "3", "--n", "50:100")),
    ("lemma_liouville3_case_i.json",
     ("lemma", "--oracle", "cf:liouville:3", "--c", "3/2", "--c-prime", "19/10",
      "--eps", "1e-6", "--Q", "531441")),
    ("lemma_affine_e_q1e30.json",
     ("lemma", "--oracle", "affine:3/7:const:e", "--c", "3/2", "--c-prime",
      "19/10", "--eps", "1/1000", "--Q", str(10**30))),
    ("lemma_rat_355_113.json",
     ("lemma", "--oracle", "rat:355/113", "--c", "3/2", "--c-prime", "19/10",
      "--eps", "1/100", "--Q", "50")),
    ("density_golden_fib.json",
     ("density", "--oracle", "const:golden", "--u", "1,2,3,5,8,13,21,34,55,89")),
    ("dirichlet_1_sqrt2_sqrt3_q50.json",
     ("multi", "dirichlet", "--point", POINT, "--Q", "50")),
    ("dirichlet_1_sqrt2_sqrt3_q20_best.json",
     ("multi", "dirichlet", "--point", POINT, "--Q", "20", "--mode", "best")),
    ("omega0_1_sqrt2_sqrt3_q2000.json",
     ("multi", "omega0", "--point", POINT, "--q-bound", "2000")),
    ("tau_apery3_n80.json", ("multi", "tau", "--apery", "3", "--n-max", "80")),
    ("mu_e_depth200.json", ("mu", "--oracle", "const:e", "--depth", "200")),
    ("build_sqrt2_rates_csv.json",
     ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--rates-csv",
      str(GOLDEN / "rates.csv"), "--n", "4:8")),
    ("build_sqrt2_eta_csv.json",
     ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2",
      "--beta", "3", "--eta-csv", str(GOLDEN / "eta.csv"), "--n", "20:25")),
    ("nesterenko_apery3_n40.json",
     ("multi", "nesterenko", "--apery", "3", "--n-max", "40", "--omega-bound", "200")),
    ("tau_sqrt2_uv_csv.json",
     ("multi", "tau", "--forms-csv", str(GOLDEN / "sqrt2_convergents.csv"),
      "--oracle", "const:sqrt2")),
    ("omega0_1_sqrt2_sqrt3_q100000.json",
     ("multi", "omega0", "--point", POINT, "--q-bound", "100000")),
    ("omega0_1_zeta3_q10000.json",
     ("multi", "omega0", "--point", "rat:1,const:zeta3", "--q-bound", "10000")),
    ("tau_apery2_n120.json", ("multi", "tau", "--apery", "2", "--n-max", "120")),
    ("tau_apery3_n120.json", ("multi", "tau", "--apery", "3", "--n-max", "120")),
    ("suite_seed20260823.json", ("suite", "--seed", "20260823")),
    ("dirichlet_1_sqrt2_sqrt3_q100000.json",
     ("multi", "dirichlet", "--point", POINT, "--Q", "100000")),
    ("cf_periodic_1_2_3_p1_4_depth12.json",
     ("cf", "--oracle", "cf:[1;2,3]+periodic:[1,4]", "--depth", "12")),
    ("apery3_n60.json", ("apery", "--s", "3", "--n-max", "60")),
    ("apery2_n60.csv", ("--output", "csv", "apery", "--s", "2", "--n-max", "60")),
    ("lemma_sqrt2_eps1e1990_q1e2000.json",
     LEMMA[:-3] + ("--eps", "1e-1990", "--Q", "1e2000")),
    ("omega0_1_sqrt2_sqrt3_q10000000.json",
     ("multi", "omega0", "--point", POINT, "--q-bound", "10000000")),
])
def test_identical_output(capsys, name, argv):
    assert _stdout(capsys, argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,digits,recorded,now", [
    ("lemma_sqrt2_q1e40.json", 40, 837, 1),
    ("lemma_sqrt2_q1e400.json", 400, 1028, 1),
])
def test_lemma_output_except_candidates(capsys, name, digits, recorded, now):
    out = _stdout(capsys, LEMMA + (str(10**digits),)).decode()
    golden = (GOLDEN / name).read_text()
    assert [int(n) for n in CANDIDATES.findall(golden)] == [recorded]
    assert [int(n) for n in CANDIDATES.findall(out)] == [now]
    assert CANDIDATES.sub("", out) == CANDIDATES.sub("", golden)


NEAR_HALF = ("lemma", "--oracle", "cf:[0;2,1000000000000000000000000000000]+periodic:[1]",
             "--c", "3/2", "--Q", "1e40")


@pytest.mark.parametrize("name,c_prime,eps,bound", [
    ("lemma_near_half_cf_eps49_100.json", "19/10", "49/100", 2),
    ("lemma_near_half_cf_eps3_10.json", "8/5", "3/10", 130),
])
def test_lemma_past_a_class_just_outside_the_band(capsys, name, c_prime, eps, bound):
    out = _stdout(capsys, NEAR_HALF + ("--c-prime", c_prime, "--eps", eps)).decode()
    assert [int(n) <= bound for n in CANDIDATES.findall(out)] == [True]
    assert CANDIDATES.sub("", out) == CANDIDATES.sub("", (GOLDEN / name).read_text())
