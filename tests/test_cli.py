import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dioph
from dioph import multiform
from dioph.cli import _rate_payload, _split_specs, build_parser, main
from dioph.enclosure import Enclosure
from dioph.multiform import FormSequence, LinearForm, PointVec, tau_empirical
from dioph.oracle import PRECISION_CAP, RationalOracle, SqrtOracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_python_m_dioph_runs_the_cli():
    src = str(Path(dioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dioph", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: dioph")


def test_cf_sqrt2(capsys):
    code, out, err = run_cli(capsys, "cf", "--oracle", "const:sqrt2", "--depth", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotients"] == ["1", "2", "2", "2", "2", "2"]
    assert doc["terminated"] is False
    assert doc["convergents"][-1] == {"k": 5, "p": "99", "q": "70"}


def test_mu_golden(capsys):
    code, out, _ = run_cli(capsys, "mu", "--oracle", "const:golden", "--depth", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_lower"].startswith("2.0411053659")
    assert doc["witness_index"] == 25


def test_lemma_case_ii(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--oracle", "affine:1/-1:const:sqrt2",
        "--c", "3/2", "--c-prime", "19/10", "--eps", "1/10", "--Q", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "II"
    assert doc["witness"] == {"p": "4", "q": "10"}


def test_lemma_case_i(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma", "--oracle", "cf:[0;3,1000000]",
        "--c", "3/2", "--c-prime", "19/10", "--eps", "1/2", "--Q", "1000000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "I"
    assert doc["witness"]["u"] == "3"
    assert doc["witness"]["bound_u"] == "45/1"


def test_build_entries(capsys):
    code, out, _ = run_cli(
        capsys,
        "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--alpha", "1/2", "--beta", "3", "--n", "50:60",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == "1"
    assert len(doc["entries"]) == 11
    assert all(e["case"] == "II" for e in doc["entries"])


def test_apery_json(capsys):
    code, out, _ = run_cli(capsys, "apery", "--s", "3", "--n-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert [r["a"] for r in doc["rows"]] == ["1", "5", "73"]
    assert doc["rows"][2]["u"] == "1168"


def test_apery_csv(capsys):
    code, out, _ = run_cli(capsys, "--output", "csv", "apery", "--s", "2", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a,b,u,v,scale"
    assert lines[1] == "0,1,0,1,0,1"


def test_build_csv_feeds_multi_tau(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--output", "csv",
        "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--alpha", "1/2", "--beta", "3", "--n", "50:80",
    )
    assert code == 0
    forms = tmp_path / "forms.csv"
    forms.write_text(out)
    code, out, _ = run_cli(
        capsys,
        "multi", "tau", "--forms-csv", str(forms), "--oracle", "const:sqrt2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decayed"] is True
    assert 0 < float(doc["tau_hat"]) < 1


@pytest.mark.parametrize("ns", [(3, 2, 1), (1, 2, 3, 3)])
def test_tau_rejects_indices_out_of_order(capsys, tmp_path, ns):
    forms = tmp_path / "forms.csv"
    rows = [(1, 1), (2, 3), (5, 7), (12, 17)]
    forms.write_text("n,u,v\n" + "".join(f"{n},{u},{v}\n" for n, (u, v) in zip(ns, rows)))
    code, out, err = run_cli(
        capsys, "multi", "tau", "--forms-csv", str(forms), "--oracle", "const:sqrt2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: BAD_PARAMS: indices")


@pytest.mark.parametrize("argv", [
    ("dirichlet", "--point", "rat:1,const:sqrt2,const:sqrt3", "--Q", "10000"),
    ("dirichlet", "--point", "rat:1,const:sqrt2,const:sqrt3", "--Q", "10000", "--mode", "best"),
    ("omega0", "--point", "rat:1,const:sqrt2,const:sqrt3", "--q-bound", str(10**7)),
], ids=["dirichlet-first", "dirichlet-best", "omega0"])
def test_simultaneous_scans_answer_ranges_past_a_million(capsys, monkeypatch, argv):
    # 10**8 and 10**7 denominators; the budget counts the stream's hits
    scores = []
    score = multiform._approx_score
    monkeypatch.setattr(
        multiform, "_approx_score", lambda q, *a: scores.append(q) or score(q, *a)
    )
    code, out, err = run_cli(capsys, "multi", *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc.get("within_dirichlet", True) is True
    assert 0 < len(scores) < 10**5


@pytest.mark.parametrize("action, bracketed, named, fields", [
    ("omega0", "rat:1,cf:[1;2,2,2]+periodic:[2]", "rat:1,const:sqrt2",
     {"best_q": "2", "tail_q": "985"}),
    ("dirichlet", "rat:1,cf:[1;2,2,2]+periodic:[2],cf:[1;1,2]+periodic:[1,2]",
     "rat:1,const:sqrt2,const:sqrt3", {"q0": "1463", "qs": ["2069", "2534"]}),
], ids=["omega0", "dirichlet"])
def test_point_specs_keep_commas_inside_brackets(capsys, action, bracketed, named, fields):
    # the commas of a cf spec's quotient lists do not split the point
    bound = ("--q-bound", "1000") if action == "omega0" else ("--Q", "100")
    docs = []
    for point in (bracketed, named):
        code, out, err = run_cli(capsys, "multi", action, "--point", point, *bound)
        assert code == 0 and err == ""
        docs.append(json.loads(out))
    for doc in docs:
        assert {k: doc[k] for k in fields} == fields


@pytest.mark.parametrize("text,specs", [
    ("rat:1,cf:[1;2,2]+periodic:[2],const:e", ["rat:1", "cf:[1;2,2]+periodic:[2]", "const:e"]),
    ("a,,b", ["a", "b"]),
    (" rat:1 , const:e ,", ["rat:1", "const:e"]),
    ("cf:[1;2,3]+periodic:[4,5],cf:[0;1]", ["cf:[1;2,3]+periodic:[4,5]", "cf:[0;1]"]),
])
def test_point_lists_split_at_commas_outside_brackets(text, specs):
    assert _split_specs(text) == specs


def test_output_is_deterministic(capsys):
    argv = ("multi", "omega0", "--point", "rat:1,const:zeta3", "--q-bound", "10000")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["best_q"] == "5"
    assert doc["omega_best"].startswith("2.8439219680")


def test_bad_params_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "lemma", "--oracle", "const:sqrt2",
        "--c", "2", "--c-prime", "3", "--eps", "1/100", "--Q", "50",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_build_with_geometric_rates_rejects_index_zero(capsys):
    # beta**0 = 1 used to reach LemmaParams as "need Q > 1, got 2**64/..."
    code, out, err = run_cli(
        capsys,
        "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--alpha", "1/2", "--beta", "3", "--n", "0:5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: BAD_PARAMS") and "n=0" in err


def test_build_names_the_row_too_small_for_its_band(capsys):
    # 11/10 / sqrt(1 + eta_1) < 1 used to reach LemmaParams as "need Q > 1, got ..."
    code, out, err = run_cli(
        capsys,
        "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--alpha", "99/100", "--beta", "11/10", "--n", "1:5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: BAD_PARAMS") and "n=1" in err and "Q_n=11/10" in err


@pytest.mark.parametrize("n", [-3, -2])
def test_build_rejects_a_rate_row_below_the_eta_rule(capsys, tmp_path, n):
    # the default eta rule 1/ln(n+3) has no value at n <= -2
    rates = tmp_path / "rates.csv"
    rates.write_text(f"n,Q,eps\n{n},1000000,1/1000\n")
    code, out, err = run_cli(
        capsys, "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--rates-csv", str(rates), f"--n={n}:{n}",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: BAD_PARAMS") and f"row n={n}" in err


@pytest.mark.parametrize("n", [-1, 0])
def test_build_answers_rate_rows_the_eta_rule_covers(capsys, tmp_path, n):
    rates = tmp_path / "rates.csv"
    rates.write_text(f"n,Q,eps\n{n},1000000,1/1000\n")
    code, out, _ = run_cli(
        capsys, "build", "--oracle", "const:sqrt2", "--mu", "21/10",
        "--rates-csv", str(rates), f"--n={n}:{n}",
    )
    assert code == 0
    assert [e["n"] for e in json.loads(out)["entries"]] == [n]


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "cf", "--oracle", "cf:liouville:10", "--depth", "20")
    assert code == 3
    assert "error:" in err


SQRT2_LEMMA_Q1E400 = ("lemma", "--oracle", "const:sqrt2", "--c", "3/2",
                      "--c-prime", "19/10", "--eps", "1/1000", "--Q", str(10**400))


def test_precision_cap_is_scoped_to_one_command(capsys):
    env, cap = dict(os.environ), PRECISION_CAP.get()
    code, out, err = run_cli(capsys, "--precision-cap", "64", *SQRT2_LEMMA_Q1E400)
    assert code == 3 and out == ""
    assert "INCONCLUSIVE" in err and "precision cap 64 bits" in err
    assert dict(os.environ) == env
    assert PRECISION_CAP.get() == cap
    code, out, _ = run_cli(capsys, *SQRT2_LEMMA_Q1E400)
    assert code == 0 and json.loads(out)["outcome"] == "II"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("code,argv", [
    ("BAD_CF", ("cf", "--oracle", "cf:liouville:x", "--depth", "3")),
    ("BAD_AFFINE", ("cf", "--oracle", "affine:1/2/3/x:const:e", "--depth", "3")),
    ("BAD_AFFINE", ("cf", "--oracle", "affine:1/0/0/1:const:e", "--depth", "3")),
    ("BAD_PARAMS", ("density", "--oracle", "const:sqrt2", "--u", "1,x")),
    ("BAD_PARAMS", ("density", "--oracle", "const:sqrt2",
                    "--u-csv", str(GOLDEN / "no-such-file.csv"))),
    ("BAD_PARAMS", ("build", "--oracle", "const:sqrt2", "--mu", "21/10",
                    "--rates-csv", str(GOLDEN / "eta.csv"), "--n", "5:6")),
    ("BAD_RATIONAL", ("build", "--oracle", "const:sqrt2", "--mu", "21/x",
                      "--alpha", "1/2", "--beta", "2", "--n", "5:6")),
    ("BAD_PARAMS: not a span a:b", ("multi", "tau", "--apery", "3", "--window", "5")),
    ("BAD_PARAMS: empty span", ("multi", "tau", "--apery", "3", "--window", "9:3")),
    ("BAD_PARAMS: u,v ingestion needs --oracle",
     ("multi", "tau", "--forms-csv", str(GOLDEN / "sqrt2_convergents.csv"))),
    ("BAD_PARAMS: forms csv needs u,v or l0..lr",
     ("multi", "tau", "--forms-csv", str(GOLDEN / "rates.csv"), "--oracle", "const:sqrt2")),
    ("BAD_PARAMS: window keeps fewer than 2 entries",
     ("multi", "tau", "--apery", "3", "--n-max", "20", "--window", "20:20")),
    ("BAD_CF", ("multi", "omega0", "--point", "rat:1,cf:[1;2,const:e", "--q-bound", "100")),
    ("BAD_CF", ("multi", "omega0", "--point", "rat:1,cf:[1;2]],const:e", "--q-bound", "100")),
    ("BAD_CONST", ("multi", "omega0", "--point", "rat:1,const:e]", "--q-bound", "100")),
], ids=["liouville-base", "affine-int", "affine-zero-den", "u-list", "u-csv-missing",
        "rates-csv-columns", "rational-flag", "window-not-a-span", "window-empty-span",
        "uv-csv-without-oracle", "csv-without-form-columns", "window-too-narrow",
        "point-bracket-unclosed", "point-bracket-unopened", "point-stray-bracket"])
def test_malformed_input_exits_2(capsys, code, argv):
    # a code may carry the start of its message, after ": "
    code, _, message = code.partition(": ")
    exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == 2 and out == ""
    assert err.startswith(f"error: {code}: {message}")


@pytest.mark.parametrize("argv,column", [
    (("multi", "tau", "--oracle", "const:sqrt2", "--forms-csv"), "n"),
    (("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--n", "5:6", "--rates-csv"), "n, Q, eps"),
    (("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2", "--beta", "3",
      "--n", "5:6", "--eta-csv"), "n, eta"),
    (("density", "--oracle", "const:sqrt2", "--u-csv"), "u"),
], ids=["forms", "rates", "eta", "u"])
def test_empty_csv_exits_2(capsys, tmp_path, argv, column):
    # the header was read after the file had closed: ValueError, exit 1
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == f"error: BAD_PARAMS: {path} has no column {column}\n"


@pytest.mark.parametrize("flag,table,csv,extra", [
    ("--rates-csv", "rate", "n,Q,eps\n20,10000,1/81\n21,100000,1/243\n21,1000000,1/729\n", ()),
    ("--eta-csv", "eta", "n,eta\n20,2/5\n21,2/5\n21,3/10\n", ("--alpha", "1/2", "--beta", "3")),
], ids=["rates", "eta"])
def test_csv_with_a_repeated_index_exits_2(capsys, tmp_path, flag, table, csv, extra):
    path = tmp_path / "table.csv"
    path.write_text(csv)
    code, out, err = run_cli(capsys, "build", "--oracle", "const:sqrt2", "--mu", "21/10",
                             flag, str(path), *extra, "--n", "20:21")
    assert code == 2 and out == ""
    assert err == f"error: BAD_PARAMS: {table} table has two rows for n=21\n"


def test_eta_csv_takes_eta_up_to_one_half(capsys, tmp_path):
    path = tmp_path / "eta.csv"
    path.write_text("n,eta\n20,49/100\n21,23/50\n22,9/20\n")
    code, out, err = run_cli(capsys, "build", "--oracle", "const:sqrt2", "--mu", "21/10",
                             "--alpha", "1/2", "--beta", "3", "--eta-csv", str(path), "--n", "20:22")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["eta"] == {"20": "49/100", "21": "23/50", "22": "9/20"}
    assert [e["case"] for e in doc["entries"]] == ["II"] * 3


def test_precision_cap_below_first_level_rejected(capsys):
    code, out, err = run_cli(capsys, "--precision-cap", "63", *SQRT2_LEMMA_Q1E400)
    assert code == 2 and out == ""
    assert "--precision-cap must be >= 64" in err


def test_certificate_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "lemma", "--oracle", "affine:1/-1:const:golden",
        "--c", "3/2", "--c-prime", "19/10",
        "--eps", "499999/1000000", "--Q", "3000",
    )
    assert code == 4
    assert "NEITHER_CASE_CERTIFIED" in err


def test_bug_codes_exit_5(capsys, monkeypatch):
    # a distance that never certifies below 1/Q breaks the pigeonhole
    # guarantee: a bug, not an answer, so not exit 4
    refined = multiform._refined_max_dist

    def too_far(ratios, q):
        _, qs = refined(ratios, q)
        return Enclosure.point(1), qs

    monkeypatch.setattr(multiform, "_refined_max_dist", too_far)
    code, _, err = run_cli(
        capsys, "multi", "dirichlet", "--point", "rat:1,const:sqrt2", "--Q", "10"
    )
    assert code == 5
    assert "PIGEONHOLE_FAILED" in err


def _subcommands(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser) -> set:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


TAU_OPTIONS = {"--point", "--oracle", "--n-max", "--window", "--forms-csv", "--apery"}
MULTI_OPTIONS = {
    "dirichlet": {"--point", "--Q", "--mode"},
    "omega0": {"--point", "--q-bound"},
    "tau": TAU_OPTIONS,
    "nesterenko": TAU_OPTIONS | {"--omega-bound", "--omega-slack"},
}


def test_each_option_is_declared_where_it_is_read():
    top = build_parser()
    verbs = _subcommands(top)
    actions = _subcommands(verbs["multi"])
    assert _options(verbs["multi"]) == set()
    assert {name: _options(p) for name, p in actions.items()} == MULTI_OPTIONS
    assert sum(map(len, MULTI_OPTIONS.values())) == 19
    # one source per input: exactly one of each pair, enforced by argparse
    sources = {
        frozenset(s for a in group._group_actions for s in a.option_strings): group.required
        for p in (verbs["density"], actions["tau"], actions["nesterenko"])
        for group in p._mutually_exclusive_groups
    }
    assert sources == {frozenset({"--u", "--u-csv"}): True, frozenset({"--forms-csv", "--apery"}): True}
    assert "--output" in _options(top)
    parsers = [*verbs.values(), *actions.values()]
    assert not any("--output" in _options(p) for p in parsers)


POINT = "rat:1,const:sqrt2"
FORMS_CSV = str(GOLDEN / "sqrt2_convergents.csv")


@pytest.mark.parametrize("argv,message", [
    (("multi", "dirichlet", "--point", POINT, "--Q", "10", "--q-bound", "100"),
     "unrecognized arguments: --q-bound 100"),
    (("multi", "omega0", "--point", POINT, "--q-bound", "100", "--Q", "10"),
     "unrecognized arguments: --Q 10"),
    (("multi", "tau", "--apery", "3", "--omega-bound", "200"),
     "unrecognized arguments: --omega-bound 200"),
    (("multi", "nesterenko", "--apery", "3", "--mode", "best"),
     "unrecognized arguments: --mode best"),
    (("density", "--oracle", "const:golden", "--u", "1,2,3", "--u-csv", FORMS_CSV),
     "argument --u-csv: not allowed with argument --u"),
    (("multi", "tau", "--apery", "3", "--forms-csv", FORMS_CSV, "--oracle", "const:sqrt2"),
     "argument --forms-csv: not allowed with argument --apery"),
    (("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--rates-csv", str(GOLDEN / "rates.csv"),
      "--alpha", "9", "--beta", "x", "--n", "4:5"),
     "error: BAD_PARAMS: build needs --alpha and --beta, or --rates-csv alone\n"),
    (("--output", "csv", "cf", "--oracle", "bogus", "--depth", "5"),
     "error: BAD_PARAMS: cf: only json output is supported\n"),
    (("--output", "csv", "mu", "--oracle", "const:sqrt2", "--depth", "5"),
     "error: BAD_PARAMS: mu: only json output is supported\n"),
    (("--output", "csv", *SQRT2_LEMMA_Q1E400),
     "error: BAD_PARAMS: lemma: only json output is supported\n"),
    (("--output", "csv", "density", "--oracle", "const:golden", "--u", "1,2,3"),
     "error: BAD_PARAMS: density: only json output is supported\n"),
    (("--output", "csv", "multi", "tau", "--apery", "3"),
     "error: BAD_PARAMS: multi: only json output is supported\n"),
    (("--output", "csv", "suite", "--seed", "1"),
     "error: BAD_PARAMS: suite: only json output is supported\n"),
], ids=["unread-dirichlet", "unread-omega0", "unread-tau", "unread-nesterenko",
        "two-sources-density", "two-sources-tau", "two-sources-build",
        "csv-cf", "csv-mu", "csv-lemma", "csv-density", "csv-multi", "csv-suite"])
def test_what_a_command_does_not_read_exits_2(capsys, argv, message):
    """argparse refuses a flag an action does not read and a second source
    (SystemExit(2)); main refuses csv output for a JSON-only verb before it
    reads any other input (exit 2, BAD_PARAMS)."""
    if message.startswith("error: "):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert err == message
    else:
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        code = info.value.code
        out, err = capsys.readouterr()
        assert message in err
    assert code == 2 and out == ""


def test_suite_single_criterion(capsys):
    code, out, err = run_cli(capsys, "suite", "--seed", "20260823", "--criterion", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["criteria"][0]["index"] == 4
    assert "ACCEPTANCE 4" in err and "PASS" in err


def test_big_quotients_print_in_full(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "cf", "--oracle", "cf:liouville:3", "--depth", "8")
    assert code == 0, err
    # a_8 = 3**(8!) has 19238 digits, past the default int/str limit
    assert len(json.loads(out)["quotients"][8]) == 19238
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # a quotient given with 5000 digits is read as well as printed
    code, out, err = run_cli(capsys, "cf", "--oracle", "cf:[0;" + "1" * 5000 + "]", "--depth", "2")
    assert code == 0, err
    assert json.loads(out)["quotients"] == ["0", "1" * 5000]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


NEAR_ONE = f"{2**200 + 1}/{2**200}"
NEAR_ONE_BUILD = ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2",
                  "--beta", NEAR_ONE, "--n", "1:3")


@pytest.mark.parametrize("cap,code,error", [
    ((), 2, "RATE_VIOLATION"),
    (("--precision-cap", "128"), 3, "INCONCLUSIVE"),
], ids=["default-cap", "cap-128"])
def test_near_one_beta_exits_with_a_typed_error(capsys, cap, code, error):
    # ln(beta)'s 96-bit lower end is 0: this exited 1 with a ZeroDivisionError
    got, out, err = run_cli(capsys, *cap, *NEAR_ONE_BUILD)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {error}")


def test_build_runs_below_a_96_bit_cap(capsys):
    # the steepness bound reads its 96-bit logs whatever the cap: a cap of 64
    # refused this with INCONCLUSIVE "ln(3) not certified positive", exit 3
    argv = ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2", "--beta", "3",
            "--n", "1:5")
    code, out, err = run_cli(capsys, "--precision-cap", "64", *argv)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv)[1]
    assert [e["case"] for e in json.loads(out)["entries"]] == ["I", "II", "II", "II", "II"]


def test_near_one_rate_table_exits_2(capsys, tmp_path):
    rates = tmp_path / "rates.csv"
    rates.write_text("n,Q,eps\n" + "".join(f"{n},{2**200 + n}/{2**200},1/{2**n}\n" for n in (1, 2, 3)))
    code, out, err = run_cli(capsys, "build", "--oracle", "const:sqrt2", "--mu", "21/10",
                             "--rates-csv", str(rates), "--n", "1:3")
    assert (code, out) == (2, "")
    assert err.startswith("error: RATE_VIOLATION: row n=1")


# forms u*sqrt2 - v from the convergents v/u of sqrt2, as l0 = -v, l1 = u
SQRT2_FORMS = [(n, -v, u) for n, (u, v) in enumerate(
    [(1, 1), (2, 3), (5, 7), (12, 17), (29, 41), (70, 99), (169, 239), (408, 577)], 1)]


@pytest.mark.parametrize("argv", [("tau",), ("nesterenko", "--omega-bound", "50")],
                         ids=["tau", "nesterenko"])
def test_forms_csv_reads_the_l_columns_by_index(capsys, tmp_path, argv):
    forms = tmp_path / "forms.csv"
    # the columns are read by name, in any order
    forms.write_text("l1,n,l0\n" + "".join(f"{u},{n},{v}\n" for n, v, u in SQRT2_FORMS))
    code, out, err = run_cli(capsys, "multi", *argv, "--forms-csv", str(forms),
                             "--point", "rat:1,const:sqrt2")
    assert (code, err) == (0, "")
    seq = FormSequence(
        tuple(n for n, _, _ in SQRT2_FORMS),
        tuple(LinearForm((v, u)) for _, v, u in SQRT2_FORMS),
        PointVec((RationalOracle(1), SqrtOracle(2, "sqrt2"))),
    )
    doc = json.loads(out)
    assert doc.get("rate", doc) == _rate_payload(tau_empirical(seq))


@pytest.mark.parametrize("header,missing", [
    ("n,l0,l5", "l1"), ("n,l0,l01", "l1"), ("n,l1,l2", "l0"),
], ids=["gap", "leading-zero", "no-l0"])
@pytest.mark.parametrize("action", ["tau", "nesterenko"])
def test_forms_csv_needs_exactly_l0_to_lr(capsys, tmp_path, action, header, missing):
    # n,l0,l5 and n,l0,l01 were read by rank as n,l0,l1 and exited 0
    forms = tmp_path / "forms.csv"
    forms.write_text(header + "\n" + "".join(f"{n},{v},{u}\n" for n, v, u in SQRT2_FORMS))
    code, out, err = run_cli(capsys, "multi", action, "--forms-csv", str(forms),
                             "--point", "rat:1,const:sqrt2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: BAD_PARAMS: forms csv has no column {missing} of l0..l1")


def test_forms_csv_l_columns_need_a_point(capsys, tmp_path):
    forms = tmp_path / "forms.csv"
    forms.write_text("n,l0,l1\n" + "".join(f"{n},{v},{u}\n" for n, v, u in SQRT2_FORMS))
    code, out, err = run_cli(capsys, "multi", "tau", "--forms-csv", str(forms))
    assert (code, out) == (2, "")
    assert err.startswith("error: BAD_PARAMS: l0..lr ingestion needs --point")
