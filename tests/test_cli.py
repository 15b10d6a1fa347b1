import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dioph
from dioph import multiform
from dioph.cli import main
from dioph.enclosure import Enclosure
from dioph.oracle import PRECISION_CAP


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
], ids=["liouville-base", "affine-int", "affine-zero-den", "u-list", "u-csv-missing",
        "rates-csv-columns", "rational-flag"])
def test_malformed_input_exits_2(capsys, code, argv):
    exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == 2 and out == ""
    assert err.startswith(f"error: {code}: ")


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


def test_csv_rejected_where_unsupported(capsys):
    code, _, err = run_cli(
        capsys, "--output", "csv", "mu", "--oracle", "const:sqrt2", "--depth", "5"
    )
    assert code == 2
    assert "only json" in err


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
