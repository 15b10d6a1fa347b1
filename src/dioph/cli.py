"""Command-line front end.

One verb per operation: cf, mu, lemma, build, density, multi
{dirichlet,omega0,tau,nesterenko}, apery, suite. Output is deterministic
JSON (sorted keys, big integers and exponent scalars as decimal strings,
rationals as "p/q", enclosures as {"lo","hi"}); build and apery can emit
CSV instead. Randomized work never has an entropy default: the suite verb
requires --seed.

Exit codes: 0 success, 2 precondition violations, 3 precision or
representation limits, 4 no certificate exists, 5 a guaranteed certificate
failed to verify (a bug), 1 for a failed acceptance criterion.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .acceptance import run_criterion, run_suite
from .contfrac import expand, mu_estimate
from .dichotomy import LemmaParams, solve_disjunction
from .enclosure import Enclosure
from .errors import DiophError
from .multiform import (
    FormSequence,
    LinearForm,
    PointVec,
    apery_forms,
    dirichlet_witness,
    nesterenko_report,
    omega0_search,
    tau_empirical,
)
from .oracle import DEFAULT_PRECISION_CAP, PRECISION_CAP, convergent_pairs, parse_oracle, parse_rational
from .seqbuild import EtaSchedule, RateSpec, build_sequence, density_data

DEC_PLACES = 12


def _rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _dec(x) -> str:
    """Decimal string truncated toward zero at DEC_PLACES, integer math only."""
    sign = "-" if x < 0 else ""
    n = abs(x.numerator) * 10**DEC_PLACES // x.denominator
    q, r = divmod(n, 10**DEC_PLACES)
    return f"{sign}{q}.{r:0{DEC_PLACES}d}"


def _enc(e: Enclosure) -> dict:
    return {"lo": _rat(e.lo), "hi": _rat(e.hi)}


def _emit(payload) -> int:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")
    return 0


def _emit_csv(header, rows) -> int:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DiophError("BAD_PARAMS", f"not an integer: {text!r}") from exc


def _read_csv(path: str, *columns) -> tuple:
    """(header, rows as dicts) of a CSV file; BAD_PARAMS when it cannot be
    read or its header lacks one of ``columns``. Short rows read ""."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            fields, rows = reader.fieldnames or [], list(reader)
    except (OSError, UnicodeError, csv.Error) as exc:
        raise DiophError("BAD_PARAMS", f"cannot read {path}: {exc}") from exc
    missing = [c for c in columns if c not in fields]
    if missing:
        raise DiophError("BAD_PARAMS", f"{path} has no column {', '.join(missing)}")
    return fields, rows


def _parse_span(text: str) -> tuple:
    """Inclusive integer span written a:b."""
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise DiophError("BAD_PARAMS", f"not a span a:b: {text!r}") from exc
    if lo > hi:
        raise DiophError("BAD_PARAMS", f"empty span {text!r}")
    return lo, hi


def _split_specs(text: str) -> list:
    """Comma-separated oracle specs, stripped, blanks dropped; a bracketed
    list and the commas in it stay in one spec."""
    return [s for s in map(str.strip, re.findall(r"(?:\[[^\]]*\]?|[^,\[])+", text)) if s]


def _point_from(text: str) -> PointVec:
    return PointVec(tuple(parse_oracle(s) for s in _split_specs(text)))


def _cmd_cf(args) -> int:
    oracle = parse_oracle(args.oracle)
    cf = expand(oracle, args.depth)
    pairs = enumerate(convergent_pairs(cf.quotients))
    return _emit(
        {
            "convergents": [{"k": k, "p": str(p), "q": str(q)} for k, (p, q) in pairs],
            "depth": args.depth,
            "oracle": oracle.spec,
            "quotients": [str(a) for a in cf.quotients],
            "terminated": cf.terminated,
        }
    )


def _cmd_mu(args) -> int:
    oracle = parse_oracle(args.oracle)
    est = mu_estimate(oracle, args.depth)
    return _emit(
        {
            "depth": est.depth,
            "mu_lower": _dec(est.mu_lower),
            "mu_lower_exact": _rat(est.mu_lower),
            "oracle": oracle.spec,
            "witness_index": est.witness_index,
        }
    )


def _cmd_lemma(args) -> int:
    oracle = parse_oracle(args.oracle)
    params = LemmaParams(
        parse_rational(args.c),
        parse_rational(args.c_prime),
        parse_rational(args.eps),
        parse_rational(args.big_q),
    )
    res = solve_disjunction(oracle, params)
    payload = {
        "Q": _rat(params.Q),
        "c": _rat(params.c),
        "c_prime": _rat(params.c_prime),
        "eps": _rat(params.eps),
        "outcome": "II" if res.outcome == "case_ii" else "I",
        "stats": {
            "candidates": res.stats.candidates,
            "precision_bits": res.stats.precision_bits,
        },
    }
    if res.outcome == "case_ii":
        payload["witness"] = {"p": str(res.witness.p), "q": str(res.witness.q)}
        payload["residual"] = _enc(res.residual)
    else:
        payload["witness"] = {
            "bound_dist": _rat(res.witness.bound_dist),
            "bound_u": _rat(res.witness.bound_u),
            "u": str(res.witness.u),
            "v": str(res.witness.v),
        }
    return _emit(payload)


def _load_eta(path: Optional[str]) -> Optional[EtaSchedule]:
    if path is None:
        return None
    _, rows = _read_csv(path, "n", "eta")
    return EtaSchedule.custom([(_int(r["n"]), parse_rational(r["eta"])) for r in rows])


def _load_rates(path: str) -> RateSpec:
    _, rows = _read_csv(path, "n", "Q", "eps")
    return RateSpec.from_table(
        [(_int(r["n"]), parse_rational(r["Q"]), parse_rational(r["eps"])) for r in rows]
    )


def _cmd_build(args) -> int:
    oracle = parse_oracle(args.oracle)
    given = [x is not None for x in (args.rates_csv, args.alpha, args.beta)]
    if given not in ([True, False, False], [False, True, True]):
        raise DiophError("BAD_PARAMS", "build needs --alpha and --beta, or --rates-csv alone")
    if args.rates_csv is not None:
        rates = _load_rates(args.rates_csv)
    else:
        rates = RateSpec(parse_rational(args.alpha), parse_rational(args.beta))
    lo, hi = _parse_span(args.n)
    res = build_sequence(
        oracle,
        parse_rational(args.mu),
        rates,
        range(lo, hi + 1),
        eta=_load_eta(args.eta_csv),
        rate_slack=parse_rational(args.rate_slack),
    )
    if args.output == "csv":
        return _emit_csv(
            ["n", "case", "u", "v", "ratio_u", "res_lo", "res_hi"],
            (
                [
                    e.n,
                    e.case_taken.upper(),
                    e.u,
                    e.v,
                    _rat(e.ratio_u),
                    _rat(e.residual.lo),
                    _rat(e.residual.hi),
                ]
                for e in res.entries
            ),
        )
    return _emit(
        {
            "entries": [
                {
                    "case": e.case_taken.upper(),
                    "n": e.n,
                    "ratio_res": _enc(e.ratio_res),
                    "ratio_u": _rat(e.ratio_u),
                    "residual": _enc(e.residual),
                    "u": str(e.u),
                    "v": str(e.v),
                }
                for e in res.entries
            ],
            "eta": {str(n): _rat(v) for n, v in res.eta_used.items()},
            "shift": str(res.shift),
        }
    )


def _cmd_density(args) -> int:
    oracle = parse_oracle(args.oracle)
    if args.u is not None:
        u_seq = [_int(s) for s in args.u.split(",")]
    else:
        u_seq = [_int(r["u"]) for r in _read_csv(args.u_csv, "u")[1]]
    dd = density_data(u_seq, oracle)
    return _emit(
        {
            "alpha_xi": _rat(dd.alpha_xi),
            "beta_u": _rat(dd.beta_u),
            "count": len(u_seq),
            "nu_estimate": _dec(dd.nu_estimate),
            "oracle": oracle.spec,
        }
    )


def _load_forms(args):
    """Form sequence from --apery, or from a CSV of n,u,v or n,l0..lr rows."""
    if args.apery is not None:
        return apery_forms(args.apery, args.n_max)
    fields, rows = _read_csv(args.forms_csv, "n")
    if "u" in fields and "v" in fields:
        if not args.oracle:
            raise DiophError("BAD_PARAMS", "u,v ingestion needs --oracle")
        oracle = parse_oracle(args.oracle)
        return FormSequence.from_uv(
            [(_int(r["n"]), _int(r["u"]), _int(r["v"])) for r in rows], oracle
        )
    width = sum(1 for f in fields if f.startswith("l") and f[1:].isdigit())
    if not width:
        raise DiophError("BAD_PARAMS", "forms csv needs u,v or l0..lr columns")
    coeff_cols = [f"l{j}" for j in range(width)]
    missing = next((c for c in coeff_cols if c not in fields), None)
    if missing:
        raise DiophError("BAD_PARAMS", f"forms csv has no column {missing} of l0..l{width - 1}")
    if not args.point:
        raise DiophError("BAD_PARAMS", "l0..lr ingestion needs --point")
    point = _point_from(args.point)
    ns = [_int(r["n"]) for r in rows]
    forms = [LinearForm(tuple(_int(r[c]) for c in coeff_cols)) for r in rows]
    return FormSequence(tuple(ns), tuple(forms), point)


def _rate_payload(est) -> dict:
    # Rate scalars come out of log enclosures and can have huge exact
    # denominators, so they are reported as truncated decimals.
    return {
        "alpha_hat": _dec(est.alpha_hat),
        "beta_hat": _dec(est.beta_hat),
        "decayed": est.decayed,
        "method": est.method,
        "regular": est.regular,
        "tau_hat": _dec(est.tau_hat),
        "window": list(est.window),
    }


def _cmd_multi(args) -> int:
    if args.action == "dirichlet":
        point = _point_from(args.point)
        w = dirichlet_witness(point, args.big_q, mode=args.mode)
        return _emit(
            {
                "Q": str(args.big_q),
                "dist": _enc(w.dist),
                "mode": args.mode,
                "omega_point": _dec(w.omega_point),
                "q0": str(w.q0),
                "qs": [str(q) for q in w.qs],
                "search_bound": str(w.search_bound),
                "within_dirichlet": w.within_dirichlet,
            }
        )
    if args.action == "omega0":
        point = _point_from(args.point)
        rep = omega0_search(point, args.q_bound)
        return _emit(
            {
                "best_dist": _enc(rep.best_dist),
                "best_q": str(rep.best_q),
                "omega_best": _dec(rep.omega_best),
                "omega_tail": _dec(rep.omega_tail),
                "q_bound": str(rep.q_bound),
                "tail_dist": _enc(rep.tail_dist),
                "tail_q": str(rep.tail_q),
            }
        )
    seq = _load_forms(args)
    window = _parse_span(args.window) if args.window else None
    if args.action == "tau":
        est = tau_empirical(seq, window=window)
        return _emit(_rate_payload(est))
    rep = nesterenko_report(
        seq,
        args.omega_bound,
        window=window,
        slack=parse_rational(args.omega_slack),
    )
    return _emit(
        {
            "consistent": rep.consistent,
            "implied_dim_bound": _dec(rep.implied_dim_bound),
            "omega_tail": _dec(rep.omega_tail),
            "rate": _rate_payload(rep.rate),
            "tau_hat": _dec(rep.tau_hat),
        }
    )


def _cmd_apery(args) -> int:
    seq = apery_forms(args.s, args.n_max)
    rows = []
    for n, form, scale in zip(seq.ns, seq.forms, seq.scales):
        u = form.coeffs[1]
        v = -form.coeffs[0]
        rows.append(
            {
                "a": str(Fraction(u) / scale),
                "b": str(Fraction(v) / scale),
                "n": n,
                "scale": str(scale),
                "u": str(u),
                "v": str(v),
            }
        )
    if args.output == "csv":
        header = ["n", "a", "b", "u", "v", "scale"]
        return _emit_csv(header, ([r[k] for k in header] for r in rows))
    return _emit({"rows": rows, "s": args.s})


def _cmd_suite(args) -> int:
    if args.criterion is not None:
        results = [run_criterion(args.criterion, args.seed)]
    else:
        results = run_suite(args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"ACCEPTANCE {r.index} {r.name}: {status} ({r.detail}) [{r.elapsed:.1f}s]",
            file=sys.stderr,
        )
    _emit(
        {
            "all_passed": all(r.passed for r in results),
            "criteria": [
                {
                    "detail": r.detail,
                    "index": r.index,
                    "name": r.name,
                    "passed": r.passed,
                }
                for r in results
            ],
            "seed": args.seed,
        }
    )
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dioph",
        description="Certified Diophantine approximation toolkit.",
    )
    parser.add_argument(
        "--precision-cap",
        type=int,
        default=DEFAULT_PRECISION_CAP,
        metavar="BITS",
        help="global enclosure refinement cap (default 2**20 bits)",
    )
    parser.add_argument(
        "--output", choices=("json", "csv"), default="json",
        help="output format where supported (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued-fraction expansion")
    p.add_argument("--oracle", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("mu", help="irrationality-exponent lower estimate")
    p.add_argument("--oracle", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("lemma", help="case (i)/(ii) dichotomy witness")
    p.add_argument("--oracle", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--c-prime", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--Q", dest="big_q", required=True)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("build", help="rate-prescribed sequence construction")
    p.add_argument("--oracle", required=True)
    p.add_argument("--mu", required=True, help="exponent upper bound")
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--rates-csv", default=None, help="table rates, header n,Q,eps")
    p.add_argument("--n", required=True, help="index span a:b, inclusive")
    p.add_argument("--eta-csv", default=None, help="custom bands, header n,eta")
    p.add_argument("--rate-slack", default="1/20")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("density", help="density data for a denominator sequence")
    p.add_argument("--oracle", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--u", help="comma-separated denominators")
    source.add_argument("--u-csv", help="CSV with a u column")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("multi", help="simultaneous / multi-form operations")
    p.set_defaults(func=_cmd_multi)
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("dirichlet", help="Dirichlet-bound simultaneous witness")
    p.add_argument("--point", required=True, help="comma-separated oracle specs")
    p.add_argument("--Q", dest="big_q", type=int, required=True)
    p.add_argument("--mode", choices=("first", "best"), default="first")
    p = actions.add_parser("omega0", help="simultaneous exponent search")
    p.add_argument("--point", required=True, help="comma-separated oracle specs")
    p.add_argument("--q-bound", type=int, required=True)

    forms = argparse.ArgumentParser(add_help=False)  # what tau and nesterenko read
    forms.add_argument("--point", help="coordinates for l0..lr form ingestion")
    forms.add_argument("--oracle", help="value for u,v form ingestion")
    source = forms.add_mutually_exclusive_group(required=True)
    source.add_argument("--forms-csv", help="forms, header n,u,v or n,l0..lr")
    source.add_argument("--apery", type=int, choices=(2, 3))
    forms.add_argument("--n-max", type=int, default=200)
    forms.add_argument("--window", help="measurement span a:b")
    actions.add_parser("tau", parents=[forms], help="decay and growth rates of forms")
    p = actions.add_parser("nesterenko", parents=[forms], help="Nesterenko dimension bound")
    p.add_argument("--omega-bound", type=int, default=10**4)
    p.add_argument("--omega-slack", default="1/10")

    p = sub.add_parser("apery", help="reference form families")
    p.add_argument("--s", type=int, choices=(2, 3), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_apery)

    p = sub.add_parser("suite", help="acceptance battery")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--criterion", type=int, default=None, choices=range(1, 9))
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.precision_cap < 64:
        print("error: --precision-cap must be >= 64", file=sys.stderr)
        return 2
    token = PRECISION_CAP.set(args.precision_cap)
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)  # big quotients print in full
    try:
        if args.output == "csv" and args.command not in ("build", "apery"):
            raise DiophError("BAD_PARAMS", f"{args.command}: only json output is supported")
        return args.func(args)
    except DiophError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        PRECISION_CAP.reset(token)
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
