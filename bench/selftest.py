"""Self-test of the benchmark: a tiny run of every workload, traced and not.

    python3 bench/selftest.py

It asserts that each run prints, as its last line, every metric that
BENCHMARK.json names, with the unit given there, and no failed op; that a
witness shifted by one (q + 1, or u + 1) on seed 1 is counted as a failed op;
that every op starts with dioph's lru_caches empty; and that the tracer counts
calls made through re-imported names, using the dichotomy instance sqrt2,
c = 3/2, c' = 19/10, eps = 1/1000, Q = 10**40.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import run

TINY = ["--seed", "1", "--seconds", "0", "--min-ops", "3"]


def check_printed_metrics(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name in spec_workloads(spec):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                   "--trace", str(trace), *TINY]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, proc.stderr)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (name, trace, got, declared)
            # fail_frac is 0 on a correct build, which a BENCHMARK.json metric
            # may not be; it is printed, and carried by failed / attempted
            assert trace or "fail_frac        0 fraction" in proc.stdout, proc.stdout
            print(f"ok  {name:6s} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops checked")


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def check_corrupted_witness():
    """A witness shifted by one fails its op. Independent checks see most
    shifts; a shifted witness that is still valid but not the least one (the
    checks cannot search 10**400 candidates) is caught by reference.json."""
    from workloads import WORKLOADS

    with open(run.REFERENCE) as fh:
        refs = json.load(fh)
    for wl in WORKLOADS.values():
        for i, op in enumerate(next(run.cycles(wl, 1))):
            summary = wl.summarize(op, wl.run(op))
            if summary.get("case") != "none":  # an op with a witness
                break
        recorded = refs[wl.name]["1"][i]
        checker = run.Checker(wl, [recorded, recorded])
        assert checker.record(op, summary), (wl.name, op)
        assert not checker.record(op, wl.corrupt(summary)), (wl.name, op)
        assert (checker.attempted, checker.failed) == (2, 1)
        print(f"ok  {wl.name:6s} shifted witness counted as a failed op")


def check_cold_caches():
    """run_cycle empties dioph's process-level caches before every op."""
    import dioph.certlog
    from workloads import WORKLOADS

    caches = [f for f in vars(dioph.certlog).values() if hasattr(f, "cache_info")]
    assert caches
    wl = WORKLOADS["forms"]
    ops = next(run.cycles(wl, 1))
    sizes = []

    def call(op):
        sizes.append(sum(c.cache_info().currsize for c in caches))
        return wl.run(op)

    run.run_cycle(call, ops, run.cache_clearers())
    assert sizes == [0] * len(ops), sizes
    assert sum(c.cache_info().currsize for c in caches) > 0  # the ops do fill them
    print(f"ok  caches: {len(ops)} forms ops each started with empty certlog caches")


def check_tracer_aliases():
    import dioph
    from tracing import Tracer

    params = dioph.LemmaParams(Fraction(3, 2), Fraction(19, 10), Fraction(1, 1000), 10**40)
    tracer = Tracer()
    with tracer:
        res = tracer.run_op(
            lambda: dioph.solve_disjunction(dioph.parse_oracle("const:sqrt2"), params))
    m = tracer.metrics()
    assert m["dichotomy.solve.calls"][0] == 1
    assert m["dichotomy.window_checks"][0] == res.stats.candidates
    # expand and enclose are reached only through dioph.dichotomy's imports
    assert m["contfrac.expand.calls"][0] > 0 and m["oracle.enclose.calls"][0] > 0
    assert m["enclosure.ops"][0] > 0
    # span self times add up to the op's duration
    span_self = sum(s[2] for k, s in tracer.stats.items() if k != "enclosure")
    assert abs(span_self - tracer.stats["op"][1]) <= 1e-6 * tracer.stats["op"][1]
    print(f"ok  tracer: sqrt2 at Q=10**40 made {res.stats.candidates} window checks, "
          f"{m['contfrac.expand.calls'][0]} expand calls, {m['enclosure.ops'][0]} enclosure ops")


def main() -> int:
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_corrupted_witness()
    check_cold_caches()
    check_tracer_aliases()
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
