"""Benchmark of the dioph toolkit: four seeded workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload lemma --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load is one client in a closed loop in a single thread: the next op starts
when the previous one returns. One invocation measures one workload in its
own process, so ``peak_rss_mb`` and ``setup_s`` belong to that workload
(``--workload all`` runs each workload in a child process, one after another).

A run goes: set-up (fresh interpreters import ``dioph`` and ``dioph.cli``),
a few untimed warm-up ops from a fixed seed of their own, then timed passes
over the seed's first cycles (the workload's ``min_ops`` ops at least) until
``--seconds`` of op time are done, one pass at least. Every op starts with
dioph's process-level caches empty, as a CLI call does; they are cleared off
the clock. ``ops_per_s`` is ops completed per second of op time over all
passes. The machine is shared and its speed drifts, so op and set-up times
are scaled by a speed probe (see ``PROBE_REF_S``), and an op's latency is the
median of its scaled executions over the passes. The unscaled
``raw_ops_per_s`` and ``raw_setup_s`` are printed too. Outputs are checked
after the clock stops. With ``--trace 1`` the same op list runs once
untraced and once traced, and the per-layer metrics of the traced pass are
printed instead; their counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the warm-up and timed ops, all of which are checked; an op fails when it
raises, when its output fails its check, or when its witnesses differ from
those recorded in ``reference.json``.
"""

from __future__ import annotations

import argparse
import array
import collections
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 11
WARMUP_OPS = 10  # untimed ops from the warm-up seed
DIGEST_OPS = 100  # ops of a seed covered by the printed digest and reference.json

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Speed probe. The machine is shared: the same lemma op list ran anywhere
# from 1x to 1.4x its quickest time within one hour, in spells of seconds to
# tens of minutes, and the spells slow a fixed pure-Python big-integer kernel
# by a similar factor (a little more: against the kernel's time, op times
# rise with a log-log slope of 0.75-0.86, so a slow spell reads slightly
# fast). Unscaled, ten-seed spreads of lemma reached 0.23-0.26 of the median;
# scaled, they stay below 0.1. So the kernel runs (least of 3 back-to-back runs)
# before an op whenever PROBE_EVERY_S of op time has passed since the last
# probe, and each op time is multiplied by PROBE_REF_S / probe (median of the
# last PROBE_WINDOW probes). Times are thus reported as on a machine where the
# kernel takes PROBE_REF_S, its time on a quiet 2-vCPU Xeon VM with Python
# 3.11.7. The unscaled figures are printed beside them.
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5
PROBE_REF_S = 1.2e-4
_PROBE_MOD = 10**120 + 7


def _probe_kernel():
    a, b = 3**200, 7**150
    for i in range(1, 120):
        a, b = b, (a * i + b) % _PROBE_MOD
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(a % (i * 1000003), b % (i * 999983) + 1)


def speed() -> float:
    """Current machine speed relative to the reference: PROBE_REF_S / probe."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return PROBE_REF_S / best


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import dioph, dioph.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); from run import speed; print(t, t * speed())"
)


def import_seconds():
    """Median (unscaled, scaled) time for a fresh interpreter to import dioph
    and dioph.cli; each child probes its own speed right after the import."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-E", "-s", "-c", IMPORT_PROBE, SRC, HERE],
            check=True, capture_output=True, text=True, timeout=60,
        )
        r, sc = map(float, out.stdout.split())
        raw.append(r)
        scaled.append(sc)
    return statistics.median(raw), statistics.median(scaled)


def cache_clearers():
    """``cache_clear`` of every process-level cache in the loaded dioph modules.

    A CLI call starts with these caches empty, and so does every timed op:
    an op must not run faster because an earlier op or pass filled them.
    """
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "dioph" or name.startswith("dioph."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj.cache_clear
    return list(found.values())


def cycles(wl, seed):
    """The seed's op stream, one cycle at a time."""
    rng = random.Random(f"{wl.name}:{seed}")
    for k in itertools.count():
        yield wl.cycle(rng, k)


def run_cycle(call, ops, clearers):
    """Run ``ops`` back to back, each from empty caches (cleared off the clock).

    Returns (unscaled op seconds, per-op scaled seconds, raw results); the
    speed probes are off the clock.
    """
    clock = time.perf_counter
    lats, raws = [], []
    op_time, last_probe, scale = 0.0, -math.inf, 1.0
    probes = collections.deque(maxlen=PROBE_WINDOW)
    for op in ops:
        if op_time - last_probe >= PROBE_EVERY_S:
            probes.append(speed())
            scale, last_probe = statistics.median(probes), op_time
        for clear in clearers:
            clear()
        t0 = clock()
        try:
            raw = call(op)
        except Exception as exc:  # a raised error is the op's output; checked later
            raw = exc
        lat = clock() - t0
        op_time += lat
        lats.append(lat * scale)
        raws.append(raw)
    return op_time, lats, raws


class Checker:
    """Checks ops outside the timed region and keeps the witness fingerprints."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference or []
        self.fingerprints = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, ops, raws):
        for op, raw in zip(ops, raws):
            try:
                summary = self.wl.summarize(op, raw)
            except Exception:  # a checker crash fails the op, with the reason shown
                traceback.print_exc(file=sys.stderr)
                summary = {"error": "summarize"}
            self.record(op, summary)

    def record(self, op, summary) -> bool:
        """Check one op's summary and count it; False when it failed."""
        from workloads import fingerprint

        i = len(self.fingerprints)
        try:
            ok = self.wl.check(op, summary)
            fp = fingerprint(summary)
        except Exception:  # a checker crash fails the op, with the reason shown
            traceback.print_exc(file=sys.stderr)
            ok, fp = False, "check-error"
        if i < len(self.reference) and self.reference[i] != fp:
            ok = False
        if not ok:
            print(f"FAILED op {op!r}: {summary!r}", file=sys.stderr)
        self.fingerprints.append(fp)
        self.attempted += 1
        self.failed += not ok
        return ok

    def digest(self) -> str:
        text = ",".join(self.fingerprints[:DIGEST_OPS])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: n - ceil(p n) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def warm_up(wl, refs, clearers):
    """Untimed ops from the fixed warm-up seed, checked against reference.json."""
    check = Checker(wl, refs.get("warmup"))
    ops = first_ops(wl, "warmup", WARMUP_OPS)[:WARMUP_OPS]
    _, _, raws = run_cycle(wl.run, ops, clearers)
    check(ops, raws)
    return check


def first_ops(wl, seed, min_ops):
    """The seed's first whole cycles, ``min_ops`` ops at least."""
    ops = []
    stream = cycles(wl, seed)
    while len(ops) < min_ops:
        ops.extend(next(stream))
    return ops


def measure(wl, seed, seconds, min_ops, refs, clearers):
    """Time passes over one op list; an op's latency is its median pass.

    Passes alternate direction, so the executions of one op are spread over
    the run. The first pass is checked in full; later passes must give the
    same witnesses. Returns (checker, per-op median scaled seconds, passes,
    scaled and unscaled op seconds of all passes).
    """
    from workloads import fingerprint

    ops = first_ops(wl, seed, min_ops)
    check = Checker(wl, refs.get(str(seed)))
    runs = []  # per pass, the scaled latency of each op in list order
    passes, timed, scaled = 0, 0.0, 0.0
    while passes == 0 or timed < seconds:
        order = list(range(len(ops)))
        if passes % 2:
            order.reverse()
        wall, lats, raws = run_cycle(wl.run, [ops[i] for i in order], clearers)
        timed += wall
        scaled += sum(lats)
        run_lats = array.array("d", bytes(8 * len(ops)))
        for i, lat in zip(order, lats):
            run_lats[i] = lat
        runs.append(run_lats)
        if passes == 0:
            check([ops[i] for i in order], raws)
            first = dict(zip(order, check.fingerprints))
        else:
            for i, raw in zip(order, raws):
                same = fingerprint(wl.summarize(ops[i], raw)) == first[i]
                if not same:
                    print(f"FAILED op {ops[i]!r}: pass {passes} gave {raw!r}", file=sys.stderr)
                check.attempted += 1
                check.failed += not same
        del raws  # the next pass must not run while this one's results are held
        passes += 1
    medians = [statistics.median([r[i] for r in runs]) for i in range(len(ops))]
    return check, medians, passes, scaled, timed


def measure_traced(wl, seed, min_ops, refs, clearers):
    """The seed's first cycles (``min_ops`` ops at least) untraced, then traced.

    The two scaled op-time sums give the tracing overhead; the tracer's own
    times are unscaled.
    """
    from tracing import Tracer

    ops = first_ops(wl, seed, min_ops)
    plain = Checker(wl, refs.get(str(seed)))
    _, lats, raws = run_cycle(wl.run, ops, clearers)
    t_plain = sum(lats)
    plain(ops, raws)
    traced = Checker(wl, refs.get(str(seed)))
    tracer = Tracer()
    with tracer:
        _, lats, raws = run_cycle(lambda op: tracer.run_op(wl.run, op), ops, clearers)
    t_traced = sum(lats)
    traced(ops, raws)
    return plain, traced, tracer, t_plain, t_traced


def emit(check_list, metrics, lines):
    """Print the human-readable lines, then the result as the last line."""
    for line in lines:
        print(line)
    attempted = sum(c.attempted for c in check_list)
    failed = sum(c.failed for c in check_list)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            refs = json.load(fh).get(wl.name, {})
    build_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        next(cycles(wl, f"setup{i}"))
        build_times.append(time.perf_counter() - t0)
    import_raw, import_s = import_seconds()
    build_s = statistics.median(build_times)
    setup_raw = import_raw + build_s
    setup_s = import_s + build_s * statistics.median(speed() for _ in range(PROBE_WINDOW))
    min_ops = args.min_ops or wl.min_ops
    clearers = cache_clearers()
    warm = warm_up(wl, refs, clearers)
    head = f"workload={wl.name} seed={args.seed} warmup_ops={warm.attempted}"

    if args.trace:
        plain, traced, tracer, t_plain, t_traced = measure_traced(wl, args.seed, min_ops, refs, clearers)
        metrics = tracer.metrics()
        metrics["cli.import_ms"] = (import_s * 1000, "ms")
        metrics["trace.overhead_frac"] = (t_traced / t_plain - 1, "fraction")
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.jsonl")
        tracer.write_spans(span_path)
        span_path = os.path.relpath(span_path, ROOT)
        shares = " ".join(f"{k}={v:.3f}" for k, v in
                          sorted(tracer.layer_shares().items(), key=lambda kv: -kv[1]))
        lines = [
            f"{head} traced_ops={traced.attempted} untraced_s={t_plain:.3f} "
            f"traced_s={t_traced:.3f} spans={span_path}",
            f"self-time shares: {shares}",
        ] + [f"  {name:30s} {v:.6g} {u}" for name, (v, u) in metrics.items()]
        emit([warm, plain, traced], metrics, lines)
        return 0

    check, lats, passes, scaled, timed = measure(wl, args.seed, args.seconds, min_ops, refs, clearers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(lats)
    metrics = {
        "ops_per_s": (n * passes / scaled, "1/s"),
        "latency_p50_ms": (statistics.median(lats) * 1000, "ms"),
        "latency_p90_ms": (percentile(lats, 0.9) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    fail_frac = (warm.failed + check.failed) / (warm.attempted + check.attempted)
    lines = [
        f"{head} ops={n} passes={passes} beyond_p90={n - math.ceil(0.9 * n)} "
        f"timed_s={timed:.3f} raw_ops_per_s={n * passes / timed:.6g} "
        f"raw_setup_s={setup_raw:.6g} digest={check.digest()}",
    ] + [
        f"  {name:16s} {metrics[name][0]:.6g} {unit} ({better} is better)"
        for name, unit, better in END_TO_END
    ] + [f"  {'fail_frac':16s} {fail_frac:.6g} fraction (lower is better)"]
    emit([warm, check], metrics, lines)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another.

    Prints each child's output in full, then one JSON line with the totals
    and every workload's metrics, named ``<workload>.<metric>``.
    """
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--min-ops", str(args.min_ops)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="")
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 1 if total["failed"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=0,
                        help="ops in the timed list (default: the workload's own, >= 100)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dioph", "__init__.py")):
        print(f"error: no dioph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dioph.cli  # noqa: F401  (held as by a CLI process, so peak_rss_mb counts it)

    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
