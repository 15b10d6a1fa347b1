"""Record the witness fingerprints that later runs are compared against.

    python3 bench/make_reference.py            # all workloads
    python3 bench/make_reference.py lemma      # one workload, others kept

For each workload it runs, untimed, the warm-up ops and the first
``DIGEST_OPS`` ops of seeds 0..10, checks every output, and writes the
fingerprints of their witnesses to ``reference.json``. Run it only when the
workloads change: a witness that differs from the recorded one fails its op.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(11)


def record(wl) -> dict:
    out = {}
    clearers = run.cache_clearers()
    for seed in ["warmup", *map(str, SEEDS)]:
        want = run.WARMUP_OPS if seed == "warmup" else run.DIGEST_OPS
        check = run.Checker(wl, None)
        stream = run.cycles(wl, seed)
        while check.attempted < want:
            ops = next(stream)[: want - check.attempted]
            _, _, raws = run.run_cycle(wl.run, ops, clearers)
            check(ops, raws)
        if check.failed:
            sys.exit(f"{wl.name} seed {seed}: {check.failed} ops failed their checks")
        out[seed] = check.fingerprints
        print(wl.name, seed, len(out[seed]), flush=True)
    return out


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    refs = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            refs = json.load(fh)
    for name in names or WORKLOADS:
        refs[name] = record(WORKLOADS[name])
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
