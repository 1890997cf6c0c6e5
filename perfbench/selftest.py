"""Self-test of the benchmark on tiny variants of its workloads.

    python3 perfbench/selftest.py

Each tiny variant keeps its workload's family, walk, worker count and
whole fleets of 128 trials, on a graph small enough that a sweep takes
about a second.  One traced run per variant (untraced and traced sweeps
alternating) must show that

* the metric names and units it emits are exactly those in
  ``BENCHMARK.json`` (end-to-end and per-layer);
* traced and untraced sweeps of one seed store identical results, so the
  wrappers never change what the program computes;
* the named layers account for at least 95% of every traced sweep's wall
  time (``trace.attributed_frac``).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from typing import List

import run
import sweep

#: Tiny graph sizes per workload, in the workload's own ``--sizes`` units.
TINY_SIZES = {
    "eprocess-regular": "100",
    "srw-hypercube-oracle": "256",
    "srw-torus-pool": "64",
}


def tiny(workload: sweep.Workload) -> sweep.Workload:
    args = list(workload.args)
    args[args.index("--sizes") + 1] = TINY_SIZES[workload.name]
    # The C_V/n band belongs to the full-size graph, not the tiny one.
    return dataclasses.replace(workload, args=tuple(args), cv_band=None)


def check(name: str, seed: int, ctx: sweep.Context, declared: dict) -> List[str]:
    results = run.measure(ctx, tiny(sweep.WORKLOADS[name]), seed, 0.0, trace=True)
    problems = [f"{name}: {p}" for r in results for p in r.problems]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        emitted = {
            k: v["unit"] for k, v in run.summarize(results, trace)["metrics"].items()
        }
        if emitted != declared[section]:
            problems.append(
                f"{name}: {section} metrics {sorted(emitted.items())} differ from "
                f"BENCHMARK.json {sorted(declared[section].items())}"
            )
    if any(r.records != results[0].records or not r.records for r in results):
        problems.append(f"{name}: traced and untraced sweeps stored different results")
    for r in results:
        if r.traced:
            frac = run.per_layer(r, 0.0)["trace.attributed_frac"]
            if frac < 0.95:
                problems.append(f"{name}: layers attribute only {frac:.1%} of wall time")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    declared = {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }
    run.WORKDIR.mkdir(exist_ok=True)
    work = run.WORKDIR / f"selftest-{os.getpid()}"
    work.mkdir()
    try:
        src, _ = run.build(work)
        ctx = sweep.Context(run.ROOT, src, work)
        problems = []
        for name in sweep.WORKLOADS:
            problems += check(name, 1, ctx, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
