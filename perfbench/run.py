"""End-to-end benchmark of cold ``repro sweep`` runs, with a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation copies ``src/``
into a working directory it owns (``.perfbench/run-<pid>/``), compiles
the native kernel ``_fused.c`` into that copy (never into ``src/``),
then runs cold sweeps of the workload -- each a fresh ``python -m repro
sweep`` process on a fresh store -- until ``--seconds`` are used up,
gating every sweep for correctness.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count trials,
and ``metrics`` holds the medians over the run's sweeps -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of traced
sweeps with ``--trace 1``.  Each result is also appended, with the
kernel's provenance, to ``.perfbench/results.jsonl`` for ``compare.py``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from typing import Dict, List, Tuple

import sweep
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

#: Flags setuptools would pass for the optional extension (minus -g/-Wall).
KERNEL_CFLAGS = ["-O3", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared"]

#: Fewest sweeps of the reported kind (untraced, or traced) in one run.
MIN_SWEEPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sweep_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

#: Program telemetry counters reported as they are (parent process only).
COUNTERS = (
    "fleet.blocks", "fleet.lane_steps", "fleet.compactions", "fleet.tail_handoffs",
    "fleet.native_fleets", "fleet.numpy_fleets", "fleet.block_fleets",
    "fleet.oracle_fleets", "wordbank.draws", "wordbank.refills",
    "runner.retries", "runner.worker_crashes", "store.checkpoint_retries",
    "store.lock_waits",
)


class BuildError(Exception):
    """The program under test could not be prepared."""


def build(work: Path) -> Tuple[Path, Dict]:
    """Copy ``src/`` into ``work`` and compile the native kernel into it."""
    src = ROOT / "src"
    kernel = src / "repro" / "engine" / "native" / "_fused.c"
    if not kernel.is_file():
        raise BuildError(f"no kernel source at {kernel.relative_to(ROOT)}; run from a checkout")
    copy = work / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    target = kernel.parent.relative_to(src) / f"_fused{sysconfig.get_config_var('EXT_SUFFIX')}"
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    try:
        subprocess.run(
            [cc, *KERNEL_CFLAGS, "-o", str(copy / target), str(kernel)],
            check=True, capture_output=True, text=True,
        )
        cc_version = subprocess.run(
            [cc, "-dumpfullversion", "-dumpversion"], check=True, capture_output=True,
            text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or exc
        raise BuildError(f"compiling {kernel.name} with {cc} failed: {detail}") from exc
    # Users import from cached bytecode; so do the timed sweeps.
    compileall.compile_dir(str(copy), quiet=1)
    sys.path.insert(0, str(copy))
    import repro
    from repro.engine import native

    if not Path(repro.__file__).resolve().is_relative_to(copy.resolve()):
        raise BuildError(f"repro imports from {repro.__file__}, not from the build copy")
    if native.kernel_path() != str(copy / target):
        raise BuildError(f"native kernel not loaded: {native.unavailable_reason()}")
    provenance = {
        "native": True,
        "kernel": str(target),
        "abi": native.ABI_VERSION,
        "cc": f"{cc} {cc_version}",
        "cflags": " ".join(KERNEL_CFLAGS),
        "kernel_sha256": hashlib.sha256(kernel.read_bytes()).hexdigest(),
        "python": sys.version.split()[0],
    }
    return copy, provenance


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(results: List[sweep.SweepResult]) -> Dict[str, float]:
    """Medians over untraced sweeps; ``verified_frac`` over every sweep."""
    timed = [r for r in results if r.process.exit_code == 0 and not r.traced]
    ok = [r.process for r in timed]
    steps = [r.steps / (r.process.wall_s - r.process.setup_s) for r in timed]
    attempted = sum(r.requested for r in results)
    failed = sum(r.failed for r in results)
    return {
        "wall_s": _median([p.wall_s for p in ok]),
        "setup_s": _median([p.setup_s for p in ok]),
        "sweep_steps_per_s": _median(steps),
        "peak_rss_mb": _median([p.peak_rss_mb for p in ok]),
        "verified_frac": 1.0 - failed / attempted,
    }


def per_layer(r: sweep.SweepResult, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep (see README.md for each)."""
    shares, counts = r.shares, r.counts
    tel = r.manifest.get("counters", {})
    m = {
        name: sum(shares.get(span, 0.0) for span in spans)
        for name, spans in tracer.LAYER_SPANS.items()
    }
    attributed = sum(m.values())
    m["graphs.builds"] = counts.get("span:graphs.build", 0)
    m["graphs.build_ms_per_trial"] = 1000.0 * m["graphs.build_s"] / r.requested
    m["graphs.csr_calls"] = counts.get("span:graphs.csr", 0)
    m["graphs.csr_builds"] = counts.get("graphs.csr_builds", 0)
    m["graphs.regular_attempts_per_graph"] = _ratio(
        counts.get("graphs.regular_calls", 0), counts.get("graphs.connected_calls", 0)
    )
    lane_steps = tel.get("fleet.lane_steps", 0)
    m["engine.lane_steps_per_s"] = _ratio(lane_steps, m["engine.fleet_s"])
    lanes_per_fleet = _ratio(tel.get("fleet.lanes", 0), tel.get("fleet.fleets", 0))
    m["engine.lane_occupancy"] = _ratio(lane_steps, tel.get("fleet.block_steps", 0) * lanes_per_fleet)
    for name in COUNTERS:
        m[name] = tel.get(name, 0)
    panel = tel.get("wordbank.panel_words", 0)
    accepted = tel.get("wordbank.draws", 0) - tel.get("wordbank.panel_exhausted", 0)
    m["wordbank.reject_frac"] = _ratio(panel - accepted, panel)
    m["store.records"] = counts.get("span:store.record", 0)
    wall = r.process.wall_s
    m["trace.wall_s"] = wall
    m["trace.attributed_frac"] = attributed / wall
    m["trace.unattributed_s"] = wall - attributed
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.missing_hooks"] = counts.get("trace.missing_hooks", 0)
    return m


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "steps/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_trial"):
        return "ms"
    if name.endswith(("_frac", "_occupancy", "_per_graph")):
        return "ratio"
    return "count"


def measure(
    ctx: sweep.Context, workload: sweep.Workload, seed: int, seconds: float, trace: bool
) -> List[sweep.SweepResult]:
    """Sweep until ``seconds`` are spent; returns every gated sweep.

    The first sweep gets the full correctness gate and every later one is
    checked against it.  Under ``trace`` untraced and traced sweeps
    alternate.  A new sweep starts only if the mean sweep so far still
    fits, and at least ``MIN_SWEEPS`` of the measured kind are made.
    """
    results: List[sweep.SweepResult] = []
    took: List[float] = []
    start = time.monotonic()
    while True:
        traced = trace and len(results) % 2 == 1
        t = time.monotonic()
        r = sweep.cold_sweep(
            ctx, workload, seed, traced=traced, reference=results[0] if results else None
        )
        took.append(time.monotonic() - t)
        results.append(r)
        p = r.process
        print(
            f"{workload.name} seed={seed} {'traced' if traced else 'untraced'}: "
            f"wall {p.wall_s:.3f}s setup {p.setup_s:.3f}s rss {p.peak_rss_mb:.0f}MB "
            f"steps {r.steps} C/n {r.cv_over_n:.4f} {'; '.join(r.problems) or 'ok'}",
            file=sys.stderr, flush=True,
        )
        measured = sum(1 for x in results if x.traced == trace)
        if (
            traced == trace
            and measured >= MIN_SWEEPS
            and time.monotonic() - start + statistics.fmean(took) > seconds
        ):
            return results


def summarize(results: List[sweep.SweepResult], trace: bool) -> Dict:
    """The result object: trial counts plus end-to-end or per-layer medians."""
    metrics = end_to_end(results)
    if trace:
        layers = [per_layer(r, metrics["wall_s"]) for r in results if r.traced]
        metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
        units = {name: _unit(name) for name in metrics}
    else:
        units = END_TO_END
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r.requested for r in results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(sweep.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)
    work = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        try:
            src, provenance = build(work)
        except BuildError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(f"perfbench: kernel {provenance}", file=sys.stderr, flush=True)
        ctx = sweep.Context(ROOT, src, work)
        results = measure(
            ctx, sweep.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
        result = summarize(results, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        provenance=provenance, **result,
    )
    with open(WORKDIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
