"""Workloads, one cold ``repro sweep``, and the correctness gate around it.

Every sweep is a real process started from the benchmark, with a fresh
store in its own temporary directory that is deleted afterwards.  The
gate runs after the timed process has exited, so it never counts
towards a timing metric.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracer

TRACER = Path(tracer.__file__).resolve()

#: Trials per lockstep fleet under ``--engine fleet`` (the runner's default).
FLEET_K = 128

#: Band of the E-process's normalized vertex cover time C_V/n on random
#: 4-regular graphs, from the d=4 column of ``benchmarks/out/E1_figure1.txt``
#: (n = 1000 .. 16000).
EPROCESS_D4_BAND = (1.96, 2.00)


@dataclass(frozen=True)
class Workload:
    """One pinned ``repro sweep`` invocation (minus seed and store)."""

    name: str
    args: Tuple[str, ...]
    trials: int
    #: ``(lo, hi)`` band for the mean C_V/n, or None for no band check.
    cv_band: Optional[Tuple[float, float]] = None
    #: Traced runs must show ``fleet.native_fleets > 0``.
    expect_native: bool = False

    def argv(self, seed: int, store: Path) -> List[str]:
        return [
            "sweep", *self.args, "--trials", str(self.trials),
            "--engine", "fleet", "--native", "on",
            "--seed", str(seed), "--store", str(store),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eprocess-regular",
            ("--family", "regular", "--sizes", "1000", "--degrees", "4",
             "--walk", "eprocess", "--workers", "1"),
            trials=FLEET_K,
            cv_band=EPROCESS_D4_BAND,
            expect_native=True,
        ),
        Workload(
            "srw-hypercube-oracle",
            ("--family", "implicit_hypercube", "--sizes", "8192",
             "--walk", "srw", "--workers", "1"),
            trials=FLEET_K,
        ),
        Workload(
            "srw-torus-pool",
            ("--family", "torus", "--sizes", "2304", "--walk", "srw",
             "--workers", "2"),
            trials=2 * FLEET_K,
        ),
    )
}

_PROGRESS = re.compile(r"\[([0-9a-f]{16})\]: (\d+) cached, (\d+) scheduled$")
_SUMMARY = re.compile(r": (\d+) scheduled, (\d+) cached$")


@dataclass
class Process:
    """What one ``repro sweep`` process did, as the benchmark saw it."""

    spawn_t: float
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    spec_hash: str = ""
    cached: int = -1
    scheduled: int = -1


def run_process(
    argv: List[str], env: Dict[str, str], cwd: Path, stamp_at: Optional[int] = None
) -> Process:
    """Spawn, stamp the first progress line, reap with ``wait4``.

    ``stamp_at`` names the argument that receives the spawn instant.

    RSS comes from this child's own rusage: Linux reports the max of the
    process and its reaped descendants (the pool workers), so one sweep's
    peak never leaks into the next one's reading.
    """
    out: List[str] = []
    t0 = time.monotonic()
    if stamp_at is not None:
        argv[stamp_at] = repr(t0)
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    err: List[str] = []
    setup = None
    found = None
    try:
        for line in proc.stderr:
            if found is None:
                found = _PROGRESS.search(line.rstrip("\n"))
                if found is not None:
                    setup = time.monotonic() - t0
            err.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    run = Process(
        spawn_t=t0,
        wall_s=wall,
        setup_s=setup if setup is not None else wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout="".join(out),
        stderr="".join(err),
    )
    if found is not None:
        run.spec_hash = found.group(1)
        run.cached, run.scheduled = int(found.group(2)), int(found.group(3))
    return run


@dataclass
class SweepResult:
    """One gated cold sweep: timings plus what the gate found."""

    process: Process
    requested: int
    traced: bool = False
    verified: int = 0
    steps: int = 0
    problems: List[str] = field(default_factory=list)
    #: trial -> (cover_time, extras): the result fields of every record.
    records: Dict[int, tuple] = field(default_factory=dict)
    identity: Dict = field(default_factory=dict)
    cv_over_n: float = 0.0
    #: Traced sweeps only: seconds per span name, tracer counts, manifest.
    shares: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    manifest: Dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.requested if self.problems else self.requested - self.verified


class Context:
    """The built program under test: its sources, env and working root."""

    def __init__(self, root: Path, src: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(src)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"


def cold_sweep(
    ctx: Context,
    workload: Workload,
    seed: int,
    traced: bool = False,
    reference: Optional[SweepResult] = None,
) -> SweepResult:
    """Run ``workload`` once on a fresh store, then gate it.

    Without ``reference`` the sweep gets the full gate (a)-(d).  With one
    -- a fully gated sweep of the same workload and seed -- it must store
    the same results and print the same report table, which carries every
    check over to it (trials are seed-deterministic).  A traced sweep
    runs under :mod:`tracer` with ``--telemetry`` and comes back with its
    ledger and telemetry manifest.
    """
    tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=ctx.work))
    store = tmp / "store"
    argv = workload.argv(seed, store)
    try:
        if traced:
            spans = tmp / "spans"
            spans.mkdir()
            tel = tmp / "telemetry.jsonl"
            cmd = [sys.executable, str(TRACER), str(spans), "", *argv,
                   "--telemetry", str(tel)]
            process = run_process(cmd, ctx.env, ctx.root, stamp_at=3)
        else:
            process = run_process([sys.executable, "-m", "repro", *argv], ctx.env, ctx.root)
        result = SweepResult(process=process, requested=workload.trials, traced=traced)
        if _check_cold(result) and _read_store(result, store, seed):
            if reference is None:
                _full_gate(ctx, workload, argv, store, result)
            else:
                if reference.problems:
                    result.problems.append("the fully gated sweep of this run failed")
                if result.records != reference.records:
                    result.problems.append("stored results differ from the gated sweep's")
                if _report_table(process.stdout) != _report_table(reference.process.stdout):
                    result.problems.append("report table differs from the gated sweep's")
                result.cv_over_n = reference.cv_over_n
        if traced:
            result.shares, result.counts = tracer.ledger(
                spans, process.spawn_t + process.wall_s
            )
            lines = tel.read_text().splitlines() if tel.exists() else []
            result.manifest = json.loads(lines[-1]) if lines else {}
            counters = result.manifest.get("counters", {})
            if workload.expect_native and counters.get("fleet.native_fleets", 0) <= 0:
                result.problems.append("traced run stepped no native fleet")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _report_table(stdout: str) -> str:
    """The sweep's report table: everything after the summary line."""
    return stdout.split("\n\n", 1)[1] if "\n\n" in stdout else ""


def _check_cold(result: SweepResult) -> bool:
    """(a): exit 0, every trial scheduled and none cached."""
    p, n_req = result.process, result.requested
    if p.exit_code != 0:
        result.problems.append(f"sweep exited {p.exit_code}: {p.stderr.strip()[-400:]}")
        return False
    summary = _SUMMARY.search(p.stdout.split("\n", 1)[0])
    if (p.scheduled, p.cached) != (n_req, 0) or summary is None or (
        summary.groups() != (str(n_req), "0")
    ):
        result.problems.append(
            f"cold sweep scheduled {p.scheduled}, cached {p.cached}; summary "
            f"{p.stdout.split(chr(10), 1)[0]!r}"
        )
    if not _report_table(p.stdout):
        result.problems.append("sweep printed no report table")
    return True


def _read_store(result: SweepResult, store: Path, seed: int) -> bool:
    """Read the sweep's records back; returns False when there are none."""
    from repro.experiments import ResultStore

    p, n_req = result.process, result.requested
    entries = [e for e in ResultStore(store).entries() if e.spec_hash == p.spec_hash]
    if not entries or entries[0].identity.get("root_seed") != seed:
        result.problems.append(f"store holds no spec {p.spec_hash} with seed {seed}")
        return False
    result.identity = entries[0].identity
    records = ResultStore(store).trials_for(p.spec_hash)
    result.records = {
        t: (r.cover_time, sorted(r.extras.items()))
        for t, r in records.items() if t < n_req
    }
    result.verified = len(result.records)
    result.steps = sum(steps for steps, _ in result.records.values())
    return True


def _full_gate(
    ctx: Context, workload: Workload, argv: List[str], store: Path, result: SweepResult
) -> None:
    """(b) warm re-run, (c) per-trial recompute, (d) the C_V/n band."""
    from repro.experiments import ExperimentSpec, family_vertex_count
    from repro.sim.runner import run_trials

    p, n_req, problems = result.process, result.requested, result.problems
    warm = run_process([sys.executable, "-m", "repro", *argv], ctx.env, ctx.root)
    if warm.exit_code != 0 or (warm.scheduled, warm.cached) != (0, n_req):
        problems.append(
            f"warm re-run exited {warm.exit_code}, scheduled {warm.scheduled}, "
            f"cached {warm.cached}"
        )
    if _report_table(warm.stdout) != _report_table(p.stdout):
        problems.append("warm re-run printed a different report table")
    ident = result.identity
    spec = ExperimentSpec(
        family=ident["family"], family_params=ident["family_params"],
        walk=ident["walk"], target=ident["target"], root_seed=ident["root_seed"],
        start=ident["start"], max_steps=ident["max_steps"], trials=n_req,
        engine="array",
    )
    if spec.spec_hash != p.spec_hash:
        problems.append(f"stored identity {ident} does not hash to {p.spec_hash}")
        return
    ends = sorted({0, n_req - 1})
    if any(t not in result.records for t in ends):
        problems.append(f"store lacks trials {ends}")
        return
    # "array" resolves to the oracle engine on implicit graphs.
    again = run_trials(
        workload=spec.workload(), walk_factory=spec.runner_walk(),
        trial_indices=ends, root_seed=spec.root_seed, target=spec.target,
        start=spec.start, max_steps=spec.max_steps, label=spec.seed_label,
        engine="array",
    )
    for outcome in again:
        stored = result.records[outcome.trial][0]
        if outcome.steps != stored:
            problems.append(
                f"trial {outcome.trial}: per-trial engine gives {outcome.steps} "
                f"steps, store holds {stored}"
            )
    n = family_vertex_count(spec.family, spec.params)
    ratios = [steps / n for steps, _ in result.records.values()]
    result.cv_over_n = statistics.fmean(ratios)
    if workload.cv_band is not None:
        lo, hi = workload.cv_band
        # The band's ends are 5-trial means; allow this mean 4 standard errors.
        se = statistics.stdev(ratios) / len(ratios) ** 0.5
        if result.cv_over_n + 4 * se < lo or result.cv_over_n - 4 * se > hi:
            problems.append(
                f"mean C_V/n {result.cv_over_n:.4f} (se {se:.4f}) is outside "
                f"[{lo}, {hi}]"
            )
