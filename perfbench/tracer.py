"""Outside-in layer tracer for one ``repro sweep`` process, and its ledger.

Sweep side (run as a script in place of ``python -m repro``)::

    python tracer.py SPANS_DIR SPAWN_T sweep --family ... --store DIR

It imports :mod:`repro.cli`, wraps the public entry points of each layer
*from here* (nothing under ``src/`` is edited), then calls
``repro.cli.main`` with the remaining arguments.  Every wrapped call
records a span ``(name, start, end, depth)`` on the system-wide
monotonic clock, which the benchmark process shares, so the
``cli.import`` span can start at the benchmark's spawn instant ``SPAWN_T``.

Names are patched where they are looked up: ``repro.cli`` binds
``run_sweep`` and the scheduler binds ``run_trials`` by name, so patching
the defining module alone would record nothing.  Pool workers are forked
and inherit the wrappers; an at-fork hook gives each worker an empty span
buffer, and every process appends its spans to ``SPANS_DIR/<pid>.jsonl``
whenever its outermost span closes (forked workers leave through
``os._exit``, so nothing may wait for interpreter exit).

Benchmark side: :func:`ledger` merges every process's spans into per-layer
seconds.  Within one process a span's *self time* is its duration minus
its child spans.  Across processes, each instant of wall time is shared
equally by the innermost spans running at that instant, except that the
parent's ``runner.pool_wait`` yields to any worker span running at the
same time.  The shares therefore add up to the traced wall time (minus
``trace.unattributed_s``), and srw-torus-pool's graph and engine time
shows under ``graphs``/``engine``, not inside ``runner``.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Span names whose shares make up each per-layer seconds metric.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main",),
    "cli.exit_s": ("cli.exit",),
    "graphs.build_s": ("graphs.build",),
    "graphs.csr_s": ("graphs.csr",),
    "engine.fleet_s": ("engine.fleet",),
    "engine.check_s": ("engine.check",),
    "engine.tail_s": ("engine.tail",),
    "runner.self_s": ("runner.run_trials", "runner.batch"),
    "runner.pool_wait_s": ("runner.pool_wait",),
    "scheduler.self_s": ("scheduler.run_sweep", "scheduler.run_point"),
    "store.read_s": ("store.open", "store.read"),
    "store.record_s": ("store.record",),
}

#: Spans that only wait for other processes; they yield to worker spans.
WAIT_SPANS = frozenset({"runner.pool_wait"})

_DONE = object()


class SpanRecorder:
    """In-memory spans and counts of one process, flushed per outer span."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.main = threading.get_ident()
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self.depth = 0

    def flush(self) -> None:
        if not self.spans and not self.counts:
            return
        line = json.dumps({"pid": self.pid, "spans": self.spans, "counts": self.counts})
        with open(os.path.join(self.out_dir, f"{self.pid}.jsonl"), "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counts = collections.Counter()

    def span(self, name: str, fn: Callable, before: Callable = None) -> Callable:
        """``fn`` wrapped to record one ``name`` span per main-thread call.

        ``before(*args)`` runs first, outside the span; it may bump counts.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != rec.main:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            depth = rec.depth
            rec.depth = depth + 1
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.spans.append((name, start, time.monotonic(), depth))
                rec.depth = depth
                if depth == 0:
                    rec.flush()

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls (no span)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function wrapped so each ``next`` is one span."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            step = rec.span(name, lambda: next(it, _DONE))
            while True:
                item = step()
                if item is _DONE:
                    return
                yield item

        return traced


def install(rec: SpanRecorder) -> List[str]:
    """Wrap every layer entry point; returns the hooks that were missing.

    A hook whose target no longer exists is skipped, not fatal: its time
    then shows up in its caller's layer or in ``trace.unattributed_s``.
    """
    import repro.cli as cli
    import repro.engine as engine
    import repro.engine.fleet as fleet
    import repro.experiments.scheduler as scheduler
    import repro.experiments.spec as spec
    import repro.experiments.store as store
    import repro.graphs.graph as graph
    import repro.graphs.random_regular as random_regular
    import repro.sim.runner as runner

    missing: List[str] = []

    def patch(owner, attr: str, make: Callable) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(fn))

    workload = getattr(spec, "_FamilyWorkload", None)

    def spanned(name: str, before: Callable = None) -> Callable:
        return lambda fn: rec.span(name, fn, before)

    patch(cli, "run_sweep", spanned("scheduler.run_sweep"))
    patch(scheduler, "run_point", spanned("scheduler.run_point"))
    patch(scheduler, "run_trials", spanned("runner.run_trials"))
    patch(runner, "_run_fleet_batch", spanned("runner.batch"))
    patch(runner, "as_completed", lambda fn: rec.timed_iter("runner.pool_wait", fn))
    patch(fleet, "fleet_supported", spanned("engine.check"))
    patch(workload, "__call__", spanned("graphs.build"))
    patch(spec, "random_connected_regular_graph",
          lambda fn: rec.counter("graphs.connected_calls", fn))
    patch(random_regular, "random_regular_graph",
          lambda fn: rec.counter("graphs.regular_calls", fn))

    def csr_before(g) -> None:
        if getattr(g, "_csr", None) is None:
            rec.counts["graphs.csr_builds"] += 1

    patch(graph.Graph, "csr_arrays", spanned("graphs.csr", csr_before))
    patch(store.ResultStore, "__init__", spanned("store.open"))
    patch(store.ResultStore, "trials_for", spanned("store.read"))
    patch(store.ResultStore, "entries", spanned("store.read"))
    patch(store.ResultStore, "record", spanned("store.record"))

    def fleet_factory(make: Callable) -> Callable:
        """Construction and stepping are engine time; the tail hand-off
        to per-trial engines is ``engine.tail``."""

        def build(*args, **kwargs):
            obj = make(*args, **kwargs)
            obj.run_until_cover = rec.span("engine.fleet", obj.run_until_cover)
            for attr in ("_finish_lane", "_finish_scalar"):
                if hasattr(obj, attr):
                    setattr(obj, attr, rec.span("engine.tail", getattr(obj, attr)))
            return obj

        return rec.span("engine.fleet", functools.wraps(make)(build))

    for walk in list(engine.FLEET_ENGINES):
        engine.FLEET_ENGINES[walk] = fleet_factory(engine.FLEET_ENGINES[walk])
    return missing


def _sweep_main(argv: List[str]) -> int:
    out_dir, spawn_t, args = argv[0], float(argv[1]), argv[2:]
    import repro.cli

    rec = SpanRecorder(out_dir)
    for hook in install(rec):
        print(f"perfbench tracer: hook {hook} not found", file=sys.stderr)
        rec.counts["trace.missing_hooks"] += 1
    rec.spans.append(("cli.import", spawn_t, time.monotonic(), 0))
    return rec.span("cli.main", repro.cli.main)(args)


# -- benchmark side ----------------------------------------------------------


def _self_pieces(spans: List[list]) -> List[Tuple[float, float, str]]:
    """One process's timeline cut into (start, end, innermost span name)."""
    events = []
    for i, (_, start, end, depth) in enumerate(spans):
        events.append((start, 1, depth, i))
        events.append((end, 0, -depth, i))
    events.sort()
    pieces = []
    stack: List[int] = []
    last = 0.0
    for t, opening, _, i in events:
        if stack and t > last:
            pieces.append((last, t, spans[stack[-1]][0]))
        if opening:
            stack.append(i)
        else:
            stack.remove(i)
        last = t
    return pieces


def ledger(spans_dir: Path, exit_t: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Seconds of wall time per span name, and counts, over all processes.

    ``exit_t`` is when the benchmark reaped the sweep process: the time from
    the end of ``cli.main`` to then is the ``cli.exit`` row (interpreter
    shutdown -- module teardown, and joining the pool workers at exit).
    Counts include ``span:<name>`` (calls per span name) next to the
    recorder's own counters.
    """
    by_pid: Dict[int, List[list]] = collections.defaultdict(list)
    counts: collections.Counter = collections.Counter()
    for path in sorted(spans_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            chunk = json.loads(line)
            by_pid[chunk["pid"]].extend(chunk["spans"])
            counts.update(chunk["counts"])
    pieces = []
    for spans in by_pid.values():
        counts.update(f"span:{s[0]}" for s in spans)
        pieces.extend(_self_pieces(spans))
        main_end = max((s[2] for s in spans if s[0] == "cli.main"), default=exit_t)
        if main_end < exit_t:
            pieces.append((main_end, exit_t, "cli.exit"))
    events = []
    for k, (start, end, _) in enumerate(pieces):
        events.append((start, 1, k))
        events.append((end, 0, k))
    events.sort()
    share: Dict[str, float] = collections.defaultdict(float)
    active: set = set()
    last = 0.0
    for t, opening, k in events:
        if active and t > last:
            busy = [j for j in active if pieces[j][2] not in WAIT_SPANS] or list(active)
            for j in busy:
                share[pieces[j][2]] += (t - last) / len(busy)
        if opening:
            active.add(k)
        else:
            active.discard(k)
        last = t
    return dict(share), dict(counts)


if __name__ == "__main__":
    sys.exit(_sweep_main(sys.argv[1:]))
