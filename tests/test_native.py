"""Native fused kernel vs. the numpy stepwise fleets, bit for bit.

The contract: with the C extension loaded, every stepwise fleet block
runs through one fused call that consumes the same Mersenne-Twister
words in the same per-lane order as the numpy kernel — so cover times,
first-visit tables (vertices and edges), red/blue splits, phase marks,
final positions, and every generator's end-state are identical between
``native=True`` and ``native=False`` runs, and both match the per-trial
reference walks.

The suite covers every fleet walk (srw / eprocess / vprocess), regular
and irregular lanes (packed bitmask tables, the general cumulative-rank
path, and the >16-degree regular path; random 4-regular, torus and
odd-degree regular graphs for the fixed-degree rows), shared and
distinct-graph (tiled) fleets, K in {1, 2, 7, 32}, both cover targets,
budget timeouts, and the loader's fallback behaviour (numpy path + one
RuntimeWarning) when the extension is missing.

The extension's second kernel, the Steger–Wormald attempt behind
``random_regular_graph``, is held to the same standard against the python
loop: identical edge lists, dead ends and generator end states over a
grid of sizes that forces dead ends and the exhaustive fallback.
"""

import random
import warnings

import pytest

from repro.core.eprocess import EdgeProcess
from repro.engine import FleetEdgeProcess, FleetSRW, FleetVProcess, native
from repro.errors import CoverTimeout, ReproError
from repro.graphs import random_regular as rr
from repro.graphs.generators import complete_graph, lollipop_graph, torus_grid
from repro.graphs.random_regular import random_connected_regular_graph, random_regular_graph
from repro.sim.runner import run_trials
from repro.telemetry import Telemetry, session
from repro.walks.choice import UnvisitedVertexWalk
from repro.walks.srw import SimpleRandomWalk

FLEET_SIZES = [1, 2, 7, 32]

FLEETS = {
    "srw": FleetSRW,
    "eprocess": FleetEdgeProcess,
    "vprocess": FleetVProcess,
}

REFERENCES = {
    "srw": lambda g, s, r: SimpleRandomWalk(g, s, rng=r, track_edges=True),
    "eprocess": lambda g, s, r: EdgeProcess(g, s, rng=r, record_phases=True),
    "vprocess": lambda g, s, r: UnvisitedVertexWalk(g, s, rng=r, track_edges=True),
}

native_built = pytest.mark.skipif(
    not native.available(),
    reason="native fused kernel not built (no compiler?)",
)


def _graph(shape: str):
    if shape == "regular":
        # 4-regular: the packed 2^d bitmask path for the E-/V-process and
        # the fixed-degree row path (``d ? gc * d``) for SRW.
        return random_connected_regular_graph(60, 4, random.Random(7))
    if shape == "torus":
        # 8x8 torus: 4-regular with a lattice's short cycles.
        return torus_grid(8, 8)
    if shape == "odd":
        # 3-regular: an odd modulus, so neither the ``_randbelow``
        # acceptance bound nor the row stride is a power of two.
        return random_connected_regular_graph(60, 3, random.Random(8))
    if shape == "bigdegree":
        # 17-regular: regular but past PACKED_DEGREE_MAX, so the E-/V-
        # process fleets run the general candidate scan with d fixed.
        return complete_graph(18)
    # Clique + pendant path: degrees 1..6, the per-degree prefilter path.
    return lollipop_graph(6, 9)


def _lanes(graph, K, base_seed):
    starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
    rngs = [random.Random(base_seed + k) for k in range(K)]
    twins = [random.Random(base_seed + k) for k in range(K)]
    return starts, rngs, twins


def _snapshot(walk_name, fleet, K):
    """Everything a fleet exposes post-run, per lane."""
    snap = {
        "positions": fleet.positions,
        "cover": list(fleet.cover_steps),
        "fv": [fleet.first_visit_time(k) for k in range(K)],
    }
    if walk_name in ("eprocess", "vprocess"):
        snap["fe"] = [fleet.first_edge_visit_time(k) for k in range(K)]
    if walk_name == "eprocess":
        snap["red"] = fleet.red_steps
        snap["blue"] = fleet.blue_steps
        snap["marks"] = [fleet.phase_marks(k) for k in range(K)]
        snap["last"] = [fleet.last_color(k) for k in range(K)]
    return snap


def _make_fleet(walk_name, graphs, starts, rngs, native_pref):
    cls = FLEETS[walk_name]
    if walk_name == "eprocess":
        return cls(graphs, starts, rngs, record_phases=True, native=native_pref)
    return cls(graphs, starts, rngs, native=native_pref)


@native_built
class TestNativeVsNumpyParity:
    @pytest.mark.parametrize("K", FLEET_SIZES)
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("shape", ["regular", "torus", "odd", "irregular"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_native_matches_numpy_and_reference(self, walk, shape, target, K):
        graph = _graph(shape)
        starts, n_rngs, p_rngs = _lanes(graph, K, 1000)
        twins = [random.Random(1000 + k) for k in range(K)]

        tel = Telemetry()
        with session(tel):
            nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
            cover_nat = nat.run_until_cover(target=target)
        # Every lane, at any K, steps through the C kernel to its cover.
        assert tel.counters["fleet.native_fleets"] == 1
        assert tel.counters["fleet.lane_steps"] == sum(cover_nat)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        cover_num = num.run_until_cover(target=target)

        assert cover_nat == cover_num
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()
            walk_ref = REFERENCES[walk](graph, starts[k], twins[k])
            expected = (
                walk_ref.run_until_vertex_cover()
                if target == "vertices"
                else walk_ref.run_until_edge_cover()
            )
            assert cover_nat[k] == expected
            assert n_rngs[k].getstate() == twins[k].getstate()

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    def test_big_degree_regular_general_path(self, walk):
        # Regular but d > PACKED_DEGREE_MAX: the non-packed fixed-degree
        # branch of the kernel.
        graph = _graph("bigdegree")
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 4000)
        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        assert nat.run_until_cover("edges") == num.run_until_cover("edges")
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_distinct_graphs_per_lane(self, walk):
        # Tiled incidence rows: lane-major row bases in the kernel.
        K = 7
        graphs = [
            random_connected_regular_graph(40, 4, random.Random(50 + k))
            for k in range(K)
        ]
        starts = [k % 40 for k in range(K)]
        n_rngs = [random.Random(2000 + k) for k in range(K)]
        p_rngs = [random.Random(2000 + k) for k in range(K)]
        nat = _make_fleet(walk, graphs, starts, n_rngs, True)
        num = _make_fleet(walk, graphs, starts, p_rngs, False)
        assert nat.run_until_cover("vertices") == num.run_until_cover("vertices")
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_timeout_syncs_rng_like_numpy(self, walk):
        graph = _graph("irregular")
        K = 8  # several live lanes time out inside the lockstep kernel
        starts, n_rngs, p_rngs = _lanes(graph, K, 3000)
        budget = 37
        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        with pytest.raises(CoverTimeout):
            nat.run_until_cover("edges", max_steps=budget)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        with pytest.raises(CoverTimeout):
            num.run_until_cover("edges", max_steps=budget)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    def test_word_row_refill_midstream(self):
        # A run long enough to exhaust the 4096-word rows many times over:
        # refills must stay invisible (exact word accounting end to end).
        graph = lollipop_graph(7, 30)
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 5000)
        nat = FleetSRW([graph] * K, starts, n_rngs, native=True)
        num = FleetSRW([graph] * K, starts, p_rngs, native=False)
        assert nat.run_until_cover("edges") == num.run_until_cover("edges")
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    def test_runner_fleet_native_tristate(self):
        graph = _graph("regular")
        common = dict(
            workload=graph,
            walk_factory="eprocess",
            trial_indices=range(9),
            root_seed=11,
            engine="fleet",
            fleet_size=4,
        )
        on = run_trials(fleet_native=True, **common)
        off = run_trials(fleet_native=False, **common)
        auto = run_trials(**common)
        assert [o.steps for o in on] == [o.steps for o in off]
        assert [o.steps for o in auto] == [o.steps for o in off]


#: (n, r) for the sampler parity grid: (1000, 4) is the benchmark's
#: graph; the small dense ones dead-end often, except the complete graphs
#: K5 and K7, which are forced.
SW_GRID = [(5, 4), (6, 4), (7, 6), (8, 6), (12, 3), (20, 8), (1000, 4)]
SW_DEAD_ENDS = {(6, 4), (8, 6), (12, 3), (20, 8)}


class _WordReplay(random.Random):
    """Serves ``getrandbits(k <= 32)`` as the top ``k`` bits of fixed words,
    the way CPython's MT serves them from its own outputs."""

    def __init__(self, words):
        super().__init__(0)
        self._words = iter(words)
        self.used = 0

    def getrandbits(self, k):
        self.used += 1
        return next(self._words) >> (32 - k)


@native_built
class TestStegerWormaldParity:
    def _kernel(self):
        return native.load().steger_wormald

    @pytest.mark.parametrize("n,r", SW_GRID)
    def test_attempts_match_reference(self, n, r):
        dead = 0
        for seed in range(10 if n >= 1000 else 25):
            nat_rng, ref_rng = random.Random(seed), random.Random(seed)
            nat = rr._NativeAttempts(self._kernel(), n, r, nat_rng)
            for _ in range(1 if n >= 1000 else 3):
                got = nat.attempt()
                want = rr._steger_wormald_attempt(n, r, ref_rng)
                assert got == want
                assert nat_rng.getstate() == ref_rng.getstate()
                dead += want is None
        assert (dead > 0) == ((n, r) in SW_DEAD_ENDS)

    @pytest.mark.parametrize("seed", range(6))
    def test_fallback_placement_on_crafted_words(self, seed):
        # On honest words 200 failed tries all but prove a dead end, so the
        # fallback almost never places an edge.  Runs of zero words force
        # it: index 0 twice is a self-pair every try.
        import numpy as np

        n, r = 40, 6
        src = random.Random(seed)
        words = []
        while len(words) < 40 * n * r:
            words.extend(src.getrandbits(32) for _ in range(src.randrange(1, 300)))
            words.extend([0] * 600)
        buf = np.array(words, dtype=np.uint64)
        eu = np.empty(n * r // 2, dtype=np.int64)
        ev = np.empty(n * r // 2, dtype=np.int64)
        out = np.zeros(1, dtype=np.int64)
        status = self._kernel()(
            n, r, buf.ctypes.data, buf.size, eu.ctypes.data, ev.ctypes.data, out.ctypes.data,
        )
        replay = _WordReplay(words)
        want = rr._steger_wormald_attempt(n, r, replay)
        assert status == (rr._SW_DEAD if want is None else rr._SW_GRAPH)
        assert int(out[0]) == replay.used
        if want is not None:
            assert list(zip(eu.tolist(), ev.tolist())) == want

    def test_short_word_buffer_reruns_exactly(self, monkeypatch):
        # A 64-word first buffer runs dry many times per attempt; every
        # rerun must restart from the same generator state.
        monkeypatch.setattr(rr, "_WORDS_PER_STUB", 0)
        for n, r in [(1000, 4), (8, 6)]:
            nat_rng, ref_rng = random.Random(n), random.Random(n)
            nat = rr._NativeAttempts(self._kernel(), n, r, nat_rng)
            for _ in range(3):
                assert nat.attempt() == rr._steger_wormald_attempt(n, r, ref_rng)
                assert nat_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("n,r", [(7, 6), (50, 3), (1000, 4)])
    def test_graph_samplers_match_python_only_run(self, n, r, monkeypatch):
        nat_rng, ref_rng = random.Random(77), random.Random(77)
        got = [random_regular_graph(n, r, nat_rng).edges() for _ in range(3)]
        got.append(random_connected_regular_graph(n, r, nat_rng).edges())
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            assert rr._native_kernel(n, r, ref_rng) is None
            want = [random_regular_graph(n, r, ref_rng).edges() for _ in range(3)]
            want.append(random_connected_regular_graph(n, r, ref_rng).edges())
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()
        assert got == want
        assert nat_rng.getstate() == ref_rng.getstate()

    def test_edges_share_vertex_ints(self):
        # Like the python loop's pool, one int object per vertex.
        nat = rr._NativeAttempts(self._kernel(), 1000, 4, random.Random(3))
        edges = None
        while edges is None:
            edges = nat.attempt()
        by_value = {}
        for u, v in edges:
            assert by_value.setdefault(u, u) is u
            assert by_value.setdefault(v, v) is v

    def test_bad_arguments_refused(self):
        import numpy as np

        words = np.zeros(8, dtype=np.uint64)
        edges = np.zeros(8, dtype=np.int64)
        out = np.zeros(1, dtype=np.int64)
        for n, r in [(4, 4), (5, 3), (0, 1), (2**16, 2**15)]:
            status = self._kernel()(
                n, r, words.ctypes.data, words.size,
                edges.ctypes.data, edges.ctypes.data, out.ctypes.data,
            )
            assert status == -1


class TestNativeLoader:
    def test_env_opt_out_disables_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.load() is None
            assert not native.available()
            assert "REPRO_NATIVE" in native.unavailable_reason()
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_env_flip_reprobes(self, monkeypatch):
        assert native.available()
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert not native.available()
        monkeypatch.delenv("REPRO_NATIVE")
        assert native.available()
        assert native.kernel_path() is not None

    def test_missing_extension_falls_back_and_warns_once(self, monkeypatch):
        graph = _graph("irregular")
        # An explicit REPRO_NATIVE=0 suppresses the warning by design;
        # this test simulates a *missing build* under default settings.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_find_extension", lambda: None)
        native._reset_probe_for_testing()
        try:
            with pytest.warns(RuntimeWarning, match="native fused kernel unavailable"):
                assert native.load() is None
            # Second probe is silent: the fallback warns once per process.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.load() is None
                assert not native.available()

            # Auto preference still runs — on the numpy path — and stays
            # bit-identical to the reference walk.
            K = 3
            starts, rngs, twins = _lanes(graph, K, 7000)
            fleet = FleetVProcess([graph] * K, starts, rngs)
            cover = fleet.run_until_cover("vertices")
            for k in range(K):
                ref = UnvisitedVertexWalk(
                    graph, starts[k], rng=twins[k], track_edges=True
                )
                assert cover[k] == ref.run_until_vertex_cover()
                assert rngs[k].getstate() == twins[k].getstate()

            # An explicit native=True is a hard error, never silent numpy.
            starts, rngs, _ = _lanes(graph, 2, 8000)
            fleet = FleetVProcess([graph] * 2, starts, rngs, native=True)
            with pytest.raises(ReproError, match="fused kernel is unavailable"):
                fleet.run_until_cover("vertices")
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    def test_fallback_warning_names_both_paths(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_find_extension", lambda: None)
        native._reset_probe_for_testing()
        try:
            with pytest.warns(RuntimeWarning) as record:
                # The graph sampler probes the loader like the fleets do.
                g = random_regular_graph(30, 4, random.Random(9))
            message = str(record[0].message)
            assert "numpy stepwise path" in message
            assert "random regular graph sampler" in message
            twin = random.Random(9)
            edges = None
            while edges is None:
                edges = rr._steger_wormald_attempt(30, 4, twin)
            assert list(g.edges()) == edges
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_abi_mismatch_refused(self, monkeypatch):
        native._reset_probe_for_testing()
        monkeypatch.setattr(native, "ABI_VERSION", 999)
        try:
            with pytest.warns(RuntimeWarning, match="ABI"):
                assert native.load() is None
            assert "ABI" in native.unavailable_reason()
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_native_false_skips_kernel(self):
        # native=False must not even probe per-fleet state: the numpy and
        # native fleets share every other code path, so the only visible
        # difference is throughput.  Spot-check the flag plumbs through.
        graph = _graph("irregular")
        starts, rngs, twins = _lanes(graph, 2, 9000)
        fleet = FleetSRW([graph] * 2, starts, rngs, native=False)
        fleet.run_until_cover("vertices")
        assert fleet._native is None
        fleet2 = FleetSRW([graph] * 2, starts, twins, native=None)
        fleet2.run_until_cover("vertices")
        assert fleet2._native is not None

    def test_regular_srw_native_true_without_kernel_raises(self, monkeypatch):
        # Regular SRW fleets step through the stepwise driver, so an
        # explicit native=True is honoured there too: no kernel, no run.
        graph = _graph("odd")
        starts, rngs, _ = _lanes(graph, 8, 9200)
        monkeypatch.setattr(native, "load", lambda: None)
        fleet = FleetSRW([graph] * 8, starts, rngs, native=True)
        with pytest.raises(ReproError, match="fused kernel is unavailable"):
            fleet.run_until_cover("vertices")

    def test_regular_srw_counts_the_kernel_that_ran(self, monkeypatch):
        # A fake kernel that fails every block call shows the routing
        # without a build: the default preference reaches it, native=False
        # never touches it.
        calls = []

        def block(par, slots):
            calls.append(par)
            return -1

        graph = _graph("torus")
        monkeypatch.setattr(
            native, "load", lambda: native.NativeKernel(block=block, steger_wormald=None)
        )
        tel = Telemetry()
        with session(tel):
            starts, rngs, _ = _lanes(graph, 8, 9300)
            with pytest.raises(ReproError, match="status -1"):
                FleetSRW([graph] * 8, starts, rngs).run_until_cover("vertices")
            assert len(calls) == 1
            assert tel.counters.get("fleet.native_fleets") == 1

            starts, rngs, twins = _lanes(graph, 8, 9400)
            fleet = FleetSRW([graph] * 8, starts, rngs, native=False)
            cover = fleet.run_until_cover("vertices")
        assert len(calls) == 1
        assert tel.counters.get("fleet.numpy_fleets") == 1
        assert "fleet.block_fleets" not in tel.counters
        for k in range(8):
            walk = SimpleRandomWalk(graph, starts[k], rng=twins[k])
            assert cover[k] == walk.run_until_vertex_cover()
            assert rngs[k].getstate() == twins[k].getstate()
