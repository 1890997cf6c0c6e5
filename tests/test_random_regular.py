"""Tests for the random regular / degree-sequence samplers."""

import hashlib
import random

import pytest

from repro.engine import native
from repro.errors import GenerationError
from repro.graphs import random_regular as rr
from repro.graphs.properties import is_connected
from repro.graphs.random_regular import (
    configuration_model,
    random_connected_regular_graph,
    random_even_degree_graph,
    random_regular_graph,
)
from repro.telemetry import Telemetry, session

#: sha256 of ``repr(random_connected_regular_graph(1000, 4,
#: random.Random(12345)).edges())`` as the python-only sampler produced
#: it before the native sampler existed.  Stored results keyed on such
#: graphs stay reproducible as long as this holds on every path.
GOLDEN_G1000_4 = "3dad56d9b7f450f16f4fa747532e02770dc2e1994ff692baa17c6d0ebbee65b6"


class TestStegerWormald:
    @pytest.mark.parametrize("n,r", [(10, 3), (20, 4), (15, 4), (30, 5), (8, 7)])
    def test_regularity_and_simplicity(self, n, r, rng):
        g = random_regular_graph(n, r, rng)
        assert g.n == n
        assert g.is_regular() and g.regularity() == r
        assert g.is_simple()

    def test_odd_product_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, 3, random.Random(0))

    def test_r_too_large_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(4, 4, random.Random(0))

    def test_zero_degree(self, rng):
        g = random_regular_graph(5, 0, rng)
        assert g.m == 0

    def test_n_nonpositive_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(0, 0, random.Random(0))

    def test_deterministic_given_seed(self):
        a = random_regular_graph(24, 4, random.Random(123))
        b = random_regular_graph(24, 4, random.Random(123))
        assert a == b

    def test_different_seeds_differ(self):
        a = random_regular_graph(40, 4, random.Random(1))
        b = random_regular_graph(40, 4, random.Random(2))
        assert a != b

    def test_complete_graph_edge_case(self, rng):
        # r = n-1 forces K_n; Steger-Wormald must finish via its fallback.
        g = random_regular_graph(6, 5, rng)
        assert g.m == 15
        assert g.is_simple()


class TestConfigurationModel:
    def test_simple_sample_degrees(self, rng):
        degrees = [3, 3, 2, 2, 2]
        g = configuration_model(degrees, rng, simple=True)
        assert list(g.degrees()) == degrees
        assert g.is_simple()

    def test_multigraph_sample_degrees(self, rng):
        degrees = [4] * 6
        g = configuration_model(degrees, rng, simple=False)
        assert list(g.degrees()) == degrees

    def test_odd_sum_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([1, 2], random.Random(0))

    def test_negative_degree_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([-1, 1], random.Random(0))

    def test_impossible_simple_rejected(self):
        with pytest.raises(GenerationError):
            configuration_model([3, 1], random.Random(0), simple=True)

    def test_retry_budget_raises(self):
        # K2 with a double edge demand: degrees [2, 2] can only pair into a
        # 2-cycle (parallel) or two loops - never simple.
        with pytest.raises(GenerationError):
            configuration_model([2, 2], random.Random(0), simple=True, max_retries=50)

    def test_degree_too_large_rejected_before_sampling(self):
        # The d > n-1 bound lives in _validate_degree_sequence (the old
        # inline copy in configuration_model is gone; the validator used to
        # hold a dead `any(...) ... pass` branch that checked nothing).
        with pytest.raises(GenerationError, match="exceeds n-1"):
            configuration_model([4, 2, 1, 1], random.Random(0), simple=True)

    def test_degree_equal_n_allowed_for_multigraphs(self, rng):
        # d >= n is only impossible for *simple* graphs; a multigraph
        # realizes it with loops/parallel edges.
        degrees = [4, 2, 1, 1]
        g = configuration_model(degrees, rng, simple=False)
        assert list(g.degrees()) == degrees

    def test_single_vertex_loops_allowed_for_multigraphs(self, rng):
        g = configuration_model([2], rng, simple=False)
        assert g.n == 1 and g.m == 1 and g.has_loops()


class TestEvenDegreeSequences:
    def test_even_sequence(self, rng):
        degrees = [4, 4, 4, 6, 4, 4, 4, 6, 4, 4]
        g = random_even_degree_graph(degrees, rng)
        assert list(g.degrees()) == degrees
        assert g.has_even_degrees()

    def test_odd_degree_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_even_degree_graph([3, 3, 4, 4], rng)

    def test_degree_below_two_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_even_degree_graph([0, 2, 2], rng)


class TestConnectedSampler:
    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_connected(self, r, rng):
        g = random_connected_regular_graph(40, r, rng)
        assert is_connected(g)
        assert g.regularity() == r

    def test_r_below_two_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_connected_regular_graph(10, 1, rng)

    def test_distribution_touches_many_graphs(self, rng_factory):
        # 12 samples of G(10,3) should not all coincide.
        seen = {random_regular_graph(10, 3, rng_factory(i)) for i in range(12)}
        assert len(seen) > 3


class TestGoldenPin:
    def test_connected_g1000_4_edges_pinned(self):
        g = random_connected_regular_graph(1000, 4, random.Random(12345))
        assert hashlib.sha256(repr(g.edges()).encode()).hexdigest() == GOLDEN_G1000_4


class _OwnRandom(random.Random):
    """A generator whose ``random()`` override changes ``_randbelow``."""

    def random(self):
        return super().random()


class TestNativeDispatch:
    """Which generators and sizes the native sampler may take.

    The loader is replaced by a fake kernel that records the call and
    answers SW_WIDE, which hands the attempt back to the python loop from
    the untouched generator, so these run with or without the build.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def attempt(n, r, words, count, eu, ev, out):
            seen.append((n, r))
            return rr._SW_WIDE

        kernel = native.NativeKernel(block=None, steger_wormald=attempt)
        monkeypatch.setattr(native, "load", lambda: kernel)
        return seen

    def test_plain_random_dispatches_and_matches_reference(self, calls):
        g = random_regular_graph(30, 4, random.Random(5))
        assert calls and set(calls) == {(30, 4)}
        twin = random.Random(5)
        edges = None
        while edges is None:
            edges = rr._steger_wormald_attempt(30, 4, twin)
        assert list(g.edges()) == edges

    def test_overridden_random_takes_reference(self, calls):
        assert rr._native_kernel(30, 4, _OwnRandom(5)) is None
        random_regular_graph(30, 4, _OwnRandom(5))
        assert calls == []

    def test_stub_count_bound(self, calls):
        rng = random.Random(0)
        assert rr._native_kernel(2**16, 2**15, rng) is None
        assert rr._native_kernel(2**16, 2**15 - 1, rng) is not None
        assert calls == []

    def test_env_opt_out_takes_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            assert rr._native_kernel(30, 4, random.Random(5)) is None
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    def test_native_samples_counted(self, calls):
        tel = Telemetry()
        with session(tel):
            random_regular_graph(30, 4, random.Random(5))
            random_regular_graph(30, 4, _OwnRandom(5))
        assert tel.counters.get("graphs.native_samples") == 1
