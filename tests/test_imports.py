"""Public-API surface tests: exports resolve and stay importable."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.graphs",
    "repro.spectral",
    "repro.walks",
    "repro.core",
    "repro.sim",
    "repro.engine",
    "repro.experiments",
]


class TestTopLevel:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_headline_objects_present(self):
        assert callable(repro.EdgeProcess)
        assert callable(repro.random_connected_regular_graph)
        assert callable(repro.verify_observation_10)


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_lazy_greedy_import(self):
        import repro.walks as walks

        assert callable(walks.GreedyRandomWalk)
        assert callable(walks.greedy_random_walk)

    def test_lazy_unknown_attribute_raises(self):
        import repro.walks as walks

        with pytest.raises(AttributeError):
            _ = walks.NotAWalk


class TestLeafModules:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs.graph",
            "repro.graphs.cycle_space",
            "repro.graphs.ramanujan",
            "repro.graphs.geometric",
            "repro.spectral.mixing",
            "repro.spectral.expanders",
            "repro.core.eprocess",
            "repro.core.goodness",
            "repro.core.phasestats",
            "repro.sim.blanket",
            "repro.sim.profiles",
            "repro.sim.plot",
            "repro.experiments.spec",
            "repro.experiments.store",
            "repro.experiments.scheduler",
            "repro.experiments.reports",
            "repro.cli",
        ],
    )
    def test_leaf_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


class TestColdImports:
    """A sweep imports only what it runs: scipy and networkx load where
    they are called (the spectral matrices, the NetworkX bridge), never at
    ``import repro.cli`` or during a sweep."""

    _CHILD = """
import json, sys
import repro.cli

store = sys.argv[1]
for args in (
    ["--family", "regular", "--sizes", "40", "--walk", "eprocess", "--trials", "2"],
    ["--family", "torus", "--sizes", "36", "--walk", "srw", "--trials", "4", "--workers", "2"],
    ["--family", "implicit_hypercube", "--sizes", "64", "--walk", "srw", "--trials", "2"],
):
    code = repro.cli.main(["sweep", *args, "--seed", "3", "--store", store])
    assert code == 0, (args, code)

def heavy():
    return sorted(k for k in sys.modules if k.split(".")[0] in ("scipy", "networkx"))

after_sweep = heavy()

from repro.graphs import cycle_graph, to_networkx
from repro.spectral import extreme_eigenvalues

g = cycle_graph(8)
nxg = to_networkx(g)
eigen = list(extreme_eigenvalues(g))
print(json.dumps({
    "after_sweep": after_sweep,
    "after_calls": heavy(),
    "nx_nodes": list(nxg.nodes()),
    "nx_edges": sorted([u, v, d["eid"]] for u, v, d in nxg.edges(data=True)),
    "nx_name": nxg.name,
    "eigen": eigen,
}))
"""

    def test_sweep_leaves_scipy_and_networkx_unloaded(self, tmp_path):
        env = dict(os.environ)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run(
            [sys.executable, "-c", self._CHILD, str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        assert child["after_sweep"] == []
        # First calls load the libraries and give the in-process results.
        assert {"networkx", "scipy", "scipy.sparse"} <= set(child["after_calls"])

        from repro.graphs import cycle_graph, to_networkx
        from repro.spectral import extreme_eigenvalues

        g = cycle_graph(8)
        nxg = to_networkx(g)
        assert child["nx_nodes"] == list(nxg.nodes())
        assert child["nx_edges"] == sorted([u, v, d["eid"]] for u, v, d in nxg.edges(data=True))
        assert child["nx_name"] == nxg.name
        assert child["eigen"] == list(extreme_eigenvalues(g))
