"""Tests for structural properties (components, girth, diameter, ...)."""

import math

import pytest

from repro.errors import GraphError, NotConnectedError
from repro.graphs.cycle_space import cycle_space_basis, cycle_space_dimension
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    star_graph,
    theta_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    bfs_distances,
    connected_components,
    degree_histogram,
    diameter,
    eccentricity,
    girth,
    is_bipartite,
    is_connected,
    require_connected,
    shortest_cycle_through,
)
from repro.graphs.transform import disjoint_union


class TestComponents:
    def test_single_component(self):
        assert connected_components(cycle_graph(5)) == [[0, 1, 2, 3, 4]]

    def test_two_components(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        comps = connected_components(g)
        assert len(comps) == 2
        assert comps[0] == [0, 1, 2]
        assert comps[1] == [3, 4, 5, 6]

    def test_isolated_vertices(self):
        g = Graph(3, [(0, 1)])
        assert connected_components(g) == [[0, 1], [2]]

    def test_is_connected(self):
        assert is_connected(cycle_graph(4))
        assert not is_connected(Graph(2, []))
        assert is_connected(Graph(0, []))

    def test_require_connected_raises(self):
        with pytest.raises(NotConnectedError):
            require_connected(Graph(2, []), "test")

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0, []),
            Graph(1, []),
            Graph(1, [(0, 0)]),
            Graph(5, [(0, 1), (3, 4)]),  # isolated vertex 2
            Graph(4, [(0, 1), (2, 2), (2, 2), (1, 3)]),  # loop-only vertex 2
            Graph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 1)]),  # parallels
            disjoint_union(cycle_graph(3), disjoint_union(Graph(2, [(1, 1)]), cycle_graph(4))),
            disjoint_union(torus_grid(3, 4), petersen_graph()),
            path_graph(2000),
        ],
        ids=lambda g: f"n{g.n}m{g.m}",
    )
    def test_matches_union_find_over_edges(self, graph):
        parent = list(range(graph.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in graph.edges():
            parent[find(u)] = find(v)
        groups = {}
        for v in range(graph.n):
            groups.setdefault(find(v), []).append(v)
        expected = sorted(groups.values())
        assert connected_components(graph) == expected
        assert is_connected(graph) == (len(expected) <= 1)
        # The cyclomatic number m - n + c counts components too, and must
        # agree with the size of a BFS-forest cycle basis.
        assert cycle_space_dimension(graph) == graph.m - graph.n + len(expected)
        assert len(cycle_space_basis(graph)) == cycle_space_dimension(graph)


class TestDistances:
    def test_bfs_distances_cycle(self):
        dist = bfs_distances(cycle_graph(6), 0)
        assert dist == [0, 1, 2, 3, 2, 1]

    def test_bfs_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0)[2] == -1

    def test_bfs_bad_source(self):
        with pytest.raises(GraphError):
            bfs_distances(cycle_graph(3), 9)

    def test_eccentricity_and_diameter(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2
        assert diameter(g) == 4

    def test_eccentricity_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            eccentricity(Graph(2, []), 0)

    def test_diameter_known_values(self):
        assert diameter(cycle_graph(8)) == 4
        assert diameter(complete_graph(5)) == 1
        assert diameter(petersen_graph()) == 2
        assert diameter(hypercube_graph(3)) == 3


class TestBipartite:
    def test_even_cycle_bipartite(self):
        assert is_bipartite(cycle_graph(6))

    def test_odd_cycle_not(self):
        assert not is_bipartite(cycle_graph(5))

    def test_loop_not_bipartite(self):
        assert not is_bipartite(Graph(2, [(0, 1), (0, 0)]))

    def test_star_bipartite(self):
        assert is_bipartite(star_graph(4))

    def test_forest_bipartite(self):
        assert is_bipartite(path_graph(7))


class TestGirth:
    def test_cycle(self):
        assert girth(cycle_graph(9)) == 9

    def test_complete(self):
        assert girth(complete_graph(4)) == 3

    def test_petersen(self):
        assert girth(petersen_graph()) == 5

    def test_hypercube(self):
        assert girth(hypercube_graph(3)) == 4

    def test_forest_infinite(self):
        assert math.isinf(girth(path_graph(4)))

    def test_loop_is_one(self):
        assert girth(Graph(2, [(0, 1), (1, 1)])) == 1

    def test_parallel_pair_is_two(self):
        assert girth(Graph(2, [(0, 1), (0, 1)])) == 2

    def test_theta(self):
        assert girth(theta_graph(3, 3, 5)) == 6

    def test_upper_bound_cap(self):
        assert math.isinf(girth(cycle_graph(12), upper_bound=5))
        assert girth(cycle_graph(12), upper_bound=12) == 12

    def test_torus(self):
        assert girth(torus_grid(6, 6)) == 4


class TestShortestCycleThrough:
    def test_cycle_every_vertex(self):
        g = cycle_graph(7)
        assert all(shortest_cycle_through(g, v) == 7 for v in g.vertices())

    def test_bowtie_like_asymmetry(self):
        # triangle 0-1-2 plus pendant path 2-3-4: cycles only via triangle
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert shortest_cycle_through(g, 0) == 3
        assert math.isinf(shortest_cycle_through(g, 4))

    def test_theta_vertices(self):
        g = theta_graph(2, 3, 4)
        # terminals sit on the two shortest arms: 2 + 3
        assert shortest_cycle_through(g, 0) == 5

    def test_loop(self):
        g = Graph(1, [(0, 0)])
        assert shortest_cycle_through(g, 0) == 1

    def test_parallel(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert shortest_cycle_through(g, 0) == 2

    def test_bad_vertex(self):
        with pytest.raises(GraphError):
            shortest_cycle_through(cycle_graph(3), 7)


class TestDegreeHistogram:
    def test_star(self):
        hist = degree_histogram(star_graph(5))
        assert hist == {5: 1, 1: 5}

    def test_regular(self):
        assert degree_histogram(cycle_graph(6)) == {2: 6}
