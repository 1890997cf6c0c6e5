"""Construction helpers and the NetworkX bridge.

The paper's experiments used NetworkX's random regular generator; we keep a
faithful two-way bridge so our own generators (see
:mod:`repro.graphs.random_regular`) can be cross-validated against it, and so
downstream users can bring arbitrary NetworkX graphs into the walk engine.
NetworkX is imported on the first call to :func:`to_networkx`, so importing
this module (and every sweep) stays free of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "from_edges",
    "from_adjacency",
    "from_networkx",
    "to_networkx",
]


def from_edges(edges: Iterable[Edge], num_vertices: int = None, name: str = "") -> Graph:
    """Build a graph from an edge list.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs with non-negative integer endpoints.
    num_vertices:
        Total vertex count.  Defaults to ``1 + max endpoint`` (0 if no edges).
    name:
        Optional label.
    """
    edge_list = list(edges)
    if num_vertices is None:
        num_vertices = 0
        for u, v in edge_list:
            num_vertices = max(num_vertices, u + 1, v + 1)
    return Graph(num_vertices, edge_list, name=name)


def from_adjacency(adjacency: Sequence[Sequence[int]], name: str = "") -> Graph:
    """Build a *simple* graph from adjacency lists.

    ``adjacency[v]`` lists the neighbours of ``v``.  Each undirected edge must
    appear in both endpoint lists exactly once; loops are rejected (use
    :func:`from_edges` for multigraphs).
    """
    n = len(adjacency)
    edges: List[Edge] = []
    seen = set()
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if not (0 <= v < n):
                raise GraphError(f"neighbour {v} of vertex {u} out of range")
            if u == v:
                raise GraphError(f"loop at vertex {u}; adjacency input must be simple")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
    graph = Graph(n, edges, name=name)
    for u, nbrs in enumerate(adjacency):
        if graph.degree(u) != len(nbrs):
            raise GraphError(
                f"adjacency lists are asymmetric at vertex {u}: "
                f"listed {len(nbrs)} neighbours, reconstructed degree {graph.degree(u)}"
            )
    return graph


def from_networkx(nx_graph: "nx.Graph", name: str = "") -> Tuple[Graph, Dict[Hashable, int]]:
    """Convert a NetworkX graph (or multigraph) to a :class:`Graph`.

    Returns
    -------
    (graph, vertex_map):
        ``vertex_map`` sends each NetworkX node to its integer id, assigned
        in the (stable) node iteration order of ``nx_graph``.
    """
    if nx_graph.is_directed():
        raise GraphError("directed graphs are not supported")
    vertex_map: Dict[Hashable, int] = {node: i for i, node in enumerate(nx_graph.nodes())}
    edges: List[Edge] = []
    if nx_graph.is_multigraph():
        for u, v, _key in nx_graph.edges(keys=True):
            edges.append((vertex_map[u], vertex_map[v]))
    else:
        for u, v in nx_graph.edges():
            edges.append((vertex_map[u], vertex_map[v]))
    label = name or str(nx_graph.name or "")
    return Graph(len(vertex_map), edges, name=label), vertex_map


def to_networkx(graph: Graph) -> "nx.MultiGraph":
    """Convert to a NetworkX :class:`~networkx.MultiGraph`.

    A multigraph is always returned so loops and parallel edges survive the
    round trip; edge ids are stored as the ``eid`` edge attribute.
    """
    import networkx as nx

    out = nx.MultiGraph(name=graph.name)
    out.add_nodes_from(range(graph.n))
    for eid, (u, v) in enumerate(graph.edges()):
        out.add_edge(u, v, eid=eid)
    return out
