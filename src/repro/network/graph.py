"""Communication-graph utilities.

The communication graph ``G`` (paper Sect. 1.1) connects stations at
distance at most ``(1 - eps) * r``.  All of the paper's complexity bounds
are phrased in terms of this graph: its diameter ``D``, its maximum degree
``Delta`` (for the local-broadcast comparison) and its *granularity*
``Rs`` — the maximum ratio between distances of connected stations (used by
Daum et al. [5], whose bound the paper improves upon).  The graph itself
is :attr:`repro.network.network.Network.graph`, built from the network's
radius query; these functions measure it.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import DisconnectedNetworkError, GeometryError


def diameter(graph: nx.Graph) -> int:
    """Graph diameter ``D`` — the paper's central complexity parameter.

    :raises DisconnectedNetworkError: broadcast (and hence ``D``) is only
        defined for connected communication graphs.
    """
    if graph.number_of_nodes() == 0:
        raise DisconnectedNetworkError("empty graph has no diameter")
    if graph.number_of_nodes() == 1:
        return 0
    if not nx.is_connected(graph):
        raise DisconnectedNetworkError(
            "communication graph is disconnected; broadcast undefined"
        )
    return int(nx.diameter(graph))


def eccentricity(graph: nx.Graph, source: int) -> int:
    """Largest graph distance from ``source`` — the effective broadcast depth.

    Broadcast from ``source`` needs exactly ``ecc(source)`` hops, which can
    be up to 2x smaller than ``D``; experiments report both.
    """
    if source not in graph:
        raise GeometryError(f"source {source} not in graph")
    if not nx.is_connected(graph):
        raise DisconnectedNetworkError(
            "communication graph is disconnected; eccentricity undefined"
        )
    return int(nx.eccentricity(graph, v=source))


def bfs_layers(graph: nx.Graph, source: int) -> list[list[int]]:
    """Stations grouped by graph distance from ``source``.

    Layer ``i`` holds exactly the stations a perfect broadcast informs in
    its ``i``-th hop; used to measure per-hop progress of the protocols.
    """
    if source not in graph:
        raise GeometryError(f"source {source} not in graph")
    layers = [[source]]
    seen = {source}
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    return layers


def max_degree(graph: nx.Graph) -> int:
    """Maximum degree ``Delta`` of the communication graph."""
    if graph.number_of_nodes() == 0:
        return 0
    return int(max(d for _, d in graph.degree))


def granularity(dist: np.ndarray, graph: nx.Graph) -> float:
    """Granularity ``Rs``: max ratio of distances over communication edges.

    ``Rs = max_edge dist / min_edge dist`` — the parameter the Daum et al.
    [5] bound ``O(D log n log^{alpha+1} Rs)`` depends on, and which the
    paper's footnote-2 instance drives exponentially high.  Returns 1.0 for
    graphs with fewer than one edge.
    """
    edges = list(graph.edges)
    if not edges:
        return 1.0
    lengths = np.array([dist[i, j] for i, j in edges])
    shortest = float(lengths.min())
    if shortest <= 0:
        raise GeometryError("zero-length communication edge")
    return float(lengths.max()) / shortest
