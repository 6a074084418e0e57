"""Cluster deployments — high local density at small diameter."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DeploymentError, DisconnectedNetworkError
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def cluster_network(
    n_clusters: int,
    per_cluster: int,
    cluster_radius: float,
    center_spacing: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    name: str = "clusters",
) -> Network:
    """Clusters of stations on a ring of cluster centers.

    ``n_clusters`` centers are placed on a circle with consecutive centers
    ``center_spacing`` apart; each cluster draws ``per_cluster`` stations
    uniformly from a disk of ``cluster_radius`` around its center.  With
    ``center_spacing + 2 * cluster_radius <= comm_radius`` consecutive
    clusters are fully connected, giving diameter ``~ n_clusters / 2`` with
    maximum degree ``~ 3 * per_cluster`` — the dense regime where the
    local-broadcast baseline pays its ``Delta`` factor (experiment E8).
    """
    if n_clusters < 1 or per_cluster < 1:
        raise DeploymentError("need at least one cluster and one station")
    if cluster_radius < 0 or center_spacing <= 0:
        raise DeploymentError("radii and spacing must be positive")
    if n_clusters == 1:
        centers = np.zeros((1, 2))
    else:
        ring_radius = center_spacing / (2 * np.sin(np.pi / n_clusters))
        angles = 2 * np.pi * np.arange(n_clusters) / n_clusters
        centers = ring_radius * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
    points = []
    for center in centers:
        r = cluster_radius * np.sqrt(rng.uniform(0, 1, size=per_cluster))
        theta = rng.uniform(0, 2 * np.pi, size=per_cluster)
        points.append(
            center + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        )
    net = Network(np.vstack(points), params=params, name=name)
    if not net.is_connected:
        raise DisconnectedNetworkError(
            "cluster network disconnected; reduce center_spacing or "
            "increase cluster_radius"
        )
    return net


def dumbbell(
    per_side: int,
    bridge_hops: int,
    rng: np.random.Generator,
    side_radius: float = 0.3,
    hop: float = 0.6,
    params: Optional[SINRParameters] = None,
) -> Network:
    """Two dense blobs joined by a sparse path of single stations.

    The classic stress test for density-adaptive protocols: the message
    must leave a region of mass ``per_side`` through solitary relays whose
    ``eps/2``-balls are nearly empty — exactly the distinction
    ``DensityTest`` + ``Playoff`` exist to make.
    """
    if per_side < 1 or bridge_hops < 1:
        raise DeploymentError("need at least one station per side and hop")

    def blob(center_x: float, rim_sign: float) -> np.ndarray:
        """Random blob plus a deterministic anchor at the bridge-side rim.

        The anchor guarantees the blob connects to the first bridge relay
        regardless of where the random stations land.
        """
        r = side_radius * np.sqrt(rng.uniform(0, 1, size=per_side - 1))
        theta = rng.uniform(0, 2 * np.pi, size=per_side - 1)
        random_part = np.column_stack(
            [center_x + r * np.cos(theta), r * np.sin(theta)]
        )
        anchor = np.array([[center_x + rim_sign * side_radius, 0.0]])
        return np.vstack([anchor, random_part])

    bridge_x = side_radius + hop * np.arange(1, bridge_hops + 1)
    bridge = np.column_stack([bridge_x, np.zeros(bridge_hops)])
    right_center = side_radius + hop * (bridge_hops + 1) + side_radius
    coords = np.vstack(
        [blob(0.0, 1.0), bridge, blob(right_center, -1.0)]
    )
    net = Network(coords, params=params, name="dumbbell")
    if not net.is_connected:
        raise DisconnectedNetworkError(
            "dumbbell disconnected; shrink hop or grow side_radius"
        )
    return net
