"""Deployed networks and their communication graphs."""

from repro.network.network import Network
from repro.network.graph import (
    bfs_layers,
    diameter,
    eccentricity,
    granularity,
    max_degree,
)

__all__ = [
    "Network",
    "diameter",
    "eccentricity",
    "bfs_layers",
    "granularity",
    "max_degree",
]
