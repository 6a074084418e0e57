"""Corridor deployments — long thin strips for obstacle-channeled traffic.

A corridor is a uniform deployment in ``[0, length] x [0, width]`` with
``width`` well below the communication radius: locally the point set
looks one-dimensional at probe radii above ``width`` (growth dimension
between 1 and 2), and every long-range link runs along one axis — the
natural stage for :class:`repro.sinr.channel.ObstacleMask` walls, which
E13 drops across the corridor to channel the broadcast through a gap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.deploy.uniform import connected_draw
from repro.errors import DeploymentError
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def corridor(
    n: int,
    length: float,
    width: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    *,
    max_attempts: int = 50,
    name: str = "corridor",
    channel=None,
) -> Network:
    """``n`` stations uniform in a ``length x width`` strip.

    Connectivity along the strip needs roughly one station per
    communication radius of corridor, so densities comfortably above
    ``n > length / r`` connect within a few redraws.

    :param channel: optional channel model forwarded to the network
        (e.g. an obstacle mask laid across the corridor).
    :raises DisconnectedNetworkError: if no connected draw is found.
    """
    if n < 1:
        raise DeploymentError(f"need at least one station, got n={n}")
    if length <= 0 or width <= 0:
        raise DeploymentError(
            f"corridor extents must be positive, got {length} x {width}"
        )
    if width > length:
        raise DeploymentError(
            f"corridor width {width} exceeds length {length}; swap them"
        )
    return connected_draw(
        lambda: np.column_stack(
            [
                rng.uniform(0.0, length, size=n),
                rng.uniform(0.0, width, size=n),
            ]
        ),
        max_attempts,
        f"corridor deployment (n={n}, {length} x {width}) stayed "
        f"disconnected after {max_attempts} attempts; increase density",
        params=params, name=name, channel=channel,
    )
