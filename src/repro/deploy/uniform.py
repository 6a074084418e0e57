"""Uniform random deployments."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.errors import DeploymentError, DisconnectedNetworkError
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DeploymentError(message)


def connected_draw(
    draw: Callable[[], np.ndarray], max_attempts: int, failure: str,
    **network,
) -> Network:
    """``Network(draw(), **network)``, redrawn until it is connected.

    Redrawing until the communication graph is connected is the
    standard way to sample connected random geometric graphs; every
    randomized family of :mod:`repro.deploy` (and the scale
    experiments' sparse base) draws through this one loop, each
    ``draw()`` returning fresh coordinates from the caller's generator.

    :raises DisconnectedNetworkError: with message ``failure`` if none
        of ``max_attempts`` draws connects.
    """
    for _ in range(max_attempts):
        net = Network(draw(), **network)
        if net.is_connected:
            return net
    raise DisconnectedNetworkError(failure)


def uniform_square(
    n: int,
    side: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    *,
    max_attempts: int = 50,
    name: str = "uniform-square",
) -> Network:
    """``n`` stations uniform in an axis-aligned square of given side.

    Redraws up to ``max_attempts`` times until the communication graph is
    connected — the standard way to sample connected random geometric
    graphs.  Densities well above the connectivity threshold
    (``n >> (side/r)^2 log n``) connect on the first draw.

    :raises DisconnectedNetworkError: if no connected draw is found.
    """
    _require(n >= 1, f"need at least one station, got n={n}")
    _require(side > 0, f"square side must be positive, got {side}")
    return connected_draw(
        lambda: rng.uniform(0.0, side, size=(n, 2)),
        max_attempts,
        f"uniform square deployment (n={n}, side={side}) stayed "
        f"disconnected after {max_attempts} attempts; increase density",
        params=params, name=name,
    )


def uniform_cube(
    n: int,
    side: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    *,
    max_attempts: int = 50,
    name: str = "uniform-cube",
    channel=None,
) -> Network:
    """``n`` stations uniform in an axis-aligned cube — the 3D deployment.

    The metric is inferred from the coordinate dimension
    (``EuclideanMetric(3)``, growth dimension 3), so protocol constants
    and the growth certification tests see the right ``gamma``.  The 3D
    connectivity threshold is lower than 2D at equal side (each station
    sees a ball, not a disk, of neighbours, but volume dilutes density
    faster); like the other generators this redraws until connected.

    :param channel: optional channel model forwarded to the network.
    :raises DisconnectedNetworkError: if no connected draw is found.
    """
    _require(n >= 1, f"need at least one station, got n={n}")
    _require(side > 0, f"cube side must be positive, got {side}")
    return connected_draw(
        lambda: rng.uniform(0.0, side, size=(n, 3)),
        max_attempts,
        f"uniform cube deployment (n={n}, side={side}) stayed "
        f"disconnected after {max_attempts} attempts; increase density",
        params=params, name=name, channel=channel,
    )


def uniform_disk(
    n: int,
    radius: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    *,
    max_attempts: int = 50,
    name: str = "uniform-disk",
) -> Network:
    """``n`` stations uniform in a disk (area-uniform, via sqrt sampling)."""
    _require(n >= 1, f"need at least one station, got n={n}")
    _require(radius > 0, f"disk radius must be positive, got {radius}")

    def draw() -> np.ndarray:
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    return connected_draw(
        draw,
        max_attempts,
        f"uniform disk deployment (n={n}, radius={radius}) stayed "
        f"disconnected after {max_attempts} attempts; increase density",
        params=params, name=name,
    )
