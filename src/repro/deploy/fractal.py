"""Fractal cluster-of-clusters deployments with tunable growth dimension.

The paper's analysis is parameterized by the growth dimension ``gamma``
of the underlying metric, not by a Euclidean embedding — so the scenario
library needs deployments whose *empirical* growth dimension can be
dialed anywhere in ``(0, 2]`` while living in the plane.  The classic
construction is the recursive cluster-of-clusters: every cluster at
recursion level ``l`` consists of ``branching`` sub-clusters drawn in a
disk whose radius shrinks by a fixed ``ratio`` per level.  The limit
set's box-counting dimension is ``log(branching) / log(1 / ratio)``, so
fixing a target ``dimension`` pins ``ratio = branching^(-1/dimension)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.deploy.uniform import connected_draw
from repro.errors import DeploymentError
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def fractal_dimension(branching: int, ratio: float) -> float:
    """Box-counting dimension ``log(branching) / log(1/ratio)``."""
    if branching < 2:
        raise DeploymentError(f"branching must be >= 2, got {branching}")
    if not 0 < ratio < 1:
        raise DeploymentError(f"ratio must be in (0, 1), got {ratio}")
    return math.log(branching) / math.log(1.0 / ratio)


def fractal_clusters(
    levels: int,
    branching: int,
    rng: np.random.Generator,
    *,
    dimension: float = 1.5,
    span: float = 0.55,
    params: Optional[SINRParameters] = None,
    max_attempts: int = 50,
    name: str = "fractal-clusters",
    channel=None,
) -> Network:
    """``branching ** levels`` stations in a recursive cluster hierarchy.

    Level ``l`` scatters each center's ``branching`` children uniformly
    in a disk of radius ``(span / 2) * ratio^l`` around it, with
    ``ratio = branching^(-1/dimension)`` so the hierarchy's scaling
    exponent matches the target growth ``dimension``
    (:func:`repro.geometry.growth.growth_dimension_estimate` certifies
    the match on probe radii inside the hierarchy's scale range).

    The whole structure spans ``~ span / (1 - ratio)``; with the default
    ``span`` that keeps most pairs within the communication radius, and
    the generator redraws until the graph is connected like the other
    families.

    :param levels: recursion depth (``>= 1``).
    :param branching: children per cluster (``>= 2``).
    :param dimension: target growth dimension (``0 < dimension <= 2``
        for a planar embedding).
    :param span: diameter scale of the top-level scatter.
    :param channel: optional channel model forwarded to the network.
    :raises DisconnectedNetworkError: if no connected draw is found.
    """
    if levels < 1:
        raise DeploymentError(f"levels must be >= 1, got {levels}")
    if branching < 2:
        raise DeploymentError(f"branching must be >= 2, got {branching}")
    if not 0 < dimension <= 2:
        raise DeploymentError(
            f"dimension must be in (0, 2] for a planar embedding, "
            f"got {dimension}"
        )
    if span <= 0:
        raise DeploymentError(f"span must be positive, got {span}")
    ratio = branching ** (-1.0 / dimension)

    def draw() -> np.ndarray:
        centers = np.zeros((1, 2))
        for level in range(levels):
            radius = 0.5 * span * ratio ** level
            r = radius * np.sqrt(
                rng.uniform(0.0, 1.0, size=centers.shape[0] * branching)
            )
            theta = rng.uniform(
                0.0, 2.0 * math.pi, size=centers.shape[0] * branching
            )
            offsets = np.column_stack(
                [r * np.cos(theta), r * np.sin(theta)]
            )
            centers = np.repeat(centers, branching, axis=0) + offsets
        return centers

    return connected_draw(
        draw,
        max_attempts,
        f"fractal cluster deployment (levels={levels}, "
        f"branching={branching}, dimension={dimension}) stayed "
        f"disconnected after {max_attempts} attempts; increase span "
        f"density or reduce levels",
        params=params, name=name, channel=channel,
    )
