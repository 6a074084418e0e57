"""Grid deployments — controlled-diameter workloads.

A grid with spacing ``s <= (1-eps) r / sqrt(2)`` has a communication graph
containing the king-graph of the grid, so its diameter is
``max(rows, cols) - 1`` up to a small constant; grids are the workload of
choice when an experiment sweeps the diameter ``D`` at fixed density.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DeploymentError
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def grid(
    rows: int,
    cols: int,
    spacing: float,
    params: Optional[SINRParameters] = None,
    name: str = "grid",
) -> Network:
    """A ``rows x cols`` grid with the given spacing.

    :param spacing: distance between grid neighbours; choose
        ``<= comm_radius`` so the graph is connected.
    """
    if rows < 1 or cols < 1:
        raise DeploymentError(f"grid must be at least 1x1, got {rows}x{cols}")
    if spacing <= 0:
        raise DeploymentError(f"grid spacing must be positive, got {spacing}")
    ys, xs = np.mgrid[0:rows, 0:cols]
    coords = np.column_stack([xs.ravel() * spacing, ys.ravel() * spacing])
    return Network(coords, params=params, name=name)


def grid_chain(
    length: int,
    width: int = 2,
    spacing: float = 0.5,
    params: Optional[SINRParameters] = None,
) -> Network:
    """A long, thin grid — the canonical diameter-sweep workload.

    ``length`` columns by ``width`` rows; the diameter grows linearly with
    ``length`` while density (hence ``Delta`` and per-hop congestion) stays
    constant, isolating the ``D`` factor of the broadcast bounds.
    """
    return grid(width, length, spacing, params=params, name="grid-chain")


def jittered_grid(
    rows: int,
    cols: int,
    spacing: float,
    jitter: float,
    rng: np.random.Generator,
    params: Optional[SINRParameters] = None,
    name: str = "jittered-grid",
) -> Network:
    """A grid with per-station uniform jitter in ``[-jitter, jitter]^2``.

    Breaking the exact symmetry of the grid exercises reception ties and
    non-uniform local densities without changing the macro structure.
    ``jitter`` must stay below ``spacing / 2`` to keep stations distinct.
    """
    if jitter < 0:
        raise DeploymentError(f"jitter must be >= 0, got {jitter}")
    if jitter >= spacing / 2:
        raise DeploymentError(
            f"jitter {jitter} too large for spacing {spacing}; "
            "stations could collide"
        )
    base = grid(rows, cols, spacing, params=params, name=name)
    offset = rng.uniform(-jitter, jitter, size=base.coords.shape)
    return Network(
        base.coords + offset, params=base.params, name=name
    )
