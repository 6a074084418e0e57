"""Shared infrastructure for experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import render_table
from repro.errors import AnalysisError

#: Recognized effort scales.
SCALES = ("quick", "full")


def check_scale(scale: str) -> str:
    """Validate and return a sweep scale (``"quick"`` or ``"full"``)."""
    if scale not in SCALES:
        raise AnalysisError(
            f"unknown scale {scale!r}; expected one of {SCALES}"
        )
    return scale


@dataclass
class ExperimentReport:
    """Uniform result record produced by every experiment.

    :param exp_id: experiment identifier (``"E05"``).
    :param title: short human title.
    :param claim: the paper claim being validated (with its bound).
    :param headers: column names of the result table.
    :param rows: table rows (pre-formatted cells).
    :param metrics: machine-readable key results (asserted by tests and
        listed in the CLI's ``--markdown`` output).
    :param notes: free-form caveats / fit summaries.
    """

    exp_id: str
    title: str
    claim: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full plain-text report."""
        parts = [
            f"== {self.exp_id}: {self.title} ==",
            f"claim: {self.claim}",
            render_table(self.headers, self.rows),
        ]
        if self.metrics:
            parts.append(
                "metrics: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.metrics.items()))
            )
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


def run_grid_points(points, seed: int, name: str):
    """Execute experiment points through the grid orchestrator.

    The experiment declares its parameter points as
    :class:`repro.fastsim.grid.GridPoint` entries and this helper runs
    them through :func:`repro.fastsim.grid.run_grid`, inheriting the
    process-wide execution options (``--jobs``, ``--cache-dir``) the CLI
    installed.  Per-point seeds are spawned from ``seed``, so no two
    points ever share (or arithmetically collide into) a seed.

    :returns: list of :class:`repro.fastsim.grid.GridPointResult` in
        point order.
    """
    from repro.fastsim.grid import GridSpec, run_grid

    return run_grid(GridSpec(points=list(points), seed=seed, name=name))


def fmt(value: float, digits: int = 1) -> str:
    """Fixed-point cell formatting."""
    return f"{value:.{digits}f}"


def hop_round_budget(network) -> int:
    """Broadcast round budget from a hop-count estimate.

    :func:`~repro.core.constants.dissemination_budget` with ``hops``,
    the box diagonal over the comm radius, for the depth — the
    Theorem 2 shape without ever materializing a dense structure
    (diameter included), so the scale experiments (E14, E15) can
    budget sparse-backend sweeps.
    """
    import math

    from repro.core.constants import dissemination_budget

    span = network.coords.max(axis=0) - network.coords.min(axis=0)
    hops = math.ceil(
        float(np.linalg.norm(span)) / network.params.comm_radius
    )
    return dissemination_budget(network.size, hops)


def connected_sparse_square(
    n: int,
    density: float,
    rng,
    params,
    *,
    cutoff: float,
    name: str,
    max_attempts: int = 8,
):
    """Connected constant-density uniform square in explicit sparse mode.

    ``repro.deploy.uniform_square`` would work but routes connectivity
    through the dense path on small n; deploying directly keeps every
    size on the same code path (sparse BFS connectivity, no networkx).
    Shared by the scale experiments (E14, E15).
    """
    import math

    from repro.errors import DisconnectedNetworkError
    from repro.network.network import Network

    side = math.sqrt(n / density)
    for _ in range(max_attempts):
        coords = rng.uniform(0.0, side, size=(n, 2))
        net = Network(
            coords, params=params, name=f"{name}-n{n}",
            backend="sparse", cutoff=cutoff,
        )
        if net.is_connected:
            return net
    raise DisconnectedNetworkError(
        f"{name} base (n={n}, side={side:.1f}) stayed disconnected "
        f"after {max_attempts} draws; raise the density"
    )
