"""E15 — mobility: protocol cost and graph stability under movement.

Every claim through E14 is probed on *frozen* deployments; the paper's
statements, however, are about the communication *graph*, and a moving
deployment changes that graph over time.  This experiment quantifies
both sides of the temporal story (DESIGN.md §7) across growth
dimensions — a 2D uniform square (``gamma ~ 2``), a corridor
(``gamma ~ 1``) and a fractal cluster hierarchy (``gamma ~ 1.5``):

* **protocol slowdown** — ``SBroadcast`` sweeps on the static deployment
  versus the same deployment drifting under
  :class:`~repro.deploy.mobility.BrownianDrift` at increasing per-round
  rates (trajectory shared by all replications; the sweeps ride the
  incremental sparse/dense `advance` path through the kernels'
  :class:`~repro.fastsim.engine.Medium`).  The headline is the
  mobile/static mean-round ratio per (family, rate).
* **same-graph-family escape time** — how many rounds the drifting
  deployment keeps its initial communication graph, i.e. how long it
  stays inside the same-graph family whose E12/E14 spread underpins the
  geometry-independence claim.  Escape must shorten as the rate grows;
  while the deployment is inside the family, the static measurements
  remain exact.

``--scale quick`` stays at n <= 384 (seconds, CI); ``--scale full``
drives the square family at n >= 20k through the sparse backend with an
explicit hop-count budget, the regime where
:meth:`repro.network.network.Network.advance` patching (gated by
``benchmarks/bench_mobility.py``) carries the per-round cost.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.stats import aggregate_trials
from repro.core.constants import ProtocolConstants
from repro.deploy import corridor, fractal_clusters, uniform_square
from repro.deploy.mobility import BrownianDrift
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    connected_sparse_square,
    fmt,
    hop_round_budget,
    run_grid_points,
)
from repro.fastsim.engine import Medium, spawn_rngs
from repro.fastsim.grid import GridPoint
from repro.mac import pairs_within
from repro.network.network import Network
from repro.sinr.params import SINRParameters

#: Stations per unit area of the square family (matches E14).
DENSITY = 12.0

#: Per-station per-round probability of moving — well inside the sparse
#: incremental regime (DESIGN.md §7) at full scale.
MOVE_PROB = {"quick": 0.25, "full": 0.05}

SWEEP = {
    "quick": {
        "square_n": 96,
        "corridor_n": 48,
        "fractal": (4, 3),   # levels, branching -> 81 stations
        "rates": [0.005, 0.02],
        "trials": 4,
        "escape_trials": 3,
        "escape_cap": 400,
    },
    "full": {
        "square_n": 20000,
        "corridor_n": 4096,
        "fractal": (6, 4),   # 4096 stations
        "rates": [0.002, 0.01],
        "trials": 4,
        "escape_trials": 3,
        "escape_cap": 600,
    },
}

CUTOFF = 2.0


def _deploy_square(
    n: int, rng: np.random.Generator, params: SINRParameters,
    sparse: bool,
) -> Network:
    """Connected constant-density square; explicit sparse mode at scale."""
    if not sparse:
        side = math.sqrt(n / DENSITY)
        return uniform_square(n=n, side=side, rng=rng, params=params)
    return connected_sparse_square(
        n, DENSITY, rng, params, cutoff=CUTOFF, name="e15-square"
    )


def escape_time(
    net: Network,
    model: BrownianDrift,
    cap: int,
) -> int:
    """Rounds until the drifting deployment leaves its same-graph family.

    Steps a :class:`~repro.fastsim.engine.Medium` over ``net`` one
    mobility step per round (through the incremental
    :meth:`~repro.network.network.Network.advance` path) and compares
    communication-graph edge sets (:func:`repro.mac.pairs_within` at the
    communication radius — no networkx graph per round) against the
    initial graph; returns the first round at which they differ, or
    ``cap`` if the graph survives the whole horizon.
    """
    radius = net.params.comm_radius
    base_i, base_j = pairs_within(net, radius)
    medium = Medium(net, mobility=model)
    for round_no in range(cap):
        ii, jj = pairs_within(medium.step(), radius)
        if not (
            np.array_equal(ii, base_i) and np.array_equal(jj, base_j)
        ):
            return round_no + 1
    return cap


def run(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Run E15 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    params = SINRParameters.default()
    move_prob = MOVE_PROB[scale]
    report = ExperimentReport(
        exp_id="E15",
        title="Mobility: protocol slowdown and graph escape time",
        claim="The graph-centric claims degrade gracefully under "
              "movement: broadcast slows by a bounded factor, and the "
              "deployment leaves its same-graph family at a rate "
              "controlled by the mobility scale",
        headers=[
            "family", "n", "rate", "mean rounds", "ok", "slowdown",
            "escape",
        ],
    )
    rng0 = spawn_rngs(1, seed)[0]

    levels, branching = cfg["fractal"]
    families = [
        (
            "square",
            _deploy_square(
                cfg["square_n"], rng0, params, sparse=(scale == "full")
            ),
        ),
        (
            "corridor",
            corridor(
                n=cfg["corridor_n"],
                length=cfg["corridor_n"] / DENSITY * 2.0,
                width=0.35,
                rng=rng0,
                params=params,
            ),
        ),
        (
            "fractal",
            fractal_clusters(
                levels, branching, rng0, dimension=1.5, params=params
            ),
        ),
    ]

    points: list[GridPoint] = []
    labels: list[tuple[str, int, float]] = []
    for fi, (family, net) in enumerate(families):
        budget = hop_round_budget(net)
        for rate in [0.0] + cfg["rates"]:
            kwargs: dict = {"source": 0, "round_budget": budget}
            if rate > 0.0:
                kwargs["mobility"] = BrownianDrift(
                    rate * params.comm_radius,
                    move_prob=move_prob,
                    seed=seed + fi,
                )
            points.append(
                GridPoint(
                    kind="spont_broadcast",
                    deployment=lambda rng, m=net: m,
                    n_replications=cfg["trials"],
                    label=f"{family} rate={rate}",
                    constants=constants,
                    kwargs=kwargs,
                    share_deployment=family,
                )
            )
            labels.append((family, net.size, rate))

    results = run_grid_points(points, seed, "e15")

    static_mean: dict[str, float] = {}
    slowdowns: list[float] = []
    success_rates: list[float] = []
    escape_rows: dict[tuple[str, float], float] = {}
    for (family, n, rate), res in zip(labels, results):
        stats = aggregate_trials(res.sweep.successful_rounds())
        success_rates.append(res.sweep.success_rate())
        if rate == 0.0:
            static_mean[family] = stats.mean
            slowdown = 1.0
        else:
            slowdown = stats.mean / static_mean[family]
            slowdowns.append(slowdown)
        escape = ""
        if rate > 0.0:
            net = res.network
            times = [
                escape_time(
                    net,
                    BrownianDrift(
                        rate * params.comm_radius,
                        move_prob=move_prob,
                        seed=seed + 100 + t,
                    ),
                    cfg["escape_cap"],
                )
                for t in range(cfg["escape_trials"])
            ]
            escape_rows[(family, rate)] = float(np.mean(times))
            escape = fmt(escape_rows[(family, rate)])
            report.metrics[
                f"escape_{family}_r{rate}"
            ] = round(escape_rows[(family, rate)], 1)
        report.rows.append(
            [
                family, n, rate, fmt(stats.mean),
                fmt(res.sweep.success_rate(), 2), fmt(slowdown, 2),
                escape,
            ]
        )
        report.metrics[f"slowdown_{family}_r{rate}"] = round(slowdown, 3)

    report.metrics["max_slowdown"] = round(max(slowdowns), 3)
    report.metrics["min_success_rate"] = round(min(success_rates), 3)
    lo, hi = cfg["rates"][0], cfg["rates"][-1]
    report.metrics["escape_monotone"] = all(
        escape_rows[(family, hi)] <= escape_rows[(family, lo)]
        for family, _net in families
    )
    report.notes.append(
        "mobile sweeps share one BrownianDrift trajectory per point "
        f"(move_prob={move_prob}); escape time = rounds until the "
        "communication graph first differs from the static one "
        f"(capped at {cfg['escape_cap']}); full scale runs the square "
        "family through the sparse backend's incremental advance "
        "(DESIGN.md §7)"
    )
    return report
