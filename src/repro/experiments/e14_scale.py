"""E14 — geometry-independence at scale (sparse SINR backend).

E12 established the paper's headline — broadcast cost is a function of
the communication graph, not of station positions inside their
reachability balls — at n = 64..128, the ceiling of the dense O(n^2)
resolver.  The sparse backend (DESIGN.md §2.2) removes that ceiling;
this experiment re-measures the same-graph spread on constant-density
deployments up to five hundred times larger.

Per deployment size ``n``:

* one connected uniform-square base at constant density
  (:data:`DENSITY` stations per unit area, the regime where the sparse
  near field is O(n));
* a same-graph family via the O(n) slack-bounded jitter
  (:func:`repro.deploy.perturb.jitter_within_slack` — the vectorized,
  provably graph-preserving counterpart of E12's rejection sampler);
* one ``spont_broadcast`` sweep per member on spawned seeds through the
  grid layer, **in sparse mode** — the round budget is passed
  explicitly (hop-count estimate from the box diagonal) so no dense
  structure, diameter included, is ever materialized.

Headline metric: the per-``n`` relative spread of per-member mean
rounds, which the claim says is sampling noise.  ``--scale full``
climbs to n = 50,000 (minutes; an n = 100k wake-up round is exercised
by ``benchmarks/bench_sinr_backend.py``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import aggregate_trials, relative_spread
from repro.core.constants import ProtocolConstants
from repro.deploy.perturb import same_graph_family_sparse
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    connected_sparse_square,
    fmt,
    hop_round_budget,
    run_grid_points,
)
from repro.fastsim.engine import spawn_rngs
from repro.fastsim.grid import GridPoint
from repro.network.network import Network
from repro.sinr.params import SINRParameters

#: Stations per unit area — comfortably above the connectivity
#: threshold for every size swept, so bases connect in a draw or two.
DENSITY = 12.0

SWEEP = {
    "quick": {"ns": [128, 384], "scales": [0.05], "trials": 4},
    "full": {"ns": [2048, 10000, 50000], "scales": [0.05], "trials": 4},
}

CUTOFF = 2.0
MAX_DEPLOY_ATTEMPTS = 8


def _deploy_base(
    n: int, rng: np.random.Generator, params: SINRParameters
) -> Network:
    """The E14 sparse base (see :func:`connected_sparse_square`)."""
    return connected_sparse_square(
        n, DENSITY, rng, params, cutoff=CUTOFF, name="e14",
        max_attempts=MAX_DEPLOY_ATTEMPTS,
    )


def run(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Run E14 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    params = SINRParameters.default()
    report = ExperimentReport(
        exp_id="E14",
        title="Geometry-independence at scale (sparse backend)",
        claim="Sect. 1.3 at production scale: the same-graph spread "
              "stays sampling noise when n grows 100x beyond the dense "
              "resolver's ceiling",
        headers=["n", "member", "mean rounds", "trials", "spread"],
    )
    rng0 = spawn_rngs(1, seed)[0]

    points: list[GridPoint] = []
    groups: list[tuple[int, list[str]]] = []
    for n in cfg["ns"]:
        base = _deploy_base(n, rng0, params)
        family = same_graph_family_sparse(base, cfg["scales"], rng0)
        budget = hop_round_budget(base)
        labels = ["base"] + [f"jitter={s}" for s in cfg["scales"]]
        for label, member in zip(labels, family):
            points.append(
                GridPoint(
                    kind="spont_broadcast",
                    deployment=lambda rng, m=member: m,
                    n_replications=cfg["trials"],
                    label=f"n={n} {label}",
                    constants=constants,
                    kwargs={"source": 0, "round_budget": budget},
                )
            )
        groups.append((n, labels))

    results = run_grid_points(points, seed, "e14")

    spreads = {}
    cursor = 0
    for n, labels in groups:
        member_means = []
        rows_start = len(report.rows)
        for label in labels:
            res = results[cursor]
            cursor += 1
            stats = aggregate_trials(res.sweep.successful_rounds())
            member_means.append(stats.mean)
            report.rows.append(
                [n, label, fmt(stats.mean), stats.count, ""]
            )
        spread = relative_spread(member_means)
        spreads[n] = spread
        report.rows[rows_start][-1] = fmt(spread)
    report.metrics["max_family_spread"] = round(max(spreads.values()), 3)
    report.metrics["n_max"] = max(cfg["ns"])
    for n, spread in spreads.items():
        report.metrics[f"family_spread_n{n}"] = round(spread, 3)
    report.notes.append(
        "same-graph members built by slack-bounded jitter (provably "
        "graph-preserving, O(n)); sweeps run on the sparse backend with "
        f"cutoff {CUTOFF} — reception decisions are certified "
        "conservative (DESIGN.md §2.2)"
    )
    return report
