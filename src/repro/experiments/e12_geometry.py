"""E12 — geometry-independence (the paper's headline, Sect. 1.3).

Takes a base deployment and produces perturbed copies with the *same*
communication graph but different station positions inside their
reachability balls (:func:`repro.deploy.perturb.same_graph_family`).
The claim: broadcast cost is a function of the communication graph alone,
so the per-member mean rounds across the family should differ only by
sampling noise.  Control rows measure the spread across *different*
communication graphs of the same size for contrast.

The family is constructed once (members must share one base), then every
member and every control draw becomes a grid point; the sweeps run
through :func:`repro.fastsim.grid.run_grid` on spawned seeds.
"""

from __future__ import annotations

from repro.analysis.stats import aggregate_trials, relative_spread
from repro.core.constants import ProtocolConstants
from repro.deploy import same_graph_family, uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.engine import spawn_rngs
from repro.fastsim.grid import GridPoint

#: Trial counts raised from the pre-grid 4/8: the spread statistics are
#: sampling-noise bound, and the batched sweep engine plus grid
#: parallelism make the extra replications cheap.
SWEEP = {
    "quick": {"n": 64, "scales": [0.02, 0.05], "trials": 12},
    "full": {"n": 128, "scales": [0.02, 0.05, 0.1], "trials": 16},
}

N_CONTROLS = 3


def run(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Run E12 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E12",
        title="Geometry-independence of broadcast cost",
        claim="Sect. 1.3: cost depends on the communication graph, not on "
              "node positions within reachability balls",
        headers=["deployment", "perturbation", "mean rounds", "trials"],
    )
    rng0 = spawn_rngs(1, seed)[0]
    base = uniform_square(n=cfg["n"], side=3.0, rng=rng0)
    family = same_graph_family(base, cfg["scales"], rng0)

    labels = ["base"] + [f"scale={s}" for s in cfg["scales"]]
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, m=member: m,
            n_replications=cfg["trials"],
            label=label,
            constants=constants,
            kwargs={"source": 0},
        )
        for label, member in zip(labels, family)
    ]
    # Controls: different communication graphs of the same size/density,
    # drawn from the points' own deploy rngs.
    points.extend(
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng: uniform_square(
                n=cfg["n"], side=3.0, rng=rng
            ),
            n_replications=cfg["trials"],
            label=f"draw {k}",
            constants=constants,
            kwargs={"source": 0},
        )
        for k in range(N_CONTROLS)
    )
    results = run_grid_points(points, seed, "e12")

    member_means = []
    for res in results[: len(family)]:
        stats = aggregate_trials(res.sweep.successful_rounds())
        member_means.append(stats.mean)
        report.rows.append(
            ["same-graph", res.point.label, fmt(stats.mean), stats.count]
        )
    control_means = []
    for res in results[len(family):]:
        stats = aggregate_trials(res.sweep.successful_rounds())
        control_means.append(stats.mean)
        report.rows.append(
            ["control-graph", res.point.label, fmt(stats.mean), stats.count]
        )

    family_spread = relative_spread(member_means)
    control_spread = relative_spread(member_means + control_means)
    report.metrics["family_spread"] = round(family_spread, 3)
    report.metrics["with_controls_spread"] = round(control_spread, 3)
    report.notes.append(
        "family spread (same graph, different geometry) should be small "
        "sampling noise; control rows vary the graph itself"
    )
    return report
