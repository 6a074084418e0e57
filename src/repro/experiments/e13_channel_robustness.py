"""E13 — geometry robustness off the idealized channel.

The paper's geometry claims are proved under one channel: uniform-power
``P d^-alpha`` reception (Eq. (1)).  E12 showed the headline claim — cost
is a function of the communication graph, not the embedding — *under*
that channel; E13 asks whether the claim is a property of the geometry
or an artifact of the idealization.  It re-measures two headline metrics
under every channel model of :mod:`repro.sinr.channel`:

* the **E12 geometry-independence spread** — the relative spread of mean
  broadcast cost across a same-communication-graph family, per channel
  (the communication graph stays distance-based, so the family is the
  *same* across channels; only reception changes);
* the **E08 density-independence ratio** — mean broadcast cost on a
  double-density deployment over the base deployment, per channel (the
  claim predicts a ratio near 1).

A third axis sweeps the deployment families — 2D square, 3D cube,
fractal cluster hierarchy, corridor — under every channel, so the
scenario library's geometry x channel matrix is exercised end to end.
Every (channel, deployment) pair is one :class:`GridPoint`; deployments
are built once parent-side and re-wrapped per channel with
``Network.with_channel``, so each pair gets a distinct fingerprint (and
hence cache key and gain structure) while sharing coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import aggregate_trials, relative_spread
from repro.core.constants import ProtocolConstants
from repro.deploy import (
    corridor,
    fractal_clusters,
    same_graph_family,
    uniform_cube,
    uniform_square,
)
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.engine import spawn_rngs
from repro.fastsim.grid import GridPoint
from repro.network.network import Network
from repro.sinr.channel import (
    ChannelModel,
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    rectangle,
)

SWEEP = {
    "quick": {
        "n": 36, "side": 2.2, "trials": 6, "scales": [0.04],
        "dense_factor": 2,
        "cube": {"n": 40, "side": 1.6},
        "fractal": {"levels": 3, "branching": 3, "dimension": 1.5},
        "corridor": {"n": 40, "length": 5.0, "width": 0.35},
    },
    "full": {
        "n": 64, "side": 3.0, "trials": 10, "scales": [0.03, 0.06],
        "dense_factor": 3,
        "cube": {"n": 96, "side": 2.2},
        "fractal": {"levels": 4, "branching": 3, "dimension": 1.5},
        "corridor": {"n": 72, "length": 8.0, "width": 0.35},
    },
}

#: Shadowing depth / attenuation chosen so channels deform reception
#: noticeably without severing the broadcast (success rates stay high —
#: the experiment measures cost robustness, not outage).
SIGMA_DB = 3.0
ATTENUATION_DB = 10.0


def _wall(net: Network) -> np.ndarray:
    """A vertical obstacle slab across the middle 60% of ``net``'s extent.

    Derived from the deployment's bounding box (first two axes), so the
    same constructor serves every family; the gaps above and below keep a
    route around the wall open.
    """
    coords = np.asarray(net.coords)[:, :2]
    (x0, y0), (x1, y1) = coords.min(axis=0), coords.max(axis=0)
    cx = 0.5 * (x0 + x1)
    thickness = max(0.04 * (x1 - x0), 1e-3)
    return rectangle(
        cx - thickness, y0 + 0.2 * (y1 - y0),
        cx + thickness, y0 + 0.8 * (y1 - y0),
    )


def _channels(net: Network, seed: int) -> list[tuple[str, ChannelModel]]:
    """The channel battery for one deployment, idealized channel first."""
    return [
        ("uniform", UniformPower()),
        ("shadowing", LogNormalShadowing(sigma_db=SIGMA_DB, seed=seed)),
        ("dual-slope", DualSlope(breakpoint=1.0)),
        (
            "obstacles",
            ObstacleMask([_wall(net)], attenuation_db=ATTENUATION_DB),
        ),
    ]


def _point(
    net: Network,
    channel: ChannelModel,
    label: str,
    trials: int,
    constants: ProtocolConstants,
) -> GridPoint:
    wrapped = net.with_channel(channel)
    return GridPoint(
        kind="spont_broadcast",
        deployment=lambda rng, m=wrapped: m,
        n_replications=trials,
        label=label,
        constants=constants,
        kwargs={"source": 0},
    )


def run(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Run E13 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E13",
        title="Channel robustness of the geometry claims",
        claim="Sect. 1.3 / 1.2 hold off the idealized channel: the "
              "geometry-independence spread and density ratio survive "
              "shadowing, breakpoint loss and obstacles",
        headers=[
            "channel", "deployment", "mean rounds", "success", "trials",
        ],
    )
    rng0 = spawn_rngs(1, seed)[0]
    base = uniform_square(n=cfg["n"], side=cfg["side"], rng=rng0)
    family = same_graph_family(base, cfg["scales"], rng0)
    dense = uniform_square(
        n=cfg["n"] * cfg["dense_factor"], side=cfg["side"], rng=rng0,
        name="uniform-square-dense",
    )
    families = [
        ("cube", uniform_cube(rng=rng0, **cfg["cube"])),
        ("fractal", fractal_clusters(rng=rng0, **cfg["fractal"])),
        ("corridor", corridor(rng=rng0, **cfg["corridor"])),
    ]
    member_labels = ["square"] + [f"square~{s}" for s in cfg["scales"]]

    # Channel instances are keyed off the base square so the battery is
    # identical for the E12/E08 re-measurements; only the obstacle wall
    # is re-derived per deployment family (it tracks the bounding box).
    points: list[GridPoint] = []
    index: dict[tuple[str, str], int] = {}

    def add(ch_label: str, dep_label: str, point: GridPoint) -> None:
        index[(ch_label, dep_label)] = len(points)
        points.append(point)

    for ch_label, channel in _channels(base, seed):
        for m_label, member in zip(member_labels, family):
            add(
                ch_label, m_label,
                _point(member, channel, f"{ch_label}/{m_label}",
                       cfg["trials"], constants),
            )
        add(
            ch_label, "square-dense",
            _point(dense, channel, f"{ch_label}/square-dense",
                   cfg["trials"], constants),
        )
        for dep_label, net in families:
            dep_channel = (
                ObstacleMask([_wall(net)], attenuation_db=ATTENUATION_DB)
                if ch_label == "obstacles" else channel
            )
            add(
                ch_label, dep_label,
                _point(net, dep_channel, f"{ch_label}/{dep_label}",
                       cfg["trials"], constants),
            )

    results = run_grid_points(points, seed, "e13")

    def stats(ch_label: str, dep_label: str):
        res = results[index[(ch_label, dep_label)]]
        good = res.sweep.successful_rounds()
        mean = aggregate_trials(good).mean if good.size else float("nan")
        return mean, res.sweep.success_rate()

    channel_labels = [label for label, _ in _channels(base, seed)]
    dep_labels = member_labels + ["square-dense"] + [
        label for label, _ in families
    ]
    spreads: dict[str, float] = {}
    ratios: dict[str, float] = {}
    min_success = 1.0
    for ch_label in channel_labels:
        for dep_label in dep_labels:
            mean, succ = stats(ch_label, dep_label)
            min_success = min(min_success, succ)
            report.rows.append(
                [ch_label, dep_label, fmt(mean), fmt(succ, 2),
                 cfg["trials"]]
            )
        member_means = [
            stats(ch_label, m_label)[0] for m_label in member_labels
        ]
        spreads[ch_label] = relative_spread(member_means)
        base_mean = stats(ch_label, "square")[0]
        dense_mean = stats(ch_label, "square-dense")[0]
        ratios[ch_label] = dense_mean / max(base_mean, 1.0)
        report.metrics[f"spread_{ch_label}"] = round(spreads[ch_label], 3)
        report.metrics[f"density_ratio_{ch_label}"] = round(
            ratios[ch_label], 3
        )

    off_ideal = [label for label in channel_labels if label != "uniform"]
    report.metrics["max_offideal_spread"] = round(
        max(spreads[label] for label in off_ideal), 3
    )
    report.metrics["max_offideal_density_ratio"] = round(
        max(ratios[label] for label in off_ideal), 3
    )
    report.metrics["min_success_rate"] = round(min_success, 3)
    report.notes.append(
        "same-graph spread and dense/base ratio should stay small under "
        "every channel if the claims are geometric, not channel artifacts; "
        "the deployment rows sweep the scenario library under each channel"
    )
    return report
