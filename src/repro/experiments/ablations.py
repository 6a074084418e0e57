"""Ablations of the design choices called out in DESIGN.md.

These are not paper claims; they justify the reproduction's calibration
decisions by measuring what happens when each is reverted:

* :func:`ablate_playoff_self` — restore the paper's own-transmissions-
  count-as-Playoff-successes bookkeeping at practical scale.  The paper's
  constant regime keeps ``p_max·c_eps`` microscopic so this is harmless
  asymptotically; at simulation scale it lets every station pass Playoff
  by talking to itself, collapsing Lemma 2 (see the semantics note on
  :class:`~repro.core.constants.ProtocolConstants`).
* :func:`ablate_ceps` — sweep the Playoff scale-up factor: larger
  ``c_eps`` buys a sharper proximity radius (interference buries far
  receptions) at the price of a shorter probability ladder.
* :func:`ablate_dissemination` — sweep the dissemination constant ``c``:
  the broadcast-speed / congestion trade-off of Fact 11.
* :func:`ablate_coloring_refresh` — wake-up with established coloring,
  with and without the auxiliary coloring stage (Sect. 5's ``q_v``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.constants import ProtocolConstants
from repro.core.properties import lemma2_best_masses
from repro.deploy import uniform_square
from repro.experiments.base import ExperimentReport, check_scale, fmt
from repro.fastsim import fast_coloring_batch, fast_spont_broadcast_batch
from repro.fastsim.engine import spawn_rngs


def _bank(n: int, seed: int):
    rng = spawn_rngs(1, seed)[0]
    return uniform_square(n=n, side=3.0, rng=rng)


def ablate_playoff_self(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Paper vs practical Playoff success bookkeeping."""
    check_scale(scale)
    n = 96 if scale == "quick" else 256
    net = _bank(n, seed)
    report = ExperimentReport(
        exp_id="A01",
        title="Ablation: Playoff counts self-transmissions",
        claim="DESIGN §4: receptions-only Playoff preserves Lemma 2 at "
              "practical scale; the paper's bookkeeping needs its "
              "asymptotic constants",
        headers=["variant", "min best mass @0.4", "p10 @0.4", "colors used"],
    )
    metrics = {}
    for label, counts_self in (("receptions-only", False), ("paper", True)):
        constants = ProtocolConstants.practical(playoff_counts_self=counts_self)
        rngs = spawn_rngs(1, seed + 1)
        result = fast_coloring_batch(net, constants, rngs).replication(0)
        masses = lemma2_best_masses(net, result, radius=0.4)
        report.rows.append(
            [
                label, fmt(float(masses.min()), 4),
                fmt(float(np.percentile(masses, 10)), 4),
                len(result.distinct_colors()),
            ]
        )
        metrics[label.replace("-", "_")] = round(float(masses.min()), 4)
    report.metrics = metrics
    report.notes.append(
        "with self-counting, stations at the top of the ladder pass "
        "Playoff regardless of their neighbourhood, dragging the Lemma 2 "
        "floor down"
    )
    return report


def ablate_ceps(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Playoff scale-up factor vs coloring quality and ladder depth."""
    check_scale(scale)
    n = 96 if scale == "quick" else 256
    net = _bank(n, seed)
    report = ExperimentReport(
        exp_id="A02",
        title="Ablation: Playoff scale-up factor c_eps",
        claim="larger c_eps sharpens locality (more interference during "
              "Playoff) but shortens the ladder (p_max <= 1/c_eps)",
        headers=["c_eps", "levels", "min mass @0.4", "broadcast rounds"],
    )
    for ceps in (8.0, 16.0, 32.0, 64.0):
        constants = ProtocolConstants.practical(
            ceps=ceps, pmax=0.9 / ceps
        )
        rngs = spawn_rngs(1, seed + int(ceps))
        result = fast_coloring_batch(net, constants, rngs).replication(0)
        masses = lemma2_best_masses(net, result, radius=0.4)
        out = fast_spont_broadcast_batch(net, 0, constants, rngs)[0]
        report.rows.append(
            [
                int(ceps),
                constants.num_levels(n),
                fmt(float(masses.min()), 4),
                out.completion_round if out.success else "FAIL",
            ]
        )
    report.notes.append(
        "the default c_eps=32 sits at the knee: enough interference to "
        "suppress far receptions, enough ladder to separate densities"
    )
    return report


def ablate_dissemination(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Dissemination constant: speed vs congestion (Fact 11's constant)."""
    check_scale(scale)
    n = 96 if scale == "quick" else 256
    trials = 3 if scale == "quick" else 6
    net = _bank(n, seed)
    report = ExperimentReport(
        exp_id="A03",
        title="Ablation: dissemination constant c",
        claim="Fact 11: per-round hop probability ~ C2 c / log n — too "
              "small is slow, too large floods the channel",
        headers=["c", "mean rounds", "success rate"],
    )
    best = None
    for c in (1.0, 3.0, 6.0, 12.0, 24.0):
        constants = ProtocolConstants.practical(dissemination=c)
        outs = fast_spont_broadcast_batch(
            net, 0, constants, spawn_rngs(trials, seed + int(c))
        )
        succ = [out.success for out in outs]
        rounds = [out.completion_round for out in outs if out.success]
        mean = aggregate_trials(rounds).mean if rounds else float("inf")
        rate = success_rate(succ)
        report.rows.append([c, fmt(mean), fmt(rate, 2)])
        if rate == 1.0 and (best is None or mean < best[1]):
            best = (c, mean)
    if best:
        report.metrics["best_c"] = best[0]
    return report


def ablate_coloring_refresh(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Wake-up with established coloring: is the q_v stage worth it?"""
    check_scale(scale)
    from repro.core.coloring import run_coloring
    from repro.core.wakeup import run_colored_wakeup
    from repro.deploy import dumbbell

    trials = 2 if scale == "quick" else 5
    rng0 = spawn_rngs(1, seed)[0]
    net = dumbbell(12 if scale == "quick" else 24, 5, rng0)
    constants = ProtocolConstants.practical()
    base = run_coloring(net, constants, rng0)
    base_colors = np.where(np.isnan(base.colors), 0.0, base.colors)
    report = ExperimentReport(
        exp_id="A04",
        title="Ablation: auxiliary coloring in colored wake-up",
        claim="Sect. 5 adds a fresh q_v coloring over the initiators; "
              "without it initiators rely on stale p_v alone",
        headers=["variant", "mean completion", "success rate"],
    )
    for label, refresh in (("with q_v", True), ("p_v only", False)):
        rounds, succ = [], []
        for rng in spawn_rngs(trials, seed + int(refresh)):
            out = run_colored_wakeup(
                net, [0], base_colors, constants, rng,
                refresh_coloring=refresh,
            )
            succ.append(out.success)
            if out.success:
                rounds.append(out.completion_round)
        mean = aggregate_trials(rounds).mean if rounds else float("inf")
        report.rows.append([label, fmt(mean), fmt(success_rate(succ), 2)])
    report.notes.append(
        "the q_v stage pays a coloring up front; both variants complete "
        "on backbone-colored networks — the paper needs q_v for "
        "adversarial initiator sets whose p_v colors alone are too sparse"
    )
    return report


ABLATIONS = {
    "A01": ablate_playoff_self,
    "A02": ablate_ceps,
    "A03": ablate_dissemination,
    "A04": ablate_coloring_refresh,
}
