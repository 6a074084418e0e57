"""E10 — consensus cost is linear in ``log x`` (Sect. 5).

The bitwise min-consensus runs one time-boxed colored wake-up per bit of
the message space ``{0..x}``; total rounds should scale linearly with
``ceil(log2(x+1))`` at fixed network, and every trial must agree on the
true minimum.  All ``x`` points share one deployment (one gain matrix,
built once by the parent and inherited by every ``--jobs`` worker); each
replication draws its own value vector inside the sweep.
"""

from __future__ import annotations

from repro.analysis.fitting import fit_models
from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.consensus import bits_for_range
from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint

SWEEP = {
    "quick": {"n": 32, "xs": [3, 15, 255], "trials": 4},
    "full": {"n": 64, "xs": [3, 15, 255, 4095, 65535], "trials": 8},
}


def run(scale: str = "quick", seed: int = 2014) -> ExperimentReport:
    """Run E10 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E10",
        title="Consensus scaling in the message space",
        claim="Sect. 5: consensus in O(D log n log x + log^2 n log x) — "
              "linear in log x",
        headers=["x", "bits", "mean rounds", "rounds/bit", "agreed+correct"],
    )
    results = run_grid_points(
        [
            GridPoint(
                kind="consensus",
                deployment=lambda rng: uniform_square(
                    n=cfg["n"], side=2.5, rng=rng
                ),
                n_replications=cfg["trials"],
                label=f"x={x}",
                constants=constants,
                kwargs={"x_max": x},
                share_deployment="net",
            )
            for x in cfg["xs"]
        ],
        seed,
        "e10",
    )
    bits_series, round_series = [], []
    all_ok = []
    for x, res in zip(cfg["xs"], results):
        bits = bits_for_range(x)
        ok = res.sweep.success.tolist()
        all_ok.extend(ok)
        stats = aggregate_trials(res.sweep.rounds)
        bits_series.append(bits)
        round_series.append(stats.mean)
        report.rows.append(
            [
                x, bits, fmt(stats.mean), fmt(stats.mean / bits),
                fmt(success_rate(ok), 2),
            ]
        )
    fits = fit_models(bits_series, round_series, ["const", "n", "n^2"])
    report.metrics["bits_fit"] = fits[0].model  # "n" = linear in bits
    report.metrics["bits_fit_r2"] = round(fits[0].r_squared, 4)
    report.metrics["correct_rate"] = success_rate(all_ok)
    report.notes.append(
        f"rounds vs bits best fit: {fits[0].model} (linear expected); "
        "the constant offset is the one-off backbone coloring"
    )
    return report
