"""Calibration sweep for the practical protocol constants.

Runs the coloring (and optionally SBroadcast) over a small bank of
canonical networks for a grid of constant settings, reporting the
Lemma 1 / Lemma 2 masses (at the paper's eps/2 radius and at the practical
effective radius) and broadcast completion.  Used to choose the defaults
in ``ProtocolConstants.practical`` — the decisions are summarised in
DESIGN.md §4.3 and the ``ProtocolConstants`` docstring.

Usage: python tools/calibrate.py [--broadcast]
"""

import argparse
import itertools

import numpy as np

from repro import deploy
from repro.core import (
    ProtocolConstants,
    run_coloring,
    run_spont_broadcast,
    lemma1_max_color_mass,
    lemma2_min_best_mass,
)


def bank(rng):
    return [
        ("square-dense", deploy.uniform_square(n=64, side=2.0, rng=rng)),
        ("square-sparse", deploy.uniform_square(n=96, side=4.5, rng=rng)),
        ("chain", deploy.uniform_chain(32, gap=0.5)),
        ("expchain", deploy.exponential_chain(24)),
        ("dumbbell", deploy.dumbbell(20, 6, rng)),
    ]


def main():
    """Run the calibration grid and print one row per constant setting."""
    parser = argparse.ArgumentParser(
        prog="python tools/calibrate.py",
        description="Sweep practical-constant settings over a bank of "
        "canonical networks.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Calibration runs bypass the grid result cache on purpose: "
            "they probe ProtocolConstants variants, and constants are "
            "part of every cache key (kind, Network.fingerprint(), "
            "constants, seed, kwargs — DESIGN.md §6.3), so no two "
            "settings could collide anyway and caching partial "
            "calibration sweeps would only mask code changes.  "
            "Mobility never enters these keys here — calibration is "
            "static by design; dynamic sweeps key on the mobility "
            "model's identity() through the kwargs (see "
            "tools/cache_gc.py --help)."
        ),
    )
    parser.add_argument("--broadcast", action="store_true")
    args = parser.parse_args()

    rng = np.random.default_rng(123)
    nets = bank(rng)
    grid = itertools.product(
        [8.0, 12.0, 16.0],        # ceps
        [0.18, 0.3, 0.45],        # playoff_frac
        [0.08, 0.15],             # density_frac
    )
    for ceps, pf, df in grid:
        consts = ProtocolConstants.practical(
            ceps=ceps, playoff_frac=pf, density_frac=df,
            pmax=min(1.0 / 16.0, 0.9 / ceps),
        )
        row = [f"ceps={ceps:>4} pf={pf:.2f} df={df:.2f}"]
        for name, net in nets:
            res = run_coloring(net, consts, rng)
            l1 = lemma1_max_color_mass(net, res)
            l2a = lemma2_min_best_mass(net, res)
            l2b = lemma2_min_best_mass(net, res, radius=0.4)
            cell = f"{name}: L1={l1:.2f} L2={l2a:.3f}/{l2b:.3f}"
            if args.broadcast:
                out = run_spont_broadcast(net, 0, consts, rng)
                cell += f" bc={'ok' if out.success else 'FAIL'}:{out.completion_round}"
            row.append(cell)
        print(" | ".join(row), flush=True)


if __name__ == "__main__":
    main()
