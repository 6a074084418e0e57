"""Mobility walkthrough: drift a fractal cluster and watch it evolve.

Deploys a fractal cluster hierarchy (growth dimension ~1.5), drifts it
with a seeded Brownian mobility model, and shows the two temporal
effects E15 measures (DESIGN.md §7):

1. **graph churn** — how connectivity and the edge count change round by
   round while the deployment moves through its reflection box (the
   drift rides `Network.advance`, which patches the gain structure
   incrementally instead of rebuilding it);
2. **protocol cost** — ad hoc wake-up latency on the frozen deployment
   versus the same deployment moving at increasing rates, via the
   `medium=` argument every fastsim kernel accepts (a `Medium` steps
   the trajectory once per round before resolving it).

Run:  python examples/mobility.py
"""

import numpy as np

from repro import deploy
from repro.analysis.tables import render_table
from repro.core import ProtocolConstants
from repro.deploy.mobility import BrownianDrift
from repro.fastsim.engine import Medium
from repro.fastsim.wakeup import fast_adhoc_wakeup
from repro.sim.wakeup import WakeupSchedule


def main() -> None:
    rng = np.random.default_rng(2014)

    # 1. A fractal cluster hierarchy: 3^4 = 81 stations, growth
    #    dimension tuned to 1.5 — between a corridor and a square.  The
    #    wide span makes it genuinely multi-hop (diameter ~6).
    net = deploy.fractal_clusters(4, 3, rng, dimension=1.5, span=3.0)
    print(
        f"fractal deployment: n={net.size}, diameter={net.diameter}, "
        f"connected={net.is_connected}, edges={net.graph.number_of_edges()}"
    )

    # 2. Drift it: every round ~20% of the stations take a small
    #    Gaussian step, reflected into the deployment's bounding box —
    #    under the rebuild threshold, so `advance` patches the computed
    #    gain structure instead of rebuilding it.
    medium = Medium(net, mobility=BrownianDrift(0.03, move_prob=0.2, seed=5))
    print("\nround  connected  edges  advance-mode")
    for round_no in range(12):
        current = medium.step()
        if round_no % 3 == 2:
            print(
                f"{round_no + 1:>5}  {str(current.is_connected):>9}  "
                f"{current.graph.number_of_edges():>5}  "
                f"{current.advance_mode}"
            )

    # 3. Wake-up latency, static vs moving: the same adversarial
    #    schedule (a single spontaneous waker), increasing drift rates.
    constants = ProtocolConstants.practical()
    wake_rounds = np.full(net.size, WakeupSchedule.NEVER)
    wake_rounds[0] = 0
    schedule = WakeupSchedule(wake_rounds)
    rows = []
    for rate in [0.0, 0.02, 0.05]:
        mobility = (
            BrownianDrift(rate, move_prob=0.2, seed=9) if rate > 0.0 else None
        )
        outcome = fast_adhoc_wakeup(
            net, schedule, constants, np.random.default_rng(3),
            medium=Medium(net, mobility=mobility),
        )
        rows.append(
            [
                f"{rate:.2f}",
                "yes" if outcome.success else "no",
                outcome.extras["wakeup_time"],
            ]
        )
    print("\nad hoc wake-up under drift (same seed, same schedule):")
    print(render_table(["drift rate", "all awake", "wakeup time"], rows))
    print(
        "\nmoving deployments change the communication graph the paper's "
        "claims are stated over; E15 (python -m repro.experiments e15) "
        "measures the slowdown and the same-graph escape time across "
        "growth dimensions."
    )


if __name__ == "__main__":
    main()
