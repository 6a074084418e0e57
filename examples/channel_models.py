"""Channel models: the same deployment under four different channels.

Builds one connected uniform deployment, swaps the channel model under
it with ``Network.with_channel`` — same coordinates, same communication
graph, different reception — and compares broadcast cost across the
battery through the batched sweep engine.  The 5-minute tour of
DESIGN.md §2.1.

Run:  PYTHONPATH=src python examples/channel_models.py
"""

import numpy as np

from repro import deploy
from repro.analysis.tables import render_table
from repro.core import ProtocolConstants
from repro.fastsim import run_sweep
from repro.sinr import (
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    rectangle,
)


def main() -> None:
    rng = np.random.default_rng(7)
    net = deploy.uniform_square(n=48, side=2.2, rng=rng)
    wall = rectangle(1.0, 0.4, 1.2, 1.8)  # gaps above and below

    channels = [
        ("uniform power (paper Eq. 1)", UniformPower()),
        ("log-normal shadowing 3 dB", LogNormalShadowing(3.0, seed=1)),
        ("dual-slope breakpoint 1.0", DualSlope(breakpoint=1.0)),
        ("obstacle wall -10 dB", ObstacleMask([wall], attenuation_db=10.0)),
    ]

    constants = ProtocolConstants.practical()
    rows = []
    for label, channel in channels:
        member = net.with_channel(channel)
        sweep = run_sweep(
            "spont_broadcast", member, 8, seed=2014,
            constants=constants, source=0,
        )
        rows.append(
            [
                label,
                f"{sweep.mean_rounds():.1f}",
                f"{sweep.success_rate():.2f}",
                member.fingerprint()[:12],
            ]
        )

    print(
        f"deployment: n={net.size}, diameter D={net.diameter} "
        f"(graph identical across channels)"
    )
    print()
    print(
        render_table(
            ["channel", "mean rounds", "success", "fingerprint[:12]"],
            rows,
        )
    )
    print()
    print(
        "The communication graph never changes — only reception does.\n"
        "Distinct fingerprints keep the grid's result cache from ever\n"
        "replaying one channel's results as another's."
    )


if __name__ == "__main__":
    main()
