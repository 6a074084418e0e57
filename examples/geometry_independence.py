"""The paper's headline: geometry inside reachability balls is irrelevant.

Takes one random deployment, perturbs every station inside its
reachability slack so the communication graph is *identical*, and shows
that broadcast cost does not move; then redraws the graph itself for
contrast.  This is experiment E12 in miniature with a narrated output.

Run:  python examples/geometry_independence.py
"""

import numpy as np

from repro import deploy
from repro.analysis.stats import aggregate_trials, relative_spread
from repro.analysis.tables import render_table
from repro.core import ProtocolConstants
from repro.fastsim import fast_spont_broadcast_batch


def mean_rounds(net, constants, trials=6):
    outs = fast_spont_broadcast_batch(
        net, 0, constants,
        [np.random.default_rng(seed) for seed in range(trials)],
    )
    assert all(out.success for out in outs)
    return aggregate_trials([out.completion_round for out in outs])


def main() -> None:
    rng = np.random.default_rng(11)
    constants = ProtocolConstants.practical()

    base = deploy.uniform_square(n=96, side=3.0, rng=rng)
    print(
        f"base network: n={base.size}, D={base.diameter}, "
        f"|E|={base.graph.number_of_edges()}"
    )

    family = deploy.same_graph_family(base, [0.02, 0.05, 0.08], rng)
    rows, means = [], []
    for i, member in enumerate(family):
        label = "base" if i == 0 else f"perturbed (scale {[0.02,0.05,0.08][i-1]})"
        stats = mean_rounds(member, constants)
        means.append(stats.mean)
        moved = np.linalg.norm(member.coords - base.coords, axis=1).max()
        rows.append([label, f"{moved:.3f}", f"{stats.mean:.1f}"])
    print()
    print(
        render_table(
            ["deployment", "max displacement", "mean broadcast rounds"],
            rows,
        )
    )
    print(
        f"\nspread across the same-graph family: "
        f"{100 * relative_spread(means):.1f}% — sampling noise."
    )

    # Contrast: different communication graphs of identical size/density.
    control = []
    for k in range(3):
        other = deploy.uniform_square(
            n=96, side=3.0, rng=np.random.default_rng(100 + k)
        )
        control.append(mean_rounds(other, constants).mean)
    print(
        f"spread once the GRAPH itself changes (3 fresh draws): "
        f"{100 * relative_spread(means + control):.1f}% — the graph, not "
        "the geometry, carries the cost."
    )


if __name__ == "__main__":
    main()
