"""The footnote-2 instance: exponentially shrinking gaps.

The paper's motivating hard case (footnote 2): stations on a line with
``dist(x_i, x_{i+1}) = 1/2^i``, making the granularity ``Rs`` exponential
in ``n``.  Granularity-dependent algorithms (Daum et al. [5],
``O(D log n log^(alpha+1) Rs)``) degrade with ``Rs``; the paper's
algorithms do not even have ``Rs`` in their bound.

This example measures SBroadcast on chains of growing granularity and
prints the measured rounds next to the [5] bound formula.

Run:  python examples/exponential_chain.py
"""

import numpy as np

from repro import deploy
from repro.analysis.fitting import daum_bound, growth_exponent
from repro.analysis.tables import render_table
from repro.core import ProtocolConstants
from repro.fastsim import fast_spont_broadcast_batch


def main() -> None:
    constants = ProtocolConstants.practical()
    rows = []
    rs_values, measured = [], []
    for span in (2e-2, 2e-4, 2e-6, 2e-8):
        # Chains of dense clusters: granularity = hop / intra-cluster gap.
        net = deploy.clustered_chain(
            12, 8, span, hop=0.55, rng=np.random.default_rng(5)
        )
        rs = net.granularity
        outs = fast_spont_broadcast_batch(
            net, 0, constants,
            [np.random.default_rng(seed) for seed in range(5)],
        )
        assert all(out.success for out in outs)
        mean_rounds = float(np.mean([out.completion_round for out in outs]))
        rs_values.append(rs)
        measured.append(mean_rounds)
        rows.append(
            [
                f"{rs:.1e}",
                f"{mean_rounds:.0f}",
                f"{daum_bound(net.diameter, net.size, rs, net.params.alpha):.1e}",
            ]
        )

    print("SBroadcast on cluster chains of growing granularity (n=96, D=11)")
    print()
    print(
        render_table(
            ["granularity Rs", "measured rounds (ours)", "[5] bound"],
            rows,
        )
    )
    slope = growth_exponent(rs_values, measured)
    print()
    print(
        f"log-log slope of measured rounds vs Rs: {slope:+.4f} "
        "(0 = granularity-independent, as the paper claims)"
    )

    # The literal footnote-2 chain, for flavour.
    chain = deploy.exponential_chain(24)
    out = fast_spont_broadcast_batch(
        chain, 0, constants, [np.random.default_rng(1)]
    )[0]
    print(
        f"\nfootnote-2 chain (n=24, Rs={chain.granularity:.1e}): "
        f"broadcast complete in {out.completion_round} rounds"
    )


if __name__ == "__main__":
    main()
