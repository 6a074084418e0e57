"""Global broadcast via local-broadcast phases (shape of [11]).

The paper's Sect. 1.2 comparison: composing a local-broadcast primitive
(every station delivers to all its communication-graph neighbours) into a
global broadcast costs ``O(D (Delta + log n) log n)`` rounds, because each
of the ``O(D)`` relay generations must run a full local broadcast whose
length scales with the maximum degree ``Delta``.

We implement the standard uniform-density local broadcast: within a phase
of ``Theta((Delta + log n) log n)`` rounds every informed station
transmits with probability ``1/(2 Delta)``.  With that probability each
neighbourhood sees a constant expected number of transmitters per round,
so each neighbour is reached with probability ``Omega(1/Delta)`` per
round and whp within the phase — the ``Delta``-dependence the paper's
algorithms avoid (experiment E8 sweeps density to expose it).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.baselines.base import FloodingNode, run_flooding
from repro.core.constants import local_broadcast_q, phase_budget, phase_length
from repro.core.outcome import BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.network.network import Network


class LocalBroadcastNode(FloodingNode):
    """Informed stations transmit with ``1/(2 Delta)`` (known ``Delta``)."""

    def __init__(
        self, index: int, max_degree: int, source_payload: Any = None
    ):
        super().__init__(index, source_payload)
        if max_degree < 1:
            raise ProtocolError(
                f"max degree must be >= 1, got {max_degree}"
            )
        self.q = local_broadcast_q(max_degree)

    def probability_for_round(self, round_no: int) -> float:
        return self.q


def run_local_broadcast_global(
    network: Network,
    source: int,
    rng: Optional[np.random.Generator] = None,
    *,
    payload: Any = "broadcast-message",
    round_budget: Optional[int] = None,
) -> BroadcastOutcome:
    """Broadcast from ``source`` with the local-broadcast composition.

    The per-round behaviour is stationary (probability ``1/(2 Delta)``
    forever once informed), so phases matter only for the budget
    accounting: the default budget is
    :func:`~repro.core.constants.phase_budget` phases of
    :func:`~repro.core.constants.phase_length` — the
    ``O(D (Delta + log n) log n)`` shape with generous slack.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    check_source(n, source)
    delta = max(1, network.max_degree)
    phase_len = phase_length(n, delta)
    nodes = [
        LocalBroadcastNode(
            i, delta, source_payload=payload if i == source else None
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = phase_budget(network.eccentricity(source)) * phase_len
    return run_flooding(
        network,
        nodes,
        rng,
        round_budget,
        "LocalBroadcastGlobal",
        {"max_degree": delta, "phase_length": phase_len},
    )
