"""Fixed-probability flooding.

Every informed station transmits with the same constant probability ``q``
each round.  There is no single good ``q``: dense neighbourhoods need
``q ~ 1/Delta`` to avoid drowning in interference, sparse stretches want
``q ~ 1`` for speed — the tension that motivates density-adaptive coloring.
Used in experiments as the naive lower anchor and in tests as a simple
correctness oracle on small networks.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.baselines.base import FloodingNode, run_flooding
from repro.core.constants import uniform_flood_budget, uniform_flood_q
from repro.core.outcome import BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.network.network import Network


class UniformFloodNode(FloodingNode):
    """Informed stations transmit with a fixed probability ``q``."""

    def __init__(self, index: int, q: float, source_payload: Any = None):
        super().__init__(index, source_payload)
        if not 0 < q <= 1:
            raise ProtocolError(f"q must be in (0, 1], got {q}")
        self.q = q

    def probability_for_round(self, round_no: int) -> float:
        return self.q


def run_uniform_broadcast(
    network: Network,
    source: int,
    q: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    payload: Any = "broadcast-message",
    round_budget: Optional[int] = None,
) -> BroadcastOutcome:
    """Flood from ``source`` with per-round probability ``q``.

    :param q: defaults to ``1 / Delta`` — the best static guess available
        to a baseline that knows the maximum degree.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    check_source(n, source)
    if q is None:
        q = uniform_flood_q(network.max_degree)
    nodes = [
        UniformFloodNode(
            i, q, source_payload=payload if i == source else None
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = uniform_flood_budget(network.eccentricity(source), q)
    return run_flooding(
        network, nodes, rng, round_budget, "UniformFlood", {"q": q}
    )
