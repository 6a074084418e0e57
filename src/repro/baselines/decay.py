"""Decay-ladder sweep — the granularity-sensitive comparator.

Informed stations cycle through the probability ladder
``1, 1/2, 1/4, ..., 1/2^(L-1)`` with ``L = ceil(log2 n) + 1``, restarting
the sweep every ``L`` rounds (the classic Bar-Yehuda–Goldreich–Itai Decay
pattern executed under SINR interference).

This baseline stands in for Daum et al. [5] in the granularity comparison
(E7; DESIGN.md §2 records the substitution).  The mechanism that makes
sweep-style algorithms granularity-sensitive is visible directly in the
SINR arithmetic: a relay separated from its predecessor by a tiny gap
``g`` sits within interference range of the dense far side of the gap, and
only rungs with few expected transmitters network-wide let the short link
clear the threshold — the smaller the gap ratio (the larger ``Rs``), the
larger the fraction of rungs that are wasted on it, stretching each hop.
The paper's algorithms erase that dependence by *locally* silencing dense
regions (Playoff), which is exactly what E7 measures.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.baselines.base import FloodingNode, run_flooding
from repro.core.constants import decay_budget, decay_ladder_len
from repro.core.outcome import BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.network.network import Network


class DecayNode(FloodingNode):
    """Informed stations run synchronized Decay sweeps.

    :param ladder_len: number of rungs ``L``; rung ``k`` (round ``t`` with
        ``t mod L = k``) transmits with probability ``2^-k``.
    """

    def __init__(
        self, index: int, ladder_len: int, source_payload: Any = None
    ):
        super().__init__(index, source_payload)
        if ladder_len < 1:
            raise ProtocolError(
                f"ladder length must be >= 1, got {ladder_len}"
            )
        self.ladder_len = ladder_len

    def probability_for_round(self, round_no: int) -> float:
        rung = round_no % self.ladder_len
        return 2.0 ** (-rung)


def run_decay_broadcast(
    network: Network,
    source: int,
    rng: Optional[np.random.Generator] = None,
    *,
    ladder_len: Optional[int] = None,
    payload: Any = "broadcast-message",
    round_budget: Optional[int] = None,
) -> BroadcastOutcome:
    """Broadcast from ``source`` with synchronized Decay sweeps.

    :param ladder_len: defaults to ``log2(n) + 1`` — deep enough that the
        sparsest rung has expected load below one even if everyone is
        informed.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    check_source(n, source)
    if ladder_len is None:
        ladder_len = decay_ladder_len(n)
    nodes = [
        DecayNode(
            i, ladder_len, source_payload=payload if i == source else None
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = decay_budget(network.eccentricity(source), ladder_len)
    return run_flooding(
        network,
        nodes,
        rng,
        round_budget,
        "DecaySweep",
        {"ladder_len": ladder_len},
    )
