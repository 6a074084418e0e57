"""``SBroadcast`` — broadcast with spontaneous wake-up (Theorem 2).

With all stations awake from round 0, the expensive coloring runs *once*,
globally, as preprocessing (Sect. 4.2, with the tightened connectivity
slack ``eps'' = eps/3``); afterwards the message pays only ``O(log n)``
rounds per hop:

1. **Coloring stage** — every station executes ``StabilizeProbability``;
   the resulting colors act as a communication backbone.
2. **Pilot round** — the source transmits deterministically, alone, so its
   whole neighbourhood receives.
3. **Dissemination stage** — every informed station transmits the message
   with probability ``p_v * c / log n`` each round.

Per round, each frontier edge advances with probability ``Theta(1/log n)``
(Fact 11); a Chernoff bound over the ``D``-hop pipeline gives
``O(D log n + log^2 n)`` rounds total — the ``log^2 n`` term being the
one-off coloring cost.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.coloring import ColoringCore
from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    dissemination_budget,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.messages import Reception
from repro.sim.node import NodeAlgorithm
from repro.sim.trace import TraceRecorder


class SBroadcastNode(NodeAlgorithm):
    """Per-station state machine of ``SBroadcast``."""

    def __init__(
        self,
        index: int,
        schedule: ColoringSchedule,
        source_payload: Any = None,
    ):
        super().__init__(index)
        self.schedule = schedule
        self.coloring_len = schedule.total_rounds
        self.is_source = source_payload is not None
        self.payload = source_payload
        self.informed_round = 0 if self.is_source else NEVER_INFORMED
        self.core = ColoringCore(schedule)

    @property
    def informed(self) -> bool:
        """Whether this node has received the message yet."""
        return self.informed_round != NEVER_INFORMED

    def transmission(self, round_no: int) -> tuple[float, Any]:
        if round_no < self.coloring_len:
            # Stage 1: global coloring; transmissions carry the source
            # message when the station has it (they always do at the
            # source), so stray receptions already spread information.
            return self.core.transmission_probability(round_no), self.payload
        if round_no == self.coloring_len:
            # Stage 2: the source's deterministic pilot transmission.
            return (1.0, self.payload) if self.is_source else (0.0, None)
        # Stage 3: informed stations gossip with color-scaled probability.
        if not self.informed:
            return 0.0, None
        return self.core.dissemination_probability(), self.payload

    def end_round(self, reception: Reception) -> None:
        if reception.round_no < self.coloring_len:
            self.core.observe(
                reception.round_no,
                heard=reception.heard,
                transmitted=reception.transmitted,
            )
        if reception.heard and not self.informed:
            payload = reception.message.payload
            if payload is not None:
                self.informed_round = reception.round_no
                self.payload = payload

    @property
    def finished(self) -> bool:
        return self.informed


def run_spont_broadcast(
    network: Network,
    source: int,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    payload: Any = "broadcast-message",
    round_budget: Optional[int] = None,
    trace: Optional[TraceRecorder] = None,
) -> BroadcastOutcome:
    """Run ``SBroadcast`` from ``source`` until everyone is informed.

    :param round_budget: hard budget; defaults to the coloring, the
        pilot round and :func:`~repro.core.constants.dissemination_budget`
        of the source's eccentricity, matching the
        ``O(D log n + log^2 n)`` bound with generous slack.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    constants = constants.with_eps_prime()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    check_source(n, source)
    if payload is None:
        raise ProtocolError("payload must be non-None (it marks the source)")
    schedule = ColoringSchedule(constants=constants, n=n)
    nodes = [
        SBroadcastNode(
            i, schedule, source_payload=payload if i == source else None
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = schedule.total_rounds + 1 + dissemination_budget(
            n, network.eccentricity(source)
        )
    result = Simulator(network, nodes, rng, trace=trace).run(
        round_budget, stop=Simulator.all_finished, check_every=4
    )
    colors = np.array([node.core.finished_color() for node in nodes])
    return BroadcastOutcome.of(
        np.array([node.informed_round for node in nodes]), result.rounds,
        "SBroadcast",
        {
            "coloring_rounds": schedule.total_rounds,
            "colors": colors,
            "dissemination_rounds": max(
                0, result.rounds - schedule.total_rounds - 1
            ),
        },
    )
