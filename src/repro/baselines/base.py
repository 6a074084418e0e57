"""Shared skeleton for informed-flooding baselines.

All three baselines have the same shape: an informed station transmits the
source message with a probability that depends only on the round number
(and static knowledge like ``n`` or ``Delta``); an uninformed station
listens.  :class:`FloodingNode` implements the skeleton with a
``probability_for_round`` hook, and :func:`run_flooding` is the common
driver returning a :class:`~repro.core.outcome.BroadcastOutcome`.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Optional

import numpy as np

from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome
from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.messages import Reception
from repro.sim.node import NodeAlgorithm


class FloodingNode(NodeAlgorithm):
    """A station that floods the source message once informed."""

    def __init__(self, index: int, source_payload: Any = None):
        super().__init__(index)
        self.payload = source_payload
        self.informed_round = 0 if source_payload is not None else NEVER_INFORMED

    @property
    def informed(self) -> bool:
        """Whether this node has received the message yet."""
        return self.informed_round != NEVER_INFORMED

    @abstractmethod
    def probability_for_round(self, round_no: int) -> float:
        """Transmission probability for an informed station this round."""

    def transmission(self, round_no: int) -> tuple[float, Any]:
        if not self.informed:
            return 0.0, None
        return self.probability_for_round(round_no), self.payload

    def end_round(self, reception: Reception) -> None:
        if reception.heard and not self.informed:
            self.informed_round = reception.round_no
            self.payload = reception.message.payload

    @property
    def finished(self) -> bool:
        return self.informed


def run_flooding(
    network: Network,
    nodes: list[FloodingNode],
    rng: np.random.Generator,
    round_budget: int,
    algorithm: str,
    extras: Optional[dict] = None,
) -> BroadcastOutcome:
    """Drive a flooding baseline until complete or out of budget."""
    if round_budget < 1:
        raise ProtocolError(f"round budget must be >= 1, got {round_budget}")
    result = Simulator(network, nodes, rng).run(
        round_budget, stop=Simulator.all_finished, check_every=4
    )
    return BroadcastOutcome.of(
        np.array([node.informed_round for node in nodes]), result.rounds,
        algorithm, extras,
    )
