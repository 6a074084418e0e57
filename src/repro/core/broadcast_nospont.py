"""``NoSBroadcast`` — broadcast without spontaneous wake-up (Theorem 1).

The algorithm runs in phases of identical, globally known length.  Each
phase has two parts (Sect. 4.1):

1. **Coloring part** — the stations *active* in the phase (those that knew
   the source message at the phase boundary) execute
   ``StabilizeProbability``, obtaining fresh colors ``p_v``.
2. **Dissemination part** — for ``Theta(log^2 n)`` rounds every active
   station transmits the source message with probability
   ``p_v * c / log n``.

Every transmission (in either part) carries the source message, so any
reception informs the receiver; newly informed stations join at the next
phase boundary — in the paper they synchronize via the round counter
attached to each message, which the synchronous engine models with its
global round number (DESIGN.md §4.2).  One phase pushes the message at
least one hop along every shortest path whp (Lemma 8), hence
``O(D)`` phases, i.e. ``O(D log^2 n)`` rounds in total.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.coloring import ColoringCore
from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    phase_budget,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.messages import Reception
from repro.sim.node import NodeAlgorithm
from repro.sim.trace import TraceRecorder


class NoSBroadcastNode(NodeAlgorithm):
    """Per-station state machine of ``NoSBroadcast``.

    :param index: station index.
    :param schedule: coloring schedule shared by all stations.
    :param source_payload: non-``None`` exactly at the source, which is
        informed (and hence active in phase 0) from the start.
    """

    def __init__(
        self,
        index: int,
        schedule: ColoringSchedule,
        source_payload: Any = None,
    ):
        super().__init__(index)
        self.schedule = schedule
        self.phase_len = schedule.constants.phase_rounds(schedule.n)
        self.coloring_len = schedule.total_rounds
        self.is_source = source_payload is not None
        self.payload = source_payload
        self.informed_round = 0 if self.is_source else NEVER_INFORMED
        #: first phase in which this station is active; the source joins
        #: phase 0, others join the phase after they become informed.
        self.active_from_phase = 0 if self.is_source else None
        self.core = ColoringCore(schedule)
        self._core_phase = 0  # phase the core state belongs to

    # ------------------------------------------------------------------
    @property
    def informed(self) -> bool:
        """Whether this node has received the message yet."""
        return self.informed_round != NEVER_INFORMED

    def _phase_and_offset(self, round_no: int) -> tuple[int, int]:
        return divmod(round_no, self.phase_len)

    def _active_in(self, phase: int) -> bool:
        return (
            self.active_from_phase is not None
            and phase >= self.active_from_phase
        )

    def _sync_core(self, phase: int) -> None:
        """Each phase re-runs the coloring from scratch (fresh colors)."""
        if self._core_phase != phase:
            self.core.reset()
            self._core_phase = phase

    # ------------------------------------------------------------------
    def transmission(self, round_no: int) -> tuple[float, Any]:
        phase, offset = self._phase_and_offset(round_no)
        if not self._active_in(phase):
            return 0.0, None
        self._sync_core(phase)
        if offset < self.coloring_len:
            prob = self.core.transmission_probability(offset)
        else:
            prob = self.core.dissemination_probability()
        return prob, self.payload

    def end_round(self, reception: Reception) -> None:
        if reception.heard and not self.informed:
            self.informed_round = reception.round_no
            self.payload = reception.message.payload
            phase, _ = self._phase_and_offset(reception.round_no)
            # Active from the next phase boundary (Sect. 4.1: "a node
            # participates in the phase if it knows the source message at
            # the beginning of the phase").
            self.active_from_phase = phase + 1
        phase, offset = self._phase_and_offset(reception.round_no)
        if self._active_in(phase) and offset < self.coloring_len:
            self._sync_core(phase)
            self.core.observe(
                offset,
                heard=reception.heard,
                transmitted=reception.transmitted,
            )

    @property
    def finished(self) -> bool:
        return self.informed


def run_nospont_broadcast(
    network: Network,
    source: int,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    payload: Any = "broadcast-message",
    round_budget: Optional[int] = None,
    trace: Optional[TraceRecorder] = None,
) -> BroadcastOutcome:
    """Run ``NoSBroadcast`` from ``source`` until everyone is informed.

    :param round_budget: hard budget; defaults to
        :func:`~repro.core.constants.phase_budget` phases for the
        source's eccentricity — generous w.r.t. the ``O(D)``-phase
        guarantee.  The run stops as soon as every
        station is informed (the measurement of interest), or at the
        budget with ``success=False``.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    check_source(n, source)
    if payload is None:
        raise ProtocolError("payload must be non-None (it marks the source)")
    schedule = ColoringSchedule(constants=constants, n=n)
    nodes = [
        NoSBroadcastNode(
            i, schedule, source_payload=payload if i == source else None
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = constants.phase_rounds(n) * phase_budget(
            network.eccentricity(source)
        )
    result = Simulator(network, nodes, rng, trace=trace).run(
        round_budget, stop=Simulator.all_finished, check_every=4
    )
    return BroadcastOutcome.of(
        np.array([node.informed_round for node in nodes]), result.rounds,
        "NoSBroadcast",
        {
            "phase_rounds": constants.phase_rounds(n),
            "coloring_rounds": schedule.total_rounds,
            "phases_used": -(-result.rounds // constants.phase_rounds(n)),
        },
    )
