"""Wake-up protocols (paper Sect. 5).

Two variants:

* **Ad hoc wake-up** (:func:`run_adhoc_wakeup`) — an adversary wakes
  stations spontaneously at arbitrary rounds; woken stations run the
  broadcast machinery treating the wake-up signal as a (shared) source
  message.  All stations are awake ``O(D log^2 n)`` rounds after the first
  spontaneous wake-up.  All stations share a global clock (the paper's
  Sect. 5 assumption), so a woken station joins the phase structure at the
  next *phase* boundary; the paper aligns to multiples of the full
  broadcast duration ``T``, which costs at most one extra ``T`` — joining
  at phase boundaries is the same mechanism at finer alignment and
  preserves the ``O(D log^2 n)`` bound (all wake-up messages are
  identical, so mid-execution joins are harmless).

* **Wake-up with established coloring** (:func:`run_colored_wakeup`) —
  stations already hold backbone colors ``p_v`` (Lemmas 1–2); the
  spontaneously woken stations compute an auxiliary coloring ``q_v`` among
  themselves and the message is then disseminated with colors
  ``p_v + q_v`` in ``O(D log n + log^2 n)`` rounds.  This is the building
  block of consensus and leader election.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.coloring import ColoringCore, run_coloring
from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    dissemination_budget,
    phase_budget,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome, check_stations
from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.messages import Reception
from repro.sim.node import NodeAlgorithm
from repro.sim.wakeup import WakeupSchedule

WAKE_PAYLOAD = "wake-up"


class AdhocWakeupNode(NodeAlgorithm):
    """NoSBroadcast-style node whose sources appear adversarially.

    A station is *holding* the wake-up message once it either wakes
    spontaneously or hears the message; holders join the phase structure
    at the next phase boundary and then behave exactly like active
    ``NoSBroadcast`` stations (coloring part + dissemination part).
    """

    def __init__(
        self,
        index: int,
        schedule: ColoringSchedule,
        wake_round: Optional[int],
    ):
        super().__init__(index)
        self.schedule = schedule
        self.phase_len = schedule.constants.phase_rounds(schedule.n)
        self.coloring_len = schedule.total_rounds
        self.wake_round = wake_round
        self.awake_round = NEVER_INFORMED
        self.active_from_phase: Optional[int] = None
        self.core = ColoringCore(schedule)
        self._core_phase = -1

    @property
    def awake(self) -> bool:
        """Whether this station has woken (spontaneously or by message)."""
        return self.awake_round != NEVER_INFORMED

    def _mark_awake(self, round_no: int) -> None:
        if not self.awake:
            self.awake_round = round_no
            phase = round_no // self.phase_len
            self.active_from_phase = phase + 1

    def _maybe_spontaneous(self, round_no: int) -> None:
        if self.wake_round is not None and round_no >= self.wake_round:
            self._mark_awake(max(self.wake_round, 0))

    def _active_in(self, phase: int) -> bool:
        return (
            self.active_from_phase is not None
            and phase >= self.active_from_phase
        )

    def _sync_core(self, phase: int) -> None:
        if self._core_phase != phase:
            self.core.reset()
            self._core_phase = phase

    def transmission(self, round_no: int) -> tuple[float, Any]:
        self._maybe_spontaneous(round_no)
        phase, offset = divmod(round_no, self.phase_len)
        if not self._active_in(phase):
            return 0.0, None
        self._sync_core(phase)
        if offset < self.coloring_len:
            prob = self.core.transmission_probability(offset)
        else:
            prob = self.core.dissemination_probability()
        return prob, WAKE_PAYLOAD

    def end_round(self, reception: Reception) -> None:
        if reception.heard:
            self._mark_awake(reception.round_no)
        phase, offset = divmod(reception.round_no, self.phase_len)
        if self._active_in(phase) and offset < self.coloring_len:
            self._sync_core(phase)
            self.core.observe(
                offset,
                heard=reception.heard,
                transmitted=reception.transmitted,
            )

    @property
    def finished(self) -> bool:
        return self.awake


def run_adhoc_wakeup(
    network: Network,
    schedule: WakeupSchedule,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    round_budget: Optional[int] = None,
) -> BroadcastOutcome:
    """Run ad hoc wake-up under an adversarial schedule.

    :returns: a :class:`BroadcastOutcome` whose ``completion_round`` is the
        round at which the *last* station woke; the paper's running time is
        ``completion_round - schedule.first_wake``, exposed in ``extras``.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    if schedule.size != n:
        raise ProtocolError(
            f"wake schedule covers {schedule.size} stations, network has {n}"
        )
    coloring_schedule = ColoringSchedule(constants=constants, n=n)
    nodes = [
        AdhocWakeupNode(
            i,
            coloring_schedule,
            wake_round=(
                int(schedule.wake_rounds[i])
                if schedule.wake_rounds[i] >= 0
                else None
            ),
        )
        for i in range(n)
    ]
    if round_budget is None:
        spread = int(np.max(schedule.wake_rounds))
        round_budget = spread + constants.phase_rounds(n) * phase_budget(
            network.diameter
        )
    result = Simulator(network, nodes, rng).run(
        round_budget, stop=Simulator.all_finished, check_every=4
    )
    return adhoc_wakeup_outcome(
        np.array([node.awake_round for node in nodes]), result.rounds,
        "AdhocWakeup", schedule,
    )


def adhoc_wakeup_outcome(
    awake_round: np.ndarray, total_rounds: int, algorithm: str,
    schedule: WakeupSchedule,
) -> BroadcastOutcome:
    """An ad hoc wake-up's record from its per-station wake rounds.

    ``extras`` holds the schedule's ``first_wake`` and the paper's
    running time ``wakeup_time``, from the first spontaneous wake to the
    last station's (``-1`` if some station never woke).
    """
    outcome = BroadcastOutcome.of(awake_round, total_rounds, algorithm)
    first = schedule.first_wake
    wakeup_time = outcome.completion_round - first if outcome.success else -1
    outcome.extras = {"first_wake": first, "wakeup_time": wakeup_time}
    return outcome


class ColoredDisseminationNode(NodeAlgorithm):
    """Dissemination with pre-established colors (``p_v + q_v``).

    Initiators hold the message from round 0 and every holder transmits
    with probability ``(p_v + q_v) * c / log n``; used as the second stage
    of wake-up-with-coloring and as the per-bit primitive of consensus.
    """

    def __init__(
        self,
        index: int,
        n: int,
        constants: ProtocolConstants,
        color: float,
        is_initiator: bool,
        payload: Any = WAKE_PAYLOAD,
    ):
        super().__init__(index)
        self.prob = constants.dissemination_prob(color, n)
        self.payload = payload if is_initiator else None
        self.informed_round = 0 if is_initiator else NEVER_INFORMED

    @property
    def informed(self) -> bool:
        """Whether this node has received the wake-up message yet."""
        return self.informed_round != NEVER_INFORMED

    def transmission(self, round_no: int) -> tuple[float, Any]:
        if not self.informed:
            return 0.0, None
        return self.prob, self.payload

    def end_round(self, reception: Reception) -> None:
        if reception.heard and not self.informed:
            self.informed_round = reception.round_no
            self.payload = reception.message.payload

    @property
    def finished(self) -> bool:
        return self.informed


def run_colored_wakeup(
    network: Network,
    initiators: Sequence[int],
    base_colors: np.ndarray,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    payload: Any = WAKE_PAYLOAD,
    round_budget: Optional[int] = None,
    refresh_coloring: bool = True,
) -> BroadcastOutcome:
    """Wake-up with established coloring (Sect. 5).

    :param initiators: spontaneously woken stations (message holders).
    :param base_colors: backbone colors ``p_v`` from a previous
        ``StabilizeProbability`` run over all stations.
    :param refresh_coloring: run the auxiliary coloring ``q_v`` among the
        initiators (the paper's first stage); with ``False`` only the base
        colors are used — the ablation experiments toggle this.
    :returns: outcome over *all* stations; round counts include the
        auxiliary coloring stage when enabled.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    initiators = check_stations(n, initiators, "initiators")
    if not initiators:
        raise ProtocolError("colored wake-up needs at least one initiator")
    base_colors = np.asarray(base_colors, dtype=float)
    if base_colors.shape != (n,):
        raise ProtocolError(
            f"base_colors must have shape ({n},), got {base_colors.shape}"
        )

    aux_rounds = 0
    q_colors = np.zeros(n)
    if refresh_coloring:
        aux = run_coloring(network, constants, rng, participants=initiators)
        aux_rounds = aux.rounds
        q_colors = np.where(np.isnan(aux.colors), 0.0, aux.colors)

    combined = base_colors + q_colors
    nodes = [
        ColoredDisseminationNode(
            i, n, constants, float(combined[i]), i in set(initiators),
            payload=payload,
        )
        for i in range(n)
    ]
    if round_budget is None:
        round_budget = dissemination_budget(n, network.diameter)
    result = Simulator(network, nodes, rng).run(
        round_budget, stop=Simulator.all_finished, check_every=4
    )
    return colored_wakeup_outcome(
        np.array([node.informed_round for node in nodes]), result.rounds,
        aux_rounds, "ColoredWakeup",
    )


def colored_wakeup_outcome(
    informed_round: np.ndarray, rounds: int, aux_rounds: int, algorithm: str
) -> BroadcastOutcome:
    """A colored wake-up's record from its dissemination stage.

    Round stamps and the round count are shifted by the auxiliary
    coloring's ``aux_rounds`` so reported rounds are end to end.
    """
    shifted = np.where(
        informed_round >= 0, informed_round + aux_rounds, NEVER_INFORMED
    )
    return BroadcastOutcome.of(
        shifted, rounds + aux_rounds, algorithm,
        {"aux_coloring_rounds": aux_rounds},
    )
