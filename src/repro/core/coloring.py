"""``StabilizeProbability`` — the paper's network-coloring procedure.

Algorithm 1 of the paper, structured exactly as the pseudo-code:

* every active station starts at ``p_v = p_start = Theta(1/n)``;
* at each probability level it runs ``c'`` blocks of ``DensityTest``
  (transmit with ``p_v`` for ``c0 log n`` rounds, count successes) followed
  by ``Playoff`` (transmit with ``p_v * c_eps`` for ``c2 log n`` rounds,
  count successes);
* a station whose block passes *both* tests quits with color ``p_v``;
* stations that survive all levels quit with color ``2 p_max``.

Two fidelity notes (also in DESIGN.md):

1. All stations are synchronized through the deterministic
   :class:`~repro.core.constants.ColoringSchedule`; both tests always run
   for their full length because lockstep stations cannot short-circuit
   the ``DensityTest(v) and Playoff(v)`` conjunction.
2. "Success" counts a station's own transmissions as well as receptions —
   the paper defines success in ``DensityTest`` as "successfully receives
   *or sends*" (Sect. 3.2) and notes for ``Playoff`` that "a station hears
   a message transmitted by itself" (proof of Lemma 6).

The :class:`ColoringCore` state machine is engine-agnostic (it consumes
round offsets and success booleans) so the same logic is embedded in the
standalone node, in ``NoSBroadcast`` phases, and in ``SBroadcast``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.core.constants import ColoringSchedule, ProtocolConstants
from repro.core.outcome import check_stations
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.messages import Reception
from repro.sim.node import NodeAlgorithm

#: Quit-level value marking stations that survived the whole ladder and
#: received the final color ``2 p_max``.
FINAL_COLOR_LEVEL: int = -2

#: Quit-level value for stations that never participated.
NOT_PARTICIPATING: int = -3


class ColoringCore:
    """Engine-agnostic state machine for one station's coloring run.

    Drives the per-round decisions of Algorithm 1 given the round offset
    within the execution.  Embeddable: the broadcast protocols instantiate
    one core per coloring execution.
    """

    def __init__(self, schedule: ColoringSchedule):
        self.schedule = schedule
        self.reset()

    def reset(self) -> None:
        """Restart the state machine for a fresh execution."""
        self.quit_level: Optional[int] = None
        self._density_successes = 0
        self._playoff_successes = 0
        self._dissemination: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def has_quit(self) -> bool:
        """Whether the station already quit with a color."""
        return self.quit_level is not None

    def finished_level(self) -> int:
        """Quit level after the execution ends (survivors get the marker)."""
        return self.quit_level if self.has_quit else FINAL_COLOR_LEVEL

    def finished_color(self) -> float:
        """The assigned color probability after the execution ends."""
        constants = self.schedule.constants
        if self.has_quit:
            return constants.color_of_level(self.quit_level, self.schedule.n)
        return constants.survivor_color

    def dissemination_probability(self) -> float:
        """Part-2 probability of the finished color, after the execution.

        The color is final once the execution ends, so the probability
        is computed on the first call and kept until :meth:`reset`.
        """
        if self._dissemination is None:
            self._dissemination = self.schedule.constants.dissemination_prob(
                self.finished_color(), self.schedule.n
            )
        return self._dissemination

    # ------------------------------------------------------------------
    def transmission_probability(self, offset: int) -> float:
        """Probability for the round at ``offset`` (0 once quit)."""
        if self.has_quit:
            return 0.0
        level, _block, part, _r = self.schedule.position(offset)
        return self.schedule.test_probability(level, part)

    def observe(self, offset: int, heard: bool, transmitted: bool) -> None:
        """Account one round's outcome; evaluate tests at block ends.

        DensityTest counts "receives or sends" (paper Sect. 3.2); Playoff
        counts receptions only by default — see the semantics note on
        :class:`~repro.core.constants.ProtocolConstants`.
        """
        if self.has_quit:
            return
        level, _block, part, _r = self.schedule.position(offset)
        if part == "density":
            if heard or transmitted:
                self._density_successes += 1
        else:
            counts_self = self.schedule.constants.playoff_counts_self
            if heard or (transmitted and counts_self):
                self._playoff_successes += 1
        if self.schedule.is_block_end(offset):
            self._evaluate_block(level)

    def _evaluate_block(self, level: int) -> None:
        constants = self.schedule.constants
        n = self.schedule.n
        density_true = (
            self._density_successes >= constants.density_threshold(n)
        )
        playoff_true = (
            self._playoff_successes >= constants.playoff_threshold(n)
        )
        if density_true and playoff_true:
            self.quit_level = level
        self._density_successes = 0
        self._playoff_successes = 0


class ColoringNode(NodeAlgorithm):
    """Standalone simulator node running ``StabilizeProbability``.

    :param index: station index.
    :param schedule: shared coloring schedule.
    :param participating: stations outside the active set stay silent but
        still observe the channel (they are "asleep" for the protocol).
    :param payload: attached to every transmission (the broadcast message
        in embedded uses; a diagnostic marker standalone).
    :param start_round: global round at which the execution begins.
    """

    def __init__(
        self,
        index: int,
        schedule: ColoringSchedule,
        participating: bool = True,
        payload: Any = None,
        start_round: int = 0,
    ):
        super().__init__(index)
        self.schedule = schedule
        self.participating = participating
        self.payload = payload
        self.start_round = start_round
        self.core = ColoringCore(schedule)

    def _offset(self, round_no: int) -> Optional[int]:
        offset = round_no - self.start_round
        if 0 <= offset < self.schedule.total_rounds:
            return offset
        return None

    def transmission(self, round_no: int) -> tuple[float, Any]:
        if not self.participating:
            return 0.0, None
        offset = self._offset(round_no)
        if offset is None:
            return 0.0, None
        return self.core.transmission_probability(offset), self.payload

    def end_round(self, reception: Reception) -> None:
        if not self.participating:
            return
        offset = self._offset(reception.round_no)
        if offset is None:
            return
        self.core.observe(
            offset, heard=reception.heard, transmitted=reception.transmitted
        )

    @property
    def finished(self) -> bool:
        return not self.participating or self.core.has_quit


@dataclass
class ColoringResult:
    """Outcome of one ``StabilizeProbability`` execution.

    :param colors: per-station color probability (``nan`` where the
        station did not participate).
    :param quit_levels: per-station quit level; :data:`FINAL_COLOR_LEVEL`
        for survivors, :data:`NOT_PARTICIPATING` for outsiders.
    :param rounds: rounds consumed (``schedule.total_rounds``).
    :param schedule: the schedule that produced the coloring.
    """

    colors: np.ndarray
    quit_levels: np.ndarray
    rounds: int
    schedule: ColoringSchedule

    @property
    def participants(self) -> np.ndarray:
        """Boolean mask of stations that took part."""
        return self.quit_levels != NOT_PARTICIPATING

    def distinct_colors(self) -> list[float]:
        """Sorted distinct colors actually assigned."""
        values = self.colors[self.participants]
        return sorted(set(float(v) for v in values))

    def color_mask(self, color: float) -> np.ndarray:
        """Participants holding exactly ``color`` (boolean mask)."""
        return self.participants & np.isclose(self.colors, color)


def run_coloring(
    network: Network,
    constants: ProtocolConstants,
    rng: np.random.Generator,
    participants: Optional[Sequence[int]] = None,
) -> ColoringResult:
    """Execute ``StabilizeProbability`` on (a subset of) a network.

    :param participants: station indices taking part; default all.  The
    effective ladder is always sized by the *known* network size ``n``
    (stations know ``n``, Sect. 1.1), even when fewer stations are active —
    exactly as in ``NoSBroadcast`` phases.
    """
    n = network.size
    schedule = ColoringSchedule(constants=constants, n=n)
    active = set(
        range(n) if participants is None
        else check_stations(n, participants, "participants")
    )
    if not active:
        raise ProtocolError("coloring needs at least one participant")
    nodes = [
        ColoringNode(
            i, schedule, participating=(i in active), payload=("color", i)
        )
        for i in range(n)
    ]
    sim = Simulator(network, nodes, rng)
    sim.run(schedule.total_rounds)
    colors = np.full(n, np.nan)
    quit_levels = np.full(n, NOT_PARTICIPATING, dtype=int)
    for i, node in enumerate(nodes):
        if node.participating:
            quit_levels[i] = node.core.finished_level()
            colors[i] = node.core.finished_color()
    return ColoringResult(
        colors=colors,
        quit_levels=quit_levels,
        rounds=schedule.total_rounds,
        schedule=schedule,
    )
