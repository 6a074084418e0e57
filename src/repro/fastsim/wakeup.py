"""Vectorized wake-up protocols (paper Sect. 5).

Mirrors :mod:`repro.core.wakeup` on flat arrays:

* :func:`fast_adhoc_wakeup_batch` — ad hoc wake-up under an adversarial
  schedule.  Stations hold the wake-up message once they wake
  spontaneously or hear anything; holders join the ``NoSBroadcast`` phase
  structure at the next phase boundary (coloring part + dissemination
  part), exactly like ``AdhocWakeupNode``.
* :func:`fast_colored_wakeup_batch` — wake-up with established coloring:
  an auxiliary coloring ``q_v`` among the initiators, then dissemination
  with colors ``p_v + q_v``.  The building block of consensus and leader
  election.

Both run ``B`` seed-spawned replications at once; a single run is the
call with a one-element generator list (DESIGN.md §6).
Unlike the coloring/broadcast fast paths, the reference wake-up logic
lives in per-node state machines, so the vectorized coloring here is
driven round by round through :class:`VectorColoringState` — the ``(B, n)``
equivalent of :class:`repro.core.coloring.ColoringCore`, consuming the
same :class:`~repro.core.constants.ColoringSchedule` positions.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    dissemination_budget,
    phase_budget,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome, check_stations
from repro.core.wakeup import adhoc_wakeup_outcome, colored_wakeup_outcome
from repro.errors import ProtocolError
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import Medium, dissemination_loop_batch, draw_block
from repro.network.network import Network
from repro.sim.wakeup import WakeupSchedule
from repro.sinr.reception import NO_SENDER

Rngs = Sequence[np.random.Generator]


class VectorColoringState:
    """Round-driven ``StabilizeProbability`` state over ``(B, n)`` arrays.

    The array form of :class:`repro.core.coloring.ColoringCore`: callers
    feed it round offsets within one coloring execution plus per-round
    channel outcomes, and it tracks quit levels and test counters for all
    stations of all replications.  Stations outside the ``active`` mask
    neither transmit nor observe (their counters stay frozen), matching
    inactive reference nodes.
    """

    def __init__(self, schedule: ColoringSchedule, batch_size: int):
        self.schedule = schedule
        self.constants = schedule.constants
        shape = (batch_size, schedule.n)
        self.quit_level = np.full(shape, -1, dtype=int)
        self.has_quit = np.zeros(shape, dtype=bool)
        self._density = np.zeros(shape, dtype=int)
        self._playoff = np.zeros(shape, dtype=int)

    def transmission_probs(
        self, offset: int, active: np.ndarray
    ) -> np.ndarray:
        """Per-station probability for the round at ``offset``."""
        level, _block, part, _r = self.schedule.position(offset)
        p = self.schedule.test_probability(level, part)
        return np.where(active & ~self.has_quit, p, 0.0)

    def observe(
        self,
        offset: int,
        heard: np.ndarray,
        transmitted: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Account one round's outcome; evaluate tests at block ends."""
        level, _block, part, _r = self.schedule.position(offset)
        counting = active & ~self.has_quit
        if part == "density":
            self._density += counting & (heard | transmitted)
        else:
            counts_self = self.constants.playoff_counts_self
            self._playoff += counting & (heard | (transmitted & counts_self))
        if self.schedule.is_block_end(offset):
            n = self.schedule.n
            passed = (
                counting
                & (self._density >= self.constants.density_threshold(n))
                & (self._playoff >= self.constants.playoff_threshold(n))
            )
            self.quit_level[passed] = level
            self.has_quit |= passed
            self._density[:] = 0
            self._playoff[:] = 0

    def finished_colors(self) -> np.ndarray:
        """Per-station color once the execution is over (survivors get
        ``2 p_max``), regardless of activity."""
        n = self.schedule.n
        ladder = np.array(
            [
                self.constants.color_of_level(lv, n)
                for lv in range(self.schedule.levels)
            ]
        )
        colors = np.full(self.quit_level.shape, self.constants.survivor_color)
        quit_lv = np.clip(self.quit_level, 0, self.schedule.levels - 1)
        colors = np.where(self.has_quit, ladder[quit_lv], colors)
        return colors


def fast_adhoc_wakeup_batch(
    network: Network,
    schedule: WakeupSchedule,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    round_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched ad hoc wake-up under one adversarial schedule.

    Semantics mirror :func:`repro.core.wakeup.run_adhoc_wakeup`: a
    station is awake once it wakes spontaneously or hears any message;
    woken stations join the phase structure (coloring + dissemination) at
    the next phase boundary.  ``completion_round`` is the round at which
    the last station woke; ``extras['wakeup_time']`` subtracts the first
    spontaneous wake.  A replication stops the moment all its stations
    are awake (per-replication ``total_rounds``).

    :param medium: optional :class:`~repro.fastsim.engine.Medium`
        (default: the static ``network``, no MAC) resolving every round,
        so the wake-up can run over a moving deployment and under a MAC
        (the default round budget still derives from the *initial*
        network's diameter); the coloring state observes the
        *transmitted* mask, exactly as a deferring real station would
        not have transmitted.
    """
    n = network.size
    B = len(rngs)
    if schedule.size != n:
        raise ProtocolError(
            f"wake schedule covers {schedule.size} stations, network has {n}"
        )
    coloring_schedule = ColoringSchedule(constants=constants, n=n)
    phase_len = constants.phase_rounds(n)
    coloring_len = coloring_schedule.total_rounds
    if round_budget is None:
        spread = int(np.max(schedule.wake_rounds))
        round_budget = spread + phase_len * phase_budget(network.diameter)
    if medium is None:
        medium = Medium(network)

    wake_rounds = schedule.wake_rounds
    spontaneous = wake_rounds >= 0

    awake_round = np.full((B, n), NEVER_INFORMED, dtype=int)
    # Phase from which a station participates (holders join at the next
    # phase boundary); "infinity" until awake.
    active_from = np.full((B, n), np.iinfo(np.int64).max, dtype=np.int64)
    total_rounds = np.full(B, round_budget, dtype=int)
    running = np.ones(B, dtype=bool)
    state: Optional[VectorColoringState] = None

    def mark_awake(mask: np.ndarray, round_no: int) -> None:
        newly = mask & (awake_round == NEVER_INFORMED)
        awake_round[newly] = round_no
        active_from[newly] = round_no // phase_len + 1

    phase_diss: Optional[np.ndarray] = None
    for round_no in range(round_budget):
        if not running.any():
            break
        phase, offset = divmod(round_no, phase_len)
        if offset == 0 or state is None:
            state = VectorColoringState(coloring_schedule, B)
            phase_diss = None
        # Spontaneous wake-ups fire before this round's transmissions.
        if spontaneous.any():
            due = spontaneous & (wake_rounds == round_no)
            if due.any():
                mark_awake(running[:, None] & due[None, :], round_no)
        active = running[:, None] & (active_from <= phase)
        if offset < coloring_len:
            probs = state.transmission_probs(offset, active)
        else:
            if phase_diss is None:
                # Colors are frozen once the coloring part ends (observe
                # only runs during it), so compute the phase's
                # dissemination probabilities once.
                phase_diss = constants.dissemination_prob(
                    state.finished_colors(), n
                )
            probs = np.where(active, phase_diss, 0.0)
        draws = draw_block(rngs, running, 1, n)[:, 0, :]
        tx_mask, heard_from = medium.resolve(round_no, draws < probs)
        heard = heard_from != NO_SENDER
        mark_awake(heard, round_no)
        if offset < coloring_len:
            state.observe(offset, heard, tx_mask, active)
        just_done = running & (awake_round != NEVER_INFORMED).all(axis=1)
        if just_done.any():
            total_rounds[just_done] = round_no + 1
            running &= ~just_done

    return [
        adhoc_wakeup_outcome(
            awake_round[b].copy(), total_rounds[b], "AdhocWakeup(fast)",
            schedule,
        )
        for b in range(B)
    ]


def _initiator_masks(
    initiators, B: int, n: int
) -> np.ndarray:
    """Normalize initiators to a ``(B, n)`` boolean mask.

    An ``(n,)`` or ``(B, n)`` boolean array is a mask; anything else is
    a set of station indices (:func:`~repro.core.outcome.check_stations`).
    """
    arr = np.asarray(initiators)
    if arr.dtype == bool and arr.shape == (n,):
        masks = np.broadcast_to(arr, (B, n)).copy()
    elif arr.dtype == bool and arr.shape == (B, n):
        masks = arr.copy()
    else:
        idx = check_stations(n, np.atleast_1d(arr).ravel(), "initiators")
        masks = np.zeros((B, n), dtype=bool)
        masks[:, idx] = True
    return masks


def fast_colored_wakeup_batch(
    network: Network,
    initiators,
    base_colors: np.ndarray,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    round_budget: Optional[int] = None,
    refresh_coloring: bool = True,
    enabled: Optional[np.ndarray] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched wake-up with established coloring (Sect. 5).

    :param initiators: spontaneously woken stations — an index sequence
        (shared), an ``(n,)`` boolean mask, or a per-replication ``(B, n)``
        mask.
    :param base_colors: backbone colors ``p_v`` — ``(n,)`` shared or
        ``(B, n)`` per replication.
    :param enabled: optional ``(B,)`` mask; disabled replications consume
        no randomness (consensus uses this for silent bit boxes).  Every
        enabled replication needs at least one initiator.
    :param medium: optional :class:`~repro.fastsim.engine.Medium`
        (default: the static ``network``, no MAC) shared by the
        auxiliary coloring and the dissemination loop, so the whole
        execution rides one moving, arbitrated channel.  Stage-local
        round numbers key the arbitration (each stage restarts at 0),
        so batched and sequential executions see identical MAC
        decisions.
    """
    n = network.size
    B = len(rngs)
    if enabled is None:
        enabled = np.ones(B, dtype=bool)
    else:
        enabled = np.asarray(enabled, dtype=bool)
    masks = _initiator_masks(initiators, B, n)
    masks &= enabled[:, None]
    if not masks[enabled].any(axis=1).all():
        raise ProtocolError("colored wake-up needs at least one initiator")
    base_colors = np.asarray(base_colors, dtype=float)
    if base_colors.shape == (n,):
        base_colors = np.broadcast_to(base_colors, (B, n))
    elif base_colors.shape != (B, n):
        raise ProtocolError(
            f"base_colors must have shape ({n},) or ({B}, {n}), "
            f"got {base_colors.shape}"
        )
    if medium is None:
        medium = Medium(network)

    aux_rounds = 0
    q_colors = np.zeros((B, n))
    if refresh_coloring:
        aux = fast_coloring_batch(
            network, constants, rngs, participants=masks, enabled=enabled,
            medium=medium,
        )
        aux_rounds = aux.rounds
        q_colors = np.where(np.isnan(aux.colors), 0.0, aux.colors)

    diss = constants.dissemination_prob(base_colors + q_colors, n)
    informed = masks.copy()
    informed_round = np.where(masks, 0, NEVER_INFORMED)

    if round_budget is None:
        round_budget = dissemination_budget(n, network.diameter)

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, diss, 0.0)

    last = dissemination_loop_batch(
        medium, rngs, informed, informed_round, probs,
        0, round_budget, enabled=enabled,
    )

    # A disabled replication informs nobody, so its record fails.
    return [
        colored_wakeup_outcome(
            informed_round[b], int(last[b]), aux_rounds,
            "ColoredWakeup(fast)",
        )
        for b in range(B)
    ]

