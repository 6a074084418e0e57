"""Vectorized ``StabilizeProbability``.

Same semantics as :mod:`repro.core.coloring` — the schedule, the two
tests, the success-counting rules and the quit logic are driven by the
shared :class:`~repro.core.constants.ColoringSchedule` — but all stations
advance in numpy arrays, and each test (whose transmit decisions are
fixed once its draw block exists) costs one reception call for all of
its rounds.

The implementation is *batched*: :func:`fast_coloring_batch` runs ``B``
independent replications (one seed-spawned generator each) through the
deterministic schedule at once; a single run is the call with a
one-element generator list, read back through
:meth:`FastColoringBatch.replication`.  Per-replication state lives in
``(B, n)`` arrays and no operation mixes rows, so each replication's
outputs are bitwise identical to a standalone run with the same
generator (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.coloring import FINAL_COLOR_LEVEL, NOT_PARTICIPATING
from repro.core.constants import ColoringSchedule, ProtocolConstants
from repro.errors import ProtocolError
from repro.fastsim.engine import Medium, draw_block
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER


@dataclass
class FastColoringResult:
    """Vectorized coloring outcome (mirrors ``ColoringResult``)."""

    colors: np.ndarray
    quit_levels: np.ndarray
    rounds: int
    schedule: ColoringSchedule

    @property
    def participants(self) -> np.ndarray:
        """Boolean mask of the stations that took part."""
        return self.quit_levels != NOT_PARTICIPATING

    def distinct_colors(self) -> list[float]:
        """Sorted distinct colors assigned to participants."""
        values = self.colors[self.participants]
        return sorted(set(float(v) for v in values))

    def color_mask(self, color: float) -> np.ndarray:
        """Participants holding ``color`` (tolerant float compare)."""
        return self.participants & np.isclose(self.colors, color)


@dataclass
class FastColoringBatch:
    """Per-replication colorings of one batched execution.

    All arrays are ``(B, n)``; ``replication(b)`` extracts one
    replication as a :class:`FastColoringResult`.
    """

    colors: np.ndarray
    quit_levels: np.ndarray
    rounds: int
    schedule: ColoringSchedule

    @property
    def batch_size(self) -> int:
        """Number of replications ``B`` in the batch."""
        return self.colors.shape[0]

    def replication(self, b: int) -> FastColoringResult:
        """Replication ``b``'s coloring as a single-run result view."""
        return FastColoringResult(
            colors=self.colors[b],
            quit_levels=self.quit_levels[b],
            rounds=self.rounds,
            schedule=self.schedule,
        )


def _as_participant_masks(
    participants: Optional[np.ndarray],
    B: int,
    n: int,
    enabled: np.ndarray,
) -> np.ndarray:
    if participants is None:
        masks = np.ones((B, n), dtype=bool)
    else:
        participants = np.asarray(participants, dtype=bool)
        if participants.shape == (n,):
            masks = np.broadcast_to(participants, (B, n)).copy()
        elif participants.shape == (B, n):
            masks = participants.copy()
        else:
            raise ProtocolError(
                f"participants mask must have shape ({n},) or ({B}, {n})"
            )
    if not masks[enabled].any(axis=1).all():
        raise ProtocolError("coloring needs at least one participant")
    return masks


def fast_coloring_batch(
    network: Network,
    constants: ProtocolConstants,
    rngs: Sequence[np.random.Generator],
    participants: Optional[np.ndarray] = None,
    informed: Optional[np.ndarray] = None,
    informed_round: Optional[np.ndarray] = None,
    round_offset: int = 0,
    enabled: Optional[np.ndarray] = None,
    medium: Optional[Medium] = None,
) -> FastColoringBatch:
    """Run ``B`` independent ``StabilizeProbability`` executions at once.

    :param rngs: one generator per replication (see
        :func:`repro.fastsim.engine.spawn_rngs`).
    :param participants: boolean mask of stations taking part — ``(n,)``
        shared or ``(B, n)`` per replication (default all).
    :param informed: optional ``(B, n)`` mask updated **in place**: a
        station that hears an informed participant becomes informed.
    :param informed_round: optional ``(B, n)`` int array updated in place
        with the global round at which stations became informed.
    :param round_offset: global round number of the execution's first
        round (for ``informed_round`` bookkeeping).
    :param enabled: optional ``(B,)`` mask; disabled replications consume
        no randomness and come back with all-NaN colors.
    :param medium: optional :class:`~repro.fastsim.engine.Medium`
        (default: the static ``network``, no MAC) resolving each
        executed test as one block of rounds, each under its global
        round number.  Skipped blocks
        (every replication quit) do not step the medium, and MAC
        arbitration is round-keyed, so a replication's decisions are
        unchanged whether its batch skips a quit block or runs it for
        other lanes.
    """
    n = network.size
    B = len(rngs)
    schedule = ColoringSchedule(constants=constants, n=n)
    if enabled is None:
        enabled = np.ones(B, dtype=bool)
    else:
        enabled = np.asarray(enabled, dtype=bool)
    masks = _as_participant_masks(participants, B, n, enabled)
    masks &= enabled[:, None]
    track_informed = informed is not None
    if track_informed and informed_round is None:
        raise ProtocolError(
            "informed_round must accompany informed for bookkeeping"
        )

    if medium is None:
        medium = Medium(network)
    counts_self = constants.playoff_counts_self

    in_ladder = masks.copy()
    colors = np.full((B, n), np.nan)
    quit_levels = np.full((B, n), NOT_PARTICIPATING, dtype=int)
    quit_levels[masks] = FINAL_COLOR_LEVEL

    dthresh = constants.density_threshold(n)
    pthresh = constants.playoff_threshold(n)
    global_round = round_offset

    def run_test(
        prob: float, length: int, count_tx: bool, block_active: np.ndarray
    ) -> np.ndarray:
        """Run one test for active replications; per-station successes.

        The ladder is fixed for the test, so its ``length`` rounds of
        transmit decisions form one block resolved by one medium call.
        """
        nonlocal global_round
        draws = draw_block(rngs, block_active, length, n)
        intents = np.ascontiguousarray(
            (in_ladder[:, None] & (draws < prob)).transpose(1, 0, 2)
        )
        tx_mask, heard_from = medium.resolve(global_round, intents)
        heard = heard_from != NO_SENDER
        successes = np.count_nonzero(
            (heard | tx_mask) if count_tx else heard, axis=0
        )
        if track_informed:
            # Rounds in order: a station informed in round r relays
            # from round r + 1 on.  Rounds where nobody heard change
            # nothing.
            for r in np.flatnonzero(heard.any(axis=(1, 2))):
                senders = np.where(heard[r], heard_from[r], 0)
                senders_informed = (
                    informed[np.arange(B)[:, None], senders] & heard[r]
                )
                newly = senders_informed & ~informed
                if newly.any():
                    informed[newly] = True
                    informed_round[newly] = global_round + r
        global_round += length
        return successes

    for level in range(schedule.levels):
        p_v = schedule.level_probability(level)
        p_playoff = schedule.test_probability(level, "playoff")
        for _rep in range(constants.repeats):
            block_active = enabled & in_ladder.any(axis=1)
            if not block_active.any():
                # Everyone quit: rounds still elapse (fixed schedule).
                global_round += schedule.block_len
                continue
            dens = run_test(
                p_v, schedule.density_len, True, block_active
            )
            play = run_test(
                p_playoff, schedule.playoff_len, counts_self, block_active
            )
            passed = in_ladder & (dens >= dthresh) & (play >= pthresh)
            if passed.any():
                colors[passed] = p_v
                quit_levels[passed] = level
                in_ladder &= ~passed

    colors[in_ladder] = constants.survivor_color
    colors[~masks] = np.nan
    return FastColoringBatch(
        colors=colors,
        quit_levels=quit_levels,
        rounds=schedule.total_rounds,
        schedule=schedule,
    )

