"""Vectorized broadcast protocols and baselines.

Mirrors :mod:`repro.core.broadcast_spont`,
:mod:`repro.core.broadcast_nospont` and :mod:`repro.baselines` on flat
arrays.  All functions return :class:`~repro.core.outcome.BroadcastOutcome`
so the experiment harness treats reference and fast runs uniformly.

Every protocol is one batched kernel (``fast_*_batch``) running ``B``
replications through :mod:`repro.fastsim.engine` in one set of numpy
operations.  A single run is the call with a one-element generator
list, and a batched call equals a loop of such calls over the same
seed-spawned generators, replication by replication (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    decay_budget,
    decay_ladder_len,
    dissemination_budget,
    local_broadcast_q,
    phase_budget,
    phase_length,
    uniform_flood_budget,
    uniform_flood_q,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome, check_source
from repro.errors import ProtocolError
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import Medium, dissemination_loop_batch
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER

Rngs = Sequence[np.random.Generator]


def _source_state(
    B: int, n: int, source: int
) -> tuple[np.ndarray, np.ndarray]:
    informed = np.zeros((B, n), dtype=bool)
    informed[:, source] = True
    informed_round = np.full((B, n), NEVER_INFORMED, dtype=int)
    informed_round[:, source] = 0
    return informed, informed_round


def _outcomes(
    algorithm: str,
    informed_round: np.ndarray,
    total_rounds: np.ndarray,
    extras: Callable[[int], dict],
) -> list[BroadcastOutcome]:
    """Per-replication outcome records from batched state."""
    return [
        BroadcastOutcome.of(
            informed_round[b].copy(), total_rounds[b], algorithm, extras(b)
        )
        for b in range(informed_round.shape[0])
    ]


# ----------------------------------------------------------------------
# the paper's algorithms
# ----------------------------------------------------------------------
def fast_spont_broadcast_batch(
    network: Network,
    source: int,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    round_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched vectorized ``SBroadcast`` (Theorem 2).

    ``medium`` (optional, :class:`~repro.fastsim.engine.Medium`) carries
    the coloring, the pilot round and the dissemination loop over one
    moving and/or MAC-arbitrated channel (DESIGN.md §7.2, §11); MAC
    arbitration is shared across replications (round-keyed draws), so
    the pilot round's single shared resolution is preserved.
    """
    constants = constants.with_eps_prime()
    check_source(network.size, source)
    if medium is None:
        medium = Medium(network)
    n = network.size
    B = len(rngs)
    informed, informed_round = _source_state(B, n, source)

    coloring = fast_coloring_batch(
        network, constants, rngs,
        informed=informed, informed_round=informed_round, medium=medium,
    )
    colors = np.where(np.isnan(coloring.colors), 0.0, coloring.colors)
    diss_probs = constants.dissemination_prob(colors, n)

    # Pilot round: the source transmits alone (deterministic — resolved
    # once and shared across replications, which only differ in their
    # informed sets at this point).  Under a MAC the arbitration is
    # still shared (round-keyed draws), so the filtered mask stays one
    # row and the shared resolve is preserved bit-for-bit.
    pilot_tx = np.zeros((1, n), dtype=bool)
    pilot_tx[0, source] = True
    pilot_round = coloring.rounds
    _, heard_from = medium.resolve(pilot_round, pilot_tx)
    newly = (heard_from != NO_SENDER) & ~informed
    informed |= newly
    informed_round[newly] = pilot_round

    if round_budget is None:
        # The pilot round's network: under mobility the budget follows
        # the deployment the dissemination starts on.
        round_budget = dissemination_budget(
            n, medium.network.eccentricity(source)
        )

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, diss_probs, 0.0)

    last = dissemination_loop_batch(
        medium, rngs, informed, informed_round, probs,
        pilot_round + 1, round_budget,
    )
    return _outcomes(
        "SBroadcast(fast)", informed_round, last,
        lambda b: {"coloring_rounds": coloring.rounds, "colors": colors[b]},
    )


def fast_nospont_broadcast_batch(
    network: Network,
    source: int,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    max_phases: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched vectorized ``NoSBroadcast`` (Theorem 1).

    Phases run until every replication has informed every station or
    ``max_phases`` elapse (default
    :func:`~repro.core.constants.phase_budget` of the source's
    eccentricity).  A replication that completes stops participating
    (and stops consuming randomness) at the next phase boundary;
    per-replication round counts reflect the phase in which each
    finished.  Every phase's coloring and
    dissemination resolve through one ``medium`` (default: the static
    ``network``, no MAC).
    """
    check_source(network.size, source)
    if medium is None:
        medium = Medium(network)
    n = network.size
    B = len(rngs)
    schedule = ColoringSchedule(constants=constants, n=n)
    part2 = constants.part2_rounds(n)

    informed, informed_round = _source_state(B, n, source)

    if max_phases is None:
        max_phases = phase_budget(network.eccentricity(source))

    round_no = 0
    phases_used = np.zeros(B, dtype=int)
    total_rounds = np.zeros(B, dtype=int)
    for _phase in range(max_phases):
        running = ~informed.all(axis=1)
        if not running.any():
            break
        phases_used[running] += 1
        active = informed & running[:, None]  # fixed at the phase boundary
        coloring = fast_coloring_batch(
            network, constants, rngs,
            participants=active,
            informed=informed, informed_round=informed_round,
            round_offset=round_no,
            enabled=running,
            medium=medium,
        )
        round_no += coloring.rounds
        colors = np.where(np.isnan(coloring.colors), 0.0, coloring.colors)
        diss = np.where(active, constants.dissemination_prob(colors, n), 0.0)

        def probs(_round_no: int, _inf: np.ndarray) -> np.ndarray:
            # Only the stations active at the phase start disseminate.
            return diss

        last = dissemination_loop_batch(
            medium, rngs, informed, informed_round, probs,
            round_no, part2, enabled=running,
        )
        round_no = round_no + part2
        total_rounds[running] = np.where(
            informed.all(axis=1)[running], last[running], round_no
        )
    return _outcomes(
        "NoSBroadcast(fast)", informed_round, total_rounds,
        lambda b: {
            "phase_rounds": constants.phase_rounds(n),
            "phases_used": int(phases_used[b]),
        },
    )


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
def _flood_batch(
    algorithm: str,
    network: Network,
    source: int,
    rngs: Rngs,
    prob_of_round: Callable[[int, np.ndarray], np.ndarray],
    round_budget: int,
    extras: Callable[[int], dict],
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    informed, informed_round = _source_state(len(rngs), network.size, source)
    last = dissemination_loop_batch(
        medium or Medium(network), rngs, informed, informed_round,
        prob_of_round, 0, round_budget,
    )
    return _outcomes(algorithm, informed_round, last, extras)


def fast_uniform_broadcast_batch(
    network: Network,
    source: int,
    rngs: Rngs,
    q: Optional[float] = None,
    *,
    round_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched fixed-probability flooding (baseline)."""
    check_source(network.size, source)
    if q is None:
        q = uniform_flood_q(network.max_degree)
    if not 0 < q <= 1:
        raise ProtocolError(f"q must be in (0, 1], got {q}")
    if round_budget is None:
        round_budget = uniform_flood_budget(network.eccentricity(source), q)

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, q, 0.0)

    return _flood_batch(
        "UniformFlood(fast)", network, source, rngs, probs, round_budget,
        lambda b: {"q": q}, medium,
    )


def fast_decay_broadcast_batch(
    network: Network,
    source: int,
    rngs: Rngs,
    *,
    ladder_len: Optional[int] = None,
    round_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched Decay sweep (the granularity-sensitive baseline)."""
    check_source(network.size, source)
    n = network.size
    if ladder_len is None:
        ladder_len = decay_ladder_len(n)
    if ladder_len < 1:
        raise ProtocolError(f"ladder length must be >= 1, got {ladder_len}")
    if round_budget is None:
        round_budget = decay_budget(network.eccentricity(source), ladder_len)

    def probs(round_no: int, inf: np.ndarray) -> np.ndarray:
        rung = round_no % ladder_len
        return np.where(inf, 2.0 ** (-rung), 0.0)

    return _flood_batch(
        "DecaySweep(fast)", network, source, rngs, probs, round_budget,
        lambda b: {"ladder_len": ladder_len}, medium,
    )


def fast_local_broadcast_global_batch(
    network: Network,
    source: int,
    rngs: Rngs,
    *,
    round_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched local-broadcast composition (``Delta``-paying baseline)."""
    check_source(network.size, source)
    n = network.size
    delta = max(1, network.max_degree)
    q = local_broadcast_q(delta)
    phase_len = phase_length(n, delta)
    if round_budget is None:
        round_budget = phase_budget(network.eccentricity(source)) * phase_len

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, q, 0.0)

    return _flood_batch(
        "LocalBroadcastGlobal(fast)", network, source, rngs, probs,
        round_budget,
        lambda b: {"max_degree": delta, "phase_length": phase_len},
        medium,
    )
