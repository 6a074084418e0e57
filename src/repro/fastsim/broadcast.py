"""Vectorized broadcast protocols and baselines.

Mirrors :mod:`repro.core.broadcast_spont`,
:mod:`repro.core.broadcast_nospont` and :mod:`repro.baselines` on flat
arrays.  All functions return :class:`~repro.core.outcome.BroadcastOutcome`
so the experiment harness treats reference and fast runs uniformly.

Every protocol has a batched form (``fast_*_batch``) running ``B``
replications through :mod:`repro.fastsim.engine` in one set of numpy
operations; the plain ``fast_*`` functions are the ``B = 1`` case, so a
batched sweep and a loop of single runs over the same seed-spawned
generators produce identical per-replication outcomes (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.constants import ColoringSchedule, ProtocolConstants, log2ceil
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome
from repro.errors import ProtocolError
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import Medium, dissemination_loop_batch
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER

Rngs = Sequence[np.random.Generator]


def _check_source(network: Network, source: int) -> None:
    if not 0 <= source < network.size:
        raise ProtocolError(f"source {source} outside station range")


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
    extras: Optional[Callable[[int], dict]] = None,
) -> list[BroadcastOutcome]:
    """Per-replication outcome records from batched state."""
    results = []
    for b in range(informed_round.shape[0]):
        success = bool(np.all(informed_round[b] != NEVER_INFORMED))
        completion = (
            int(informed_round[b].max()) if success else NEVER_INFORMED
        )
        results.append(
            BroadcastOutcome(
                success=success,
                completion_round=completion,
                total_rounds=int(total_rounds[b]),
                informed_round=informed_round[b].copy(),
                algorithm=algorithm,
                extras=extras(b) if extras else {},
            )
        )
    return results


def dissemination_probs(
    colors: np.ndarray, constants: ProtocolConstants, n: int
) -> np.ndarray:
    """Vectorized part-2 probability ``min(1, p_v * c / log n)``."""
    return np.minimum(1.0, colors * constants.dissemination / log2ceil(n))


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
    budget_scale: int = 16,
    tighten_eps: bool = True,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched vectorized ``SBroadcast`` (Theorem 2).

    ``medium`` (optional, :class:`~repro.fastsim.engine.Medium`) carries
    the coloring, the pilot round and the dissemination loop over one
    moving and/or MAC-arbitrated channel (DESIGN.md §7.2, §11); MAC
    arbitration is shared across replications (round-keyed draws), so
    the pilot round's single shared resolution is preserved.
    """
    if tighten_eps:
        constants = constants.with_eps_prime()
    _check_source(network, source)
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
    diss_probs = dissemination_probs(colors, constants, n)

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
        logn = log2ceil(n)
        # The pilot round's network: under mobility the budget follows
        # the deployment the dissemination starts on.
        depth = medium.network.eccentricity(source) if n > 1 else 0
        round_budget = budget_scale * (depth * logn + logn * logn)

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


def fast_spont_broadcast(
    network: Network,
    source: int,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    round_budget: Optional[int] = None,
    budget_scale: int = 16,
    tighten_eps: bool = True,
    medium: Optional[Medium] = None,
) -> BroadcastOutcome:
    """Vectorized ``SBroadcast`` (Theorem 2)."""
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_spont_broadcast_batch(
        network, source, constants, [rng],
        round_budget=round_budget, budget_scale=budget_scale,
        tighten_eps=tighten_eps, medium=medium,
    )[0]


def fast_nospont_broadcast_batch(
    network: Network,
    source: int,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    max_phases: Optional[int] = None,
    budget_slack: int = 8,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched vectorized ``NoSBroadcast`` (Theorem 1).

    Phases run until every replication has informed every station or
    ``max_phases`` elapse (default ``2 * ecc + slack``).  A replication
    that completes stops participating (and stops consuming randomness)
    at the next phase boundary; per-replication round counts reflect the
    phase in which each finished.  Every phase's coloring and
    dissemination resolve through one ``medium`` (default: the static
    ``network``, no MAC).
    """
    _check_source(network, source)
    if medium is None:
        medium = Medium(network)
    n = network.size
    B = len(rngs)
    schedule = ColoringSchedule(constants=constants, n=n)
    part2 = constants.part2_rounds(n)

    informed, informed_round = _source_state(B, n, source)

    if max_phases is None:
        depth = network.eccentricity(source) if n > 1 else 0
        max_phases = 2 * depth + budget_slack

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
        diss = dissemination_probs(colors, constants, n)
        diss = np.where(active, diss, 0.0)

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


def fast_nospont_broadcast(
    network: Network,
    source: int,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    max_phases: Optional[int] = None,
    budget_slack: int = 8,
    medium: Optional[Medium] = None,
) -> BroadcastOutcome:
    """Vectorized ``NoSBroadcast`` (Theorem 1)."""
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_nospont_broadcast_batch(
        network, source, constants, [rng],
        max_phases=max_phases, budget_slack=budget_slack, medium=medium,
    )[0]


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
    budget_scale: int = 64,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched fixed-probability flooding (baseline)."""
    _check_source(network, source)
    if q is None:
        q = 1.0 / max(1, network.max_degree)
    if not 0 < q <= 1:
        raise ProtocolError(f"q must be in (0, 1], got {q}")
    if round_budget is None:
        depth = network.eccentricity(source) if network.size > 1 else 0
        round_budget = max(
            64, budget_scale * (depth + 1) * max(1, int(1.0 / q))
        )

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, q, 0.0)

    return _flood_batch(
        "UniformFlood(fast)", network, source, rngs, probs, round_budget,
        lambda b: {"q": q}, medium,
    )


def fast_uniform_broadcast(
    network: Network,
    source: int,
    q: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    round_budget: Optional[int] = None,
    budget_scale: int = 64,
    medium: Optional[Medium] = None,
) -> BroadcastOutcome:
    """Vectorized fixed-probability flooding (baseline)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_uniform_broadcast_batch(
        network, source, [rng], q,
        round_budget=round_budget, budget_scale=budget_scale, medium=medium,
    )[0]


def fast_decay_broadcast_batch(
    network: Network,
    source: int,
    rngs: Rngs,
    *,
    ladder_len: Optional[int] = None,
    round_budget: Optional[int] = None,
    budget_scale: int = 96,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched Decay sweep (the granularity-sensitive baseline)."""
    _check_source(network, source)
    n = network.size
    if ladder_len is None:
        ladder_len = log2ceil(n) + 1
    if ladder_len < 1:
        raise ProtocolError(f"ladder length must be >= 1, got {ladder_len}")
    if round_budget is None:
        depth = network.eccentricity(source) if n > 1 else 0
        round_budget = max(
            8 * ladder_len, budget_scale * (depth + 1) * ladder_len
        )

    def probs(round_no: int, inf: np.ndarray) -> np.ndarray:
        rung = round_no % ladder_len
        return np.where(inf, 2.0 ** (-rung), 0.0)

    return _flood_batch(
        "DecaySweep(fast)", network, source, rngs, probs, round_budget,
        lambda b: {"ladder_len": ladder_len}, medium,
    )


def fast_decay_broadcast(
    network: Network,
    source: int,
    rng: Optional[np.random.Generator] = None,
    *,
    ladder_len: Optional[int] = None,
    round_budget: Optional[int] = None,
    budget_scale: int = 96,
    medium: Optional[Medium] = None,
) -> BroadcastOutcome:
    """Vectorized Decay sweep (the granularity-sensitive baseline)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_decay_broadcast_batch(
        network, source, [rng],
        ladder_len=ladder_len, round_budget=round_budget,
        budget_scale=budget_scale, medium=medium,
    )[0]


def fast_local_broadcast_global_batch(
    network: Network,
    source: int,
    rngs: Rngs,
    *,
    round_budget: Optional[int] = None,
    budget_slack: int = 8,
    phase_scale: float = 2.0,
    medium: Optional[Medium] = None,
) -> list[BroadcastOutcome]:
    """Batched local-broadcast composition (``Delta``-paying baseline)."""
    _check_source(network, source)
    n = network.size
    delta = max(1, network.max_degree)
    q = 1.0 / (2.0 * delta)
    logn = log2ceil(n)
    phase_len = max(1, int(phase_scale * (delta + logn) * logn))
    if round_budget is None:
        depth = network.eccentricity(source) if n > 1 else 0
        round_budget = (2 * depth + budget_slack) * phase_len

    def probs(_round_no: int, inf: np.ndarray) -> np.ndarray:
        return np.where(inf, q, 0.0)

    return _flood_batch(
        "LocalBroadcastGlobal(fast)", network, source, rngs, probs,
        round_budget,
        lambda b: {"max_degree": delta, "phase_length": phase_len},
        medium,
    )


def fast_local_broadcast_global(
    network: Network,
    source: int,
    rng: Optional[np.random.Generator] = None,
    *,
    round_budget: Optional[int] = None,
    budget_slack: int = 8,
    phase_scale: float = 2.0,
    medium: Optional[Medium] = None,
) -> BroadcastOutcome:
    """Vectorized local-broadcast composition (``Delta``-paying baseline)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_local_broadcast_global_batch(
        network, source, [rng],
        round_budget=round_budget, budget_slack=budget_slack,
        phase_scale=phase_scale, medium=medium,
    )[0]
