"""Batched replication substrate for the vectorized protocols.

The sweep engine (:mod:`repro.fastsim.sweep`) runs ``B`` independent
replications of one protocol on one deployment in a single set of numpy
operations.  This module holds the shared machinery:

* **seed-spawned generators** — every replication owns a generator
  spawned from one ``SeedSequence`` by :func:`spawn_rngs`, which the
  experiments' sequential trial loops use too, so a batched sweep and a
  Python loop over single runs see the *same* random streams;
* **blocked Bernoulli draws** — a generator filling ``(rounds, n)`` in
  one call yields the identical stream to ``rounds`` successive
  ``random(n)`` calls, so draws can be batched per protocol block without
  changing any replication's sample path;
* **the batched dissemination loop** — the flooding primitive under all
  broadcast-style protocols, advancing every replication's informed set
  per round and retiring replications independently as they complete.

The equivalence contract (DESIGN.md §6): every replication's arithmetic
involves only its own ``(n,)`` slice — reductions run along station axes,
never across the batch — so outputs are bitwise independent of the batch
size.  The single-instance ``fast_*`` functions are the ``B = 1`` special
case of the batched kernels, which makes "batched sweep == loop of
single runs" an identity checked by the hypothesis suite, not a tolerance.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER, resolve_reception_batch

#: Filler for replications that must not consume randomness this round;
#: transmission tests are strict (``draw < prob``), so a filler of 1.0
#: can never transmit.
NO_DRAW: float = 1.0

#: Rounds of Bernoulli draws buffered per generator call in open-ended
#: loops (amortizes generator-call overhead without changing streams).
DRAW_CHUNK: int = 16


def spawn_rngs(
    n_replications: int, seed: "int | np.random.SeedSequence"
) -> list[np.random.Generator]:
    """One independent generator per replication, spawned from ``seed``.

    The experiments' sequential trial loops draw their generators here
    too, so replication ``b`` of a batched sweep gets the same stream as
    trial ``b`` of a sequential loop with the same master seed.

    ``seed`` may also be a ``numpy.random.SeedSequence`` (the grid layer
    hands every sweep a child sequence spawned from the grid's master
    seed, DESIGN.md §6.3); the sequence must be fresh — spawning from an
    already-spawned sequence yields different children.
    """
    if n_replications < 1:
        raise ProtocolError(
            f"need at least one replication, got {n_replications}"
        )
    seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [np.random.default_rng(child) for child in seq.spawn(n_replications)]


def draw_block(
    rngs: Sequence[np.random.Generator],
    active: np.ndarray,
    rounds: int,
    n: int,
) -> np.ndarray:
    """Uniform draws for ``rounds`` rounds of every *active* replication.

    Inactive replications consume no randomness (their slots are filled
    with :data:`NO_DRAW`), keeping each generator's stream aligned with a
    single-instance run that skipped the same block.

    :returns: ``(B, rounds, n)`` array of draws.
    """
    B = len(rngs)
    out = np.full((B, rounds, n), NO_DRAW)
    for b in np.flatnonzero(active):
        out[b] = rngs[b].random((rounds, n))
    return out


def dissemination_loop_batch(
    network: Network,
    rngs: Sequence[np.random.Generator],
    informed: np.ndarray,
    informed_round: np.ndarray,
    prob_of_round: Callable[[int, np.ndarray], np.ndarray],
    start_round: int,
    budget: int,
    enabled: Optional[np.ndarray] = None,
    network_hook: Optional[Callable[[int, Network], Network]] = None,
    mac_hook=None,
) -> np.ndarray:
    """Batched flooding until every replication informs everyone or times out.

    The ``B = 1`` case reproduces the classic single-instance loop: run
    rounds from ``start_round``, stop as soon as the informed set covers
    the network, return the first unused round number.  Replications
    retire independently; retired (and disabled) replications neither
    transmit nor consume randomness.

    :param informed: ``(B, n)`` boolean mask, updated in place.
    :param informed_round: ``(B, n)`` int array, updated in place.
    :param prob_of_round: maps ``(round_no, informed)`` to the ``(B, n)``
        transmission-probability array.
    :param enabled: optional ``(B,)`` mask of replications that run at
        all (disabled ones are reported as stopping at ``start_round``).
    :param network_hook: optional per-round network callback
        (DESIGN.md §7): called once per round, in order, before
        reception is resolved; the returned network's gain operator
        serves the round, so protocols run over a moving deployment.
        All replications share the one trajectory — the *environment*
        moves, replications differ only in protocol randomness.  Hooks
        must be stateful (own their trajectory, like
        :func:`repro.deploy.mobility.mobility_hook`): multi-stage
        kernels re-pass their static snapshot, not a previous stage's
        result.
    :param mac_hook: optional per-slot transmit-decision callback
        (:data:`repro.mac.TransmitHook`, DESIGN.md §11): called after
        the protocol's transmission intents are computed (and after the
        network hook, so arbitration sees the round's geometry), it
        returns the subset of intents actually transmitting.  MACs only
        *remove* transmitters; protocol state advances on the filtered
        mask, exactly as a real station that deferred would not have
        been heard.
    :returns: ``(B,)`` per-replication first unused round number.
    """
    B, n = informed.shape
    gains = network.gain_operator
    noise = network.params.noise
    beta = network.params.beta
    if enabled is None:
        enabled = np.ones(B, dtype=bool)
    running = enabled & ~informed.all(axis=1)
    last = np.full(B, start_round, dtype=int)
    round_no = start_round
    end = start_round + budget
    buffer = None
    while round_no < end and running.any():
        k = (round_no - start_round) % DRAW_CHUNK
        if k == 0 or buffer is None:
            buffer = draw_block(
                rngs, running, min(DRAW_CHUNK, end - round_no), n
            )
        probs = prob_of_round(round_no, informed)
        tx_mask = running[:, None] & (buffer[:, k, :] < probs)
        if network_hook is not None:
            network = network_hook(round_no, network)
            gains = network.gain_operator
        if mac_hook is not None:
            tx_mask = mac_hook(round_no, tx_mask, network)
        heard_from = resolve_reception_batch(gains, tx_mask, noise, beta)
        newly = (heard_from != NO_SENDER) & ~informed & running[:, None]
        if newly.any():
            informed |= newly
            informed_round[newly] = round_no
        round_no += 1
        just_done = running & informed.all(axis=1)
        if just_done.any():
            last[just_done] = round_no
            running &= ~just_done
    last[running] = end
    return last
