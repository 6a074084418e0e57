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
* **the round medium** — :class:`Medium`, the one place transmit
  intents become transmissions and receptions: per round it moves the
  deployment one mobility step, lets the MAC remove intents, and
  resolves Eq. (1) on the current network; a static medium resolves a
  block of rounds in one call (DESIGN.md §7.2, §11);
* **the batched dissemination loop** — the flooding primitive under all
  broadcast-style protocols, advancing every replication's informed set
  per round and retiring replications independently as they complete.

The equivalence contract (DESIGN.md §6): every replication's arithmetic
involves only its own ``(n,)`` slice — reductions run along station axes,
never across the batch — so outputs are bitwise independent of the batch
size.  A single run is a kernel call with a one-element generator list,
which makes "batched sweep == loop of single runs" an identity checked
by the hypothesis suite, not a tolerance.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.deploy.mobility import MobilityModel
from repro.errors import ProtocolError
from repro.mac import MacModel
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


class Medium:
    """The shared channel of one kernel run (DESIGN.md §7.2, §11).

    Every fastsim round goes through :meth:`resolve`: the deployment
    takes one mobility step, the MAC removes intents, and Eq. (1)
    decides who hears whom on the current network.  A kernel whose
    transmit decisions for a block of rounds are fixed in advance (a
    coloring test) hands the whole block to one call.  One medium serves
    every stage of a multi-stage kernel, so a run rides one trajectory
    and one MAC session; all replications of a batch share both — the
    *environment* moves and arbitrates, replications differ only in
    protocol randomness.

    :param network: the deployment the run starts on; the trajectory
        starts at its coordinates.
    :param mobility: optional :class:`~repro.deploy.mobility.MobilityModel`;
        ``None`` keeps the deployment static.
    :param mac: optional :class:`~repro.mac.MacModel`; its session is
        built from the network of the first resolved round (after that
        round's mobility step) and held for the run.
    """

    def __init__(
        self,
        network: Network,
        mobility: Optional[MobilityModel] = None,
        mac: Optional[MacModel] = None,
    ):
        self.network = network
        self._mac = mac
        self._trajectory = (
            None if mobility is None else mobility.session(network.coords)
        )
        self._steps = 0
        self._session = None

    def step(self) -> Network:
        """Move the deployment one mobility step; return the network."""
        if self._trajectory is not None:
            disp = self._trajectory.displacements(
                self.network.coords, self._steps
            )
            self.network = self.network.advance(disp)
            self._steps += 1
        return self.network

    def resolve(
        self, first_round: int, intents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run ``R`` consecutive rounds for ``(R, B, n)`` transmit ``intents``.

        Round ``r`` of the block is the kernel's round ``first_round +
        r``, which keys the MAC's round-keyed draws (DESIGN.md §11.2).
        A static medium arbitrates each round under its own number and
        resolves the whole block in one call — rows are independent of
        the block they ride in (DESIGN.md §6.2); a moving medium steps
        and resolves round by round, since each round has its own
        network.  A ``(B, n)`` array is one round (``R = 1``).

        :returns: ``(transmitted, heard_from)``, both shaped like
            ``intents`` — the intents the MAC let through (MACs only
            remove) and the heard sender per station
            (:data:`NO_SENDER` where none).
        """
        intents = np.asarray(intents, dtype=bool)
        if intents.ndim == 2:
            transmitted, heard_from = self.resolve(first_round, intents[None])
            return transmitted[0], heard_from[0]
        if self._trajectory is not None and len(intents) > 1:
            rounds = [
                self.resolve(first_round + r, intents[r:r + 1])
                for r in range(len(intents))
            ]
            return tuple(np.concatenate(parts) for parts in zip(*rounds))
        network = self.step()
        transmitted = intents
        if self._mac is not None:
            if self._session is None:
                self._session = self._mac.session(network)
            transmitted = np.stack([
                round_intents & np.asarray(
                    self._session.transmit_mask(
                        first_round + r, round_intents, network
                    ),
                    dtype=bool,
                )
                for r, round_intents in enumerate(intents)
            ])
        params = network.params
        heard_from = resolve_reception_batch(
            network.gain_operator, transmitted, params.noise, params.beta
        )
        return transmitted, heard_from


def dissemination_loop_batch(
    medium: Medium,
    rngs: Sequence[np.random.Generator],
    informed: np.ndarray,
    informed_round: np.ndarray,
    prob_of_round: Callable[[int, np.ndarray], np.ndarray],
    start_round: int,
    budget: int,
    enabled: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched flooding until every replication informs everyone or times out.

    The ``B = 1`` case reproduces the classic single-instance loop: run
    rounds from ``start_round``, stop as soon as the informed set covers
    the network, return the first unused round number.  Replications
    retire independently; retired (and disabled) replications neither
    transmit nor consume randomness.

    :param medium: the run's :class:`Medium`; every round resolves
        through it.
    :param informed: ``(B, n)`` boolean mask, updated in place.
    :param informed_round: ``(B, n)`` int array, updated in place.
    :param prob_of_round: maps ``(round_no, informed)`` to the ``(B, n)``
        transmission-probability array.
    :param enabled: optional ``(B,)`` mask of replications that run at
        all (disabled ones are reported as stopping at ``start_round``).
    :returns: ``(B,)`` per-replication first unused round number.
    """
    B, n = informed.shape
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
        _, heard_from = medium.resolve(
            round_no, running[:, None] & (buffer[:, k, :] < probs)
        )
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
