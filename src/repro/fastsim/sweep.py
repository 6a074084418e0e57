"""The batched multi-seed sweep engine.

Every experiment in this repository is a statement about a *distribution*
of round counts over random replications, so the replication loop — not
any single run — is the dominant cost of the e01–e12 sweeps.  This module
runs ``B`` independent replications of one protocol on one deployment in
a single set of numpy operations:

* replication ``b`` draws from its own generator, spawned from the master
  seed by :func:`repro.fastsim.engine.spawn_rngs` as in the experiments'
  sequential trial loops, so a batched sweep is *sample-for-sample
  identical* to a sequential loop of single-instance fast runs over the
  same seeds (the hypothesis suite asserts exact equality, not
  statistical closeness);
* the channel is resolved for all replications at once, through one
  :class:`repro.fastsim.engine.Medium` per sweep;
* per-replication headline numbers land in a :class:`SweepResult`.

Every sweepable kind has a batched kernel, so experiments route every
replication loop through :func:`run_sweep` unconditionally; the
reference simulators in :mod:`repro.core` and :mod:`repro.sim` are what
the kernels are tested against, not a dispatch target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.errors import ProtocolError
from repro.fastsim.broadcast import (
    fast_decay_broadcast_batch,
    fast_local_broadcast_global_batch,
    fast_nospont_broadcast_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
)
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.consensus import fast_consensus_batch
from repro.fastsim.leader import fast_leader_election_batch
from repro.fastsim.engine import Medium, spawn_rngs
from repro.fastsim.wakeup import (
    fast_adhoc_wakeup_batch,
    fast_colored_wakeup_batch,
)
from repro.network.network import Network


@dataclass
class SweepResult:
    """Aggregated outcome of one batched multi-seed sweep.

    :param kind: protocol kind the sweep ran.
    :param seed: master seed the replication generators were spawned from.
    :param rounds: ``(B,)`` per-replication headline round count
        (``nan`` where the replication failed).
    :param success: ``(B,)`` per-replication success flags.
    :param outcomes: per-replication rich results (protocol-specific).
    """

    kind: str
    seed: "int | np.random.SeedSequence"
    rounds: np.ndarray
    success: np.ndarray
    outcomes: list = field(default_factory=list)

    @property
    def n_replications(self) -> int:
        """Number of replications the sweep ran."""
        return self.rounds.shape[0]

    def success_rate(self) -> float:
        """Fraction of replications that succeeded."""
        return float(np.mean(self.success))

    def successful_rounds(self) -> np.ndarray:
        """Round counts of the successful replications only."""
        return self.rounds[self.success]

    def mean_rounds(self) -> float:
        """Mean headline rounds over successful replications."""
        good = self.successful_rounds()
        return float(np.mean(good)) if good.size else float("nan")


def _broadcast_headline(outcome) -> tuple[float, bool]:
    rounds = (
        float(outcome.completion_round)
        if outcome.success
        else float("nan")
    )
    return rounds, bool(outcome.success)


def _consensus_headline(result) -> tuple[float, bool]:
    return float(result.total_rounds), bool(result.agreed and result.correct)


def _leader_headline(result) -> tuple[float, bool]:
    return float(result.total_rounds), bool(result.success)


def _coloring_headline(result) -> tuple[float, bool]:
    return float(result.rounds), True


def _traffic_headline(result) -> tuple[float, bool]:
    # Headline is mean delivery latency; a replication succeeds when its
    # accounting closes and at least one packet arrived.
    return (
        result.mean_latency(),
        bool(result.conservation_ok() and result.delivered() > 0),
    )


def _batch_traffic(network, constants, rngs, **kwargs):
    from repro.traffic.engine import run_traffic

    # Sequential per-replication runs: the traffic engine is a queueing
    # simulation, so "batched == sequential" is definitional here —
    # replication b consumes only rngs[b] and a fresh MAC session.
    return [run_traffic(network, rng=rng, **kwargs) for rng in rngs]


def _batch_coloring(network, constants, rngs, **kwargs):
    batch = fast_coloring_batch(network, constants, rngs, **kwargs)
    return [batch.replication(b) for b in range(batch.batch_size)]


def _batch_consensus(network, constants, rngs, *, x_max, values=None,
                     **kwargs):
    if values is None:
        # Mirrors the experiment loops: each replication draws its value
        # vector from its own generator before running the protocol.
        values = np.stack(
            [rng.integers(0, x_max + 1, size=network.size) for rng in rngs]
        )
    return fast_consensus_batch(
        network, values, x_max, constants, rngs, **kwargs
    )


@dataclass(frozen=True)
class _SweepKind:
    """One sweepable protocol: batched kernel + headline extractor.

    ``takes_mac`` marks kinds whose runner accepts a
    :class:`repro.mac.MacModel` directly as a ``mac=`` argument (the
    traffic engine builds its own sessions, on a static deployment);
    other kinds receive a :class:`~repro.fastsim.engine.Medium` built
    by :func:`run_sweep`.
    """

    headline: Callable
    batch: Callable
    takes_mac: bool = False


def _source_batch(batch_fn, needs_constants: bool = True):
    def runner(network, constants, rngs, *, source=0, **kwargs):
        if needs_constants:
            return batch_fn(network, source, constants, rngs, **kwargs)
        return batch_fn(network, source, rngs, **kwargs)

    return runner


SWEEP_KINDS: dict[str, _SweepKind] = {
    "coloring": _SweepKind(
        headline=_coloring_headline,
        batch=_batch_coloring,
    ),
    "spont_broadcast": _SweepKind(
        headline=_broadcast_headline,
        batch=_source_batch(fast_spont_broadcast_batch),
    ),
    "nospont_broadcast": _SweepKind(
        headline=_broadcast_headline,
        batch=_source_batch(fast_nospont_broadcast_batch),
    ),
    "uniform_broadcast": _SweepKind(
        headline=_broadcast_headline,
        batch=_source_batch(
            fast_uniform_broadcast_batch, needs_constants=False
        ),
    ),
    "decay_broadcast": _SweepKind(
        headline=_broadcast_headline,
        batch=_source_batch(
            fast_decay_broadcast_batch, needs_constants=False
        ),
    ),
    "local_broadcast": _SweepKind(
        headline=_broadcast_headline,
        batch=_source_batch(
            fast_local_broadcast_global_batch, needs_constants=False
        ),
    ),
    "adhoc_wakeup": _SweepKind(
        headline=_broadcast_headline,
        batch=lambda network, constants, rngs, *, schedule, **kw:
            fast_adhoc_wakeup_batch(network, schedule, constants, rngs, **kw),
    ),
    "colored_wakeup": _SweepKind(
        headline=_broadcast_headline,
        batch=lambda network, constants, rngs, *, initiators, base_colors,
                     **kw:
            fast_colored_wakeup_batch(
                network, initiators, base_colors, constants, rngs, **kw
            ),
    ),
    "consensus": _SweepKind(
        headline=_consensus_headline,
        batch=_batch_consensus,
    ),
    "leader_election": _SweepKind(
        headline=_leader_headline,
        batch=lambda network, constants, rngs, **kw:
            fast_leader_election_batch(network, constants, rngs, **kw),
    ),
    "traffic": _SweepKind(
        headline=_traffic_headline,
        batch=_batch_traffic,
        takes_mac=True,
    ),
}


def sweep_kinds() -> list[str]:
    """Names of the sweepable protocol kinds."""
    return sorted(SWEEP_KINDS)


def run_sweep(
    kind: str,
    network: Network,
    n_replications: int,
    seed: "int | np.random.SeedSequence",
    constants: Optional[ProtocolConstants] = None,
    **kwargs,
) -> SweepResult:
    """Run ``n_replications`` independent replications of one protocol.

    The workhorse of the experiment harness: spawns one generator per
    replication from ``seed`` (:func:`repro.fastsim.engine.spawn_rngs`,
    as the experiments' sequential trial loops do), dispatches to the
    protocol's batched kernel, and aggregates per-replication headline
    numbers.

    :param kind: one of :func:`sweep_kinds`.
    :param kwargs: protocol-specific arguments (``source=...`` for the
        broadcasts, ``schedule=...`` for wake-up, ``x_max=...`` for
        consensus, budget overrides, ...).  ``mobility=`` accepts a
        :class:`repro.deploy.mobility.MobilityModel` and ``mac=`` a
        :class:`repro.mac.MacModel`: the sweep builds one
        :class:`~repro.fastsim.engine.Medium` from them, so every round
        of every replication moves along one shared trajectory and is
        arbitrated by one MAC session (DESIGN.md §7, §11).  The models
        ride in the kwargs, so grid cache keys cover their
        ``identity()`` and dynamic or arbitrated results never collide
        with bare ones.  The ``"traffic"`` kind consumes ``mac=``
        directly, runs on a static deployment (``mobility=`` raises
        :class:`~repro.errors.ProtocolError`), and needs
        ``flows=[...]`` and ``rounds=N`` (see
        :func:`repro.traffic.engine.run_traffic`).
    """
    try:
        spec = SWEEP_KINDS[kind]
    except KeyError:
        raise ProtocolError(
            f"unknown sweep kind {kind!r}; expected one of {sweep_kinds()}"
        ) from None
    if constants is None:
        constants = ProtocolConstants.practical()
    rngs = spawn_rngs(n_replications, seed)

    mobility = kwargs.pop("mobility", None)
    if not spec.takes_mac:
        kwargs["medium"] = Medium(
            network, mobility=mobility, mac=kwargs.pop("mac", None)
        )
    elif mobility is not None:
        raise ProtocolError(
            f"sweep kind {kind!r} runs on a static deployment; "
            "it takes no mobility="
        )

    outcomes = spec.batch(network, constants, rngs, **kwargs)
    rounds = np.empty(n_replications)
    success = np.empty(n_replications, dtype=bool)
    for b, outcome in enumerate(outcomes):
        rounds[b], success[b] = spec.headline(outcome)
    return SweepResult(
        kind=kind,
        seed=seed,
        rounds=rounds,
        success=success,
        outcomes=list(outcomes),
    )
