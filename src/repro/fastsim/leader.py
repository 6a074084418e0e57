"""Vectorized leader election (paper Sect. 5).

Mirrors :mod:`repro.core.leader_election`: every station draws an ID
uniformly from ``{1..n^3}`` (unique whp) and the network runs
min-consensus on the IDs; the holder of the agreed minimum is the
leader.  The batched form draws each replication's IDs from its own
seed-spawned generator — in the same stream position as the reference,
so reference and fast runs with one seed see identical ID vectors — and
then pushes all replications through :func:`fast_consensus_batch`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.core.leader_election import LeaderElectionResult
from repro.errors import ProtocolError
from repro.fastsim.consensus import fast_consensus_batch
from repro.fastsim.engine import Medium
from repro.network.network import Network

Rngs = Sequence[np.random.Generator]


def fast_leader_election_batch(
    network: Network,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    box_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[LeaderElectionResult]:
    """Batched leader election over seed-spawned replications.

    ``medium`` (optional, :class:`~repro.fastsim.engine.Medium`) is
    forwarded to the underlying consensus, so every stage of the
    election rides one moving and/or MAC-arbitrated channel
    (DESIGN.md §7.2, §11).
    """
    n = network.size
    if n < 1:
        raise ProtocolError("leader election needs at least one station")
    id_space = max(2, n ** 3)
    ids = np.stack(
        [rng.integers(1, id_space + 1, size=n) for rng in rngs]
    )
    results = fast_consensus_batch(
        network, ids, id_space, constants, rngs, box_budget=box_budget,
        medium=medium,
    )
    elections = []
    for b, result in enumerate(results):
        agreed = int(result.decided[0]) if result.agreed else -1
        holders = (
            np.flatnonzero(ids[b] == agreed) if agreed >= 0 else np.array([])
        )
        leader = int(holders[0]) if holders.size == 1 else -1
        elections.append(
            LeaderElectionResult(
                leader=leader,
                ids=ids[b],
                agreed_id=agreed,
                unique=holders.size == 1,
                total_rounds=result.total_rounds,
            )
        )
    return elections


def fast_leader_election(
    network: Network,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    box_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> LeaderElectionResult:
    """Vectorized leader election (the ``B = 1`` batched case).

    Same signature and result type as
    :func:`repro.core.leader_election.run_leader_election`.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    return fast_leader_election_batch(
        network, constants, [rng], box_budget=box_budget, medium=medium,
    )[0]
