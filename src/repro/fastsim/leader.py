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
from repro.core.leader_election import LeaderElectionResult, id_space
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
    space = id_space(network.size)
    ids = np.stack(
        [rng.integers(1, space + 1, size=network.size) for rng in rngs]
    )
    results = fast_consensus_batch(
        network, ids, space, constants, rngs, box_budget=box_budget,
        medium=medium,
    )
    return [
        LeaderElectionResult.of(ids[b], result)
        for b, result in enumerate(results)
    ]

