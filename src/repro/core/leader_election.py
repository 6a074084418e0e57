"""Leader election (paper Sect. 5).

All stations start simultaneously, draw IDs independently and uniformly
from ``{1, ..., n^3}`` (unique whp by a birthday bound), and run consensus
on the IDs; the station holding the agreed (minimum) ID is the leader.
Total time ``O(D log^2 n + log^3 n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.consensus import run_consensus
from repro.core.constants import ProtocolConstants
from repro.errors import ProtocolError
from repro.network.network import Network


@dataclass
class LeaderElectionResult:
    """Outcome of a leader-election run.

    :param leader: index of the elected station, or ``-1`` if the run
        failed (no agreement / no station holds the agreed ID).
    :param ids: the random IDs drawn by the stations.
    :param agreed_id: the ID all stations agreed on.
    :param unique: exactly one station holds the agreed ID.
    :param total_rounds: end-to-end rounds.
    """

    leader: int
    ids: np.ndarray
    agreed_id: int
    unique: bool
    total_rounds: int

    @property
    def success(self) -> bool:
        """Whether a unique leader was elected."""
        return self.leader >= 0 and self.unique

    @classmethod
    def of(cls, ids: np.ndarray, consensus) -> "LeaderElectionResult":
        """The election a consensus on ``ids`` decided.

        The leader is the one station holding the agreed ID; with no
        agreement, or an ID held by none or by several, there is none
        (``-1``).
        """
        agreed = int(consensus.decided[0]) if consensus.agreed else -1
        holders = np.flatnonzero(ids == agreed) if agreed >= 0 else []
        unique = len(holders) == 1
        leader = int(holders[0]) if unique else -1
        return cls(leader, ids, agreed, unique, consensus.total_rounds)


def id_space(n: int) -> int:
    """Size of the ID space ``{1..n^3}`` (at least 2) of ``n`` stations.

    :raises ProtocolError: if ``n < 1``.
    """
    if n < 1:
        raise ProtocolError("leader election needs at least one station")
    return max(2, n ** 3)


def run_leader_election(
    network: Network,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    box_budget: Optional[int] = None,
) -> LeaderElectionResult:
    """Elect a unique leader whp.

    IDs are drawn from ``{1..n^3}``; the consensus message space is
    ``x = n^3`` so the protocol runs ``ceil(log2(n^3 + 1)) ~ 3 log n``
    bit boxes — the source of the ``log^3 n`` additive term.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = id_space(network.size)
    ids = rng.integers(1, space + 1, size=network.size)
    return LeaderElectionResult.of(ids, run_consensus(
        network,
        ids.tolist(),
        x_max=space,
        constants=constants,
        rng=rng,
        box_budget=box_budget,
    ))
