"""Local broadcast on top of the coloring (extension).

The paper positions its coloring as "of independent interest and potential
applicability to other communication tasks" (abstract) and discusses the
*local broadcast* problem — every station must deliver its own message to
all its communication-graph neighbours — as the classic building block
([9], [11]).  This module implements exactly that application: after
``StabilizeProbability``, every station transmits its own message with its
color-scaled probability; Lemma 1 keeps per-round interference bounded and
Lemma 2 guarantees every neighbourhood keeps hearing *someone*, so each
station drains its neighbour list at a steady rate.

Unlike global broadcast (one shared message), local broadcast must deliver
``deg(v)`` distinct messages into each station, so its time has an
unavoidable ``Delta`` factor; the point of the coloring is to avoid paying
more than ``O((Delta + log n) log n)``-style costs without knowing the
density — the same adaptivity the global algorithms exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.constants import ProtocolConstants, log2ceil
from repro.errors import ProtocolError
from repro.fastsim.coloring import fast_coloring_batch
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER, resolve_reception


@dataclass
class LocalBroadcastResult:
    """Outcome of a local-broadcast run.

    :param success: every station heard every neighbour's message.
    :param completion_round: round at which the last missing (neighbour →
        station) delivery happened (``-1`` if incomplete).
    :param total_rounds: rounds executed (coloring + dissemination).
    :param deliveries: boolean matrix; ``deliveries[v, u]`` is True when
        ``u`` has received ``v``'s message.
    :param coloring_rounds: rounds spent in ``StabilizeProbability``.
    """

    success: bool
    completion_round: int
    total_rounds: int
    deliveries: np.ndarray
    coloring_rounds: int

    def missing_pairs(self) -> list[tuple[int, int]]:
        """(sender, receiver) neighbour pairs still undelivered."""
        senders, receivers = np.nonzero(~self.deliveries)
        return list(zip(senders.tolist(), receivers.tolist()))


def run_local_broadcast(
    network: Network,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    round_budget: Optional[int] = None,
) -> LocalBroadcastResult:
    """Deliver every station's message to all its neighbours.

    :param round_budget: dissemination budget after the coloring; default
        ``24 * (Delta + log n) * log n`` — the shape the paper
        quotes for local-broadcast costs (Sect. 1.2).
    :returns: per-pair delivery matrix and completion statistics.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    if n < 1:
        raise ProtocolError("local broadcast needs at least one station")

    coloring = fast_coloring_batch(network, constants, [rng]).replication(0)
    colors = np.where(np.isnan(coloring.colors), 0.0, coloring.colors)
    probs = constants.dissemination_prob(colors, n)

    # Deliveries required: adjacency of the communication graph.
    adjacency = network.distances <= network.params.comm_radius
    np.fill_diagonal(adjacency, False)
    deliveries = np.zeros((n, n), dtype=bool)
    # Pairs that are not neighbours count as trivially done.
    pending = int(adjacency.sum())

    if round_budget is None:
        delta = max(1, network.max_degree)
        logn = log2ceil(n)
        round_budget = 24 * (delta + logn) * logn

    gains = network.gains
    noise = network.params.noise
    beta = network.params.beta
    completion = -1
    round_no = coloring.rounds
    end = round_no + round_budget
    while pending > 0 and round_no < end:
        tx = np.flatnonzero(rng.random(n) < probs)
        if tx.size:
            heard_from = resolve_reception(gains, tx, noise, beta)
            receivers = np.flatnonzero(heard_from != NO_SENDER)
            for u in receivers:
                v = int(heard_from[u])
                if adjacency[v, u] and not deliveries[v, u]:
                    deliveries[v, u] = True
                    pending -= 1
                    completion = round_no
        round_no += 1

    # Report deliveries over neighbour pairs only (non-pairs are True).
    deliveries_full = deliveries | ~adjacency
    np.fill_diagonal(deliveries_full, True)
    return LocalBroadcastResult(
        success=pending == 0,
        completion_round=completion if pending == 0 else -1,
        total_rounds=round_no,
        deliveries=deliveries_full,
        coloring_rounds=coloring.rounds,
    )
