"""Per-flow queued multihop forwarding under a MAC (DESIGN.md §11.6).

One :func:`run_traffic` call plays ``rounds`` slots of a traffic
workload on one network: seeded arrival processes inject packets into
per-station FIFO queues, heads-of-line contend for the medium through a
:class:`~repro.mac.MacModel`, the SINR resolver decides which next hop
actually heard its predecessor, and an optional
:class:`~repro.mac.RateTable` lets high-margin slots carry several
packets.  Everything is deterministic given ``(network, flows, rounds,
rng, mac, rate_table)`` — arrivals are drawn up front in flow order with
fixed stream consumption, queues advance in station-index order, and MAC
arbitration is round-keyed — so a workload replays bit-for-bit across
``jobs=1`` / ``jobs=N`` grid execution and the service path.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.outcome import check_stations
from repro.errors import ProtocolError
from repro.identity import Identified
from repro.mac import MacModel, RateTable, SlottedAloha
from repro.network.network import Network
from repro.sinr.reception import resolve_at
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.metrics import jain_index


@dataclass(frozen=True)
class Flow(Identified):
    """One unidirectional traffic demand: ``src`` to ``dst``.

    Packets follow the shortest path in ``Network.graph`` (ties broken
    by networkx's BFS order, deterministic for a fixed network); the
    arrival process decides how many packets enter ``src``'s queue each
    round.  The dataclass's own ``repr``, equality and hashing take
    precedence over :class:`~repro.identity.Identified`'s; the base
    adds :meth:`fingerprint`.
    """

    src: int
    dst: int
    arrivals: ArrivalProcess

    def identity(self) -> tuple:
        """Hashable tuple of primitives pinning the flow."""
        return ("flow", self.src, self.dst, self.arrivals.identity())


@dataclass
class FlowStats:
    """Outcome counters of one flow after a :func:`run_traffic` run."""

    flow: Flow
    path: tuple
    injected: int = 0
    delivered: int = 0
    dropped: int = 0
    queued: int = 0
    collisions: int = 0
    latencies: list = field(default_factory=list)

    def throughput(self, rounds: int) -> float:
        """Delivered packets per round."""
        return self.delivered / rounds if rounds else 0.0

    def mean_latency(self) -> float:
        """Mean slots from injection to delivery (NaN if none arrived)."""
        return (
            float(np.mean(self.latencies)) if self.latencies else float("nan")
        )

    def conserved(self) -> bool:
        """Flow conservation: injected == delivered + queued + dropped."""
        return self.injected == self.delivered + self.queued + self.dropped


@dataclass
class TrafficResult:
    """Aggregate outcome of one :func:`run_traffic` workload run."""

    flows: list
    rounds: int
    transmissions: int
    collisions: int

    def throughputs(self) -> list:
        """Per-flow delivered packets per round, in flow order."""
        return [fs.throughput(self.rounds) for fs in self.flows]

    def jain(self) -> float:
        """Jain fairness index of the per-flow throughputs."""
        return jain_index(self.throughputs())

    def conservation_ok(self) -> bool:
        """Whether every flow's packets are fully accounted for."""
        return all(fs.conserved() for fs in self.flows)

    def delivered(self) -> int:
        """Total packets delivered across all flows."""
        return sum(fs.delivered for fs in self.flows)

    def mean_latency(self) -> float:
        """Mean delivery latency over all delivered packets (NaN if none)."""
        lats = [lat for fs in self.flows for lat in fs.latencies]
        return float(np.mean(lats)) if lats else float("nan")

    def collision_rate(self) -> float:
        """Fraction of transmissions that failed to reach their next hop."""
        return (
            self.collisions / self.transmissions if self.transmissions else 0.0
        )


def _is_count(value) -> bool:
    """Whether ``value`` is an integer (Python or numpy), not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _flow_paths(network: Network, flows: Sequence[Flow]) -> list:
    """Shortest ``Network.graph`` path per flow (ProtocolError if none).

    Every endpoint is checked (:func:`~repro.core.outcome.check_stations`)
    before the graph is searched: a float endpoint would name a graph
    node by equality and a bool one would index the MAC's intents as a
    mask.
    """
    import networkx as nx

    for k, flow in enumerate(flows):
        check_stations(
            network.size, [flow.src, flow.dst], f"flow {k} endpoints"
        )
    graph = network.graph
    paths = []
    for k, flow in enumerate(flows):
        if flow.src == flow.dst:
            raise ProtocolError(f"flow {k} has src == dst == {flow.src}")
        try:
            path = nx.shortest_path(graph, flow.src, flow.dst)
        except nx.NetworkXNoPath:
            raise ProtocolError(
                f"flow {k} ({flow.src} -> {flow.dst}) has no path in the "
                "communication graph"
            ) from None
        paths.append(tuple(int(v) for v in path))
    return paths


def run_traffic(
    network: Network,
    flows: Sequence[Flow],
    rounds: int,
    rng: np.random.Generator,
    *,
    mac: Optional[MacModel] = None,
    rate_table: Optional[RateTable] = None,
    queue_cap: int = 64,
) -> TrafficResult:
    """Play one seeded traffic workload and account every packet.

    Each slot: arrivals enter their flow's source queue (drops over
    ``queue_cap`` are counted, never silent); every station with a
    non-empty queue intends to transmit its head-of-line packet; the
    MAC filters intents into actual transmitters; the SINR resolver
    decides, per transmitter, whether its packet's next hop heard *it*
    (hearing anyone else is a failed slot for that packet — counted as
    a collision); delivered packets record their latency, forwarded
    packets join the next hop's queue at the end of the slot in
    transmitter-index order.  With a ``rate_table``, a successful slot
    carries up to ``rate_for(SINR at the next hop)`` consecutive
    head-of-line packets sharing that next hop.

    :param flows: traffic demands; packets follow each flow's shortest
        path, computed once on the initial network.
    :param rounds: number of slots to play (an integer, not a bool).
    :param rng: arrival randomness — all flows' arrival streams are
        drawn from it up front, in flow order, with fixed per-flow
        stream consumption (DESIGN.md §11.6).
    :param mac: medium-access model (default :class:`~repro.mac.SlottedAloha`
        — every head-of-line packet contends every slot).
    :param rate_table: optional SINR-thresholded rate adaptation.
    :param queue_cap: per-station queue bound (an integer, not a bool);
        arrivals and forwards beyond it are dropped (and counted
        against their flow).
    :returns: per-flow and aggregate accounting; see
        :class:`TrafficResult`.
    """
    if not _is_count(rounds) or rounds < 1:
        raise ProtocolError(f"rounds must be an integer >= 1, got {rounds!r}")
    if not _is_count(queue_cap) or queue_cap < 1:
        raise ProtocolError(
            f"queue_cap must be an integer >= 1, got {queue_cap!r}"
        )
    if not flows:
        raise ProtocolError("need at least one flow")
    if mac is None:
        mac = SlottedAloha()
    n = network.size
    paths = _flow_paths(network, flows)
    # next_hop[k][v]: flow k's successor of station v along its path.
    next_hop = [
        {path[i]: path[i + 1] for i in range(len(path) - 1)}
        for path in paths
    ]
    arrival_counts = [
        flow.arrivals.draw(rng, rounds).tolist() for flow in flows
    ]
    stats = [
        FlowStats(flow=flow, path=paths[k])
        for k, flow in enumerate(flows)
    ]

    session = mac.session(network)
    gain = network.gain_operator
    noise = network.params.noise
    beta = network.params.beta

    # Queues exist only for stations a packet has reached; ``backlog``
    # holds those with a packet waiting, so a slot's bookkeeping scales
    # with the backlog instead of with n (DESIGN.md §11.6).
    queues: dict = defaultdict(deque)  # entries: (flow_id, inject_round)
    backlog: set = set()

    def enqueue(station: int, k: int, t0: int) -> None:
        queue = queues[station]
        if len(queue) >= queue_cap:
            stats[k].dropped += 1
        else:
            queue.append((k, t0))
            backlog.add(station)

    transmissions = 0
    collisions = 0
    for t in range(rounds):
        for k in range(len(flows)):
            for _ in range(arrival_counts[k][t]):
                stats[k].injected += 1
                enqueue(flows[k].src, k, t)
        if not backlog:
            continue
        intents = np.zeros((1, n), dtype=bool)
        intents[0, list(backlog)] = True
        tx_mask = (
            np.asarray(session.transmit_mask(t, intents, network), dtype=bool)
            & intents
        )[0]
        transmitters = np.flatnonzero(tx_mask).tolist()
        if not transmitters:
            continue
        heads = [queues[v][0][0] for v in transmitters]
        hops = [next_hop[k][v] for k, v in zip(heads, transmitters)]
        heard_from, sinr = resolve_at(gain, transmitters, hops, noise, beta)
        forwards = []  # (dest_station, flow_id, inject_round)
        for v, k, hop, sender, link_sinr in zip(
            transmitters, heads, hops, heard_from.tolist(), sinr.tolist()
        ):
            transmissions += 1
            if sender != v:
                # The next hop heard someone else or nothing: the slot
                # is wasted for this packet (hidden-node collisions and
                # lost arbitration ties both land here).
                collisions += 1
                stats[k].collisions += 1
                continue
            budget = (
                rate_table.rate_for(link_sinr)
                if rate_table is not None
                else 1
            )
            queue = queues[v]
            while budget > 0 and queue:
                k, t0 = queue[0]
                if next_hop[k][v] != hop:
                    break  # only packets riding the same link this slot
                queue.popleft()
                budget -= 1
                if hop == flows[k].dst:
                    stats[k].delivered += 1
                    stats[k].latencies.append(t - t0 + 1)
                else:
                    forwards.append((hop, k, t0))
            if not queue:
                backlog.discard(v)
        for hop, k, t0 in forwards:
            enqueue(hop, k, t0)

    for queue in queues.values():
        for k, _t0 in queue:
            stats[k].queued += 1
    return TrafficResult(
        flows=stats,
        rounds=rounds,
        transmissions=transmissions,
        collisions=collisions,
    )
