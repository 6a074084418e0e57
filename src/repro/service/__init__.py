"""The resident-network query service (DESIGN.md §8).

Every entry point before this package was a batch CLI run that paid the
full network-build cost per invocation and threw the hot state away.
This package is the long-running alternative: an asyncio daemon
(``python -m repro.service``) holds a pool of resident
:class:`~repro.network.network.Network` objects — sparse CSR backends,
compiled kernels, lazy caches all warm — and serves SINR / connectivity
/ ball / mobility-advance queries on a unix or TCP socket, one typed
frame per message: a JSON header plus raw array buffers
(:mod:`repro.service.protocol`).

SINR queries are served by the set resolver
(:func:`repro.sinr.reception.resolve_reception_many`), whose cost is
proportional to the query rather than the deployment, through the
**batch coalescer** (:class:`~repro.service.coalescer.BatchCoalescer`):
queries arriving within a short window — or while a kernel call is
already in flight — against the same network share one resolver call,
and the resolver's fold contract makes every answer bitwise identical
to a dedicated single-query call.  The resolver handles every set of
a call in one vectorized pass, so a coalesced batch pays roughly one
query's numpy dispatch rather than one per query.  A ``sinr`` request
whose transmitters are not a flat list of integer indices, or whose
``noise``/``beta`` break :class:`~repro.sinr.params.SINRParameters`'
rules, is refused with a :class:`~repro.service.protocol.ServiceError`.
``benchmarks/bench_service.py`` gates this serving path at >= 5x the
pre-coalescer model (one masked ``B = 1`` batched-resolver call per
query) and records the solo server's throughput (``max_batch=1,
window=0``) beside the coalesced one.

Grid sweeps become clients of the same pool through
``run_grid(workers=[address, ...])`` (:mod:`repro.fastsim.grid`): the
daemon rebuilds each deployment from its
:meth:`~repro.network.network.Network.descriptor`, and sweep results
flow through the ordinary content-addressed result cache, whose keys
are shared with CLI runs by construction.  Every pickle payload on the
wire carries a SHA-256 checksum; one without it is rejected
(:class:`~repro.service.protocol.ServiceCorruptPayload`).
"""

from repro.service.client import ServiceClient, connect
from repro.service.coalescer import BatchCoalescer, CoalescerStats
from repro.service.pool import NetworkPool
from repro.service.protocol import (
    ServiceConnectionError,
    ServiceCorruptPayload,
    ServiceError,
    ServiceTimeout,
)
from repro.service.server import ServiceServer

__all__ = [
    "BatchCoalescer",
    "CoalescerStats",
    "NetworkPool",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceCorruptPayload",
    "ServiceError",
    "ServiceServer",
    "ServiceTimeout",
    "connect",
]
