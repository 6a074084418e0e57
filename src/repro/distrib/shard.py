"""The shard coordinator: dispatch grid points across worker daemons.

:func:`run_sharded` takes the pending points of a prepared grid (each
already carrying its fixed seed and cache key) and a list of
:mod:`repro.service` daemon addresses, and drives them to completion:

* **work stealing, not striping** — workers pull the next point from a
  shared queue as they finish, so heterogeneous points and
  heterogeneous hosts balance themselves;
* **per-request timeouts** — a worker that stops answering (host
  crash, partition) fails the request with
  :class:`~repro.service.protocol.ServiceTimeout` instead of hanging
  the sweep;
* **straggler re-dispatch** — a timed-out point goes back on the queue
  for another worker; the *workers'* lease files (DESIGN.md §9.2) keep
  the re-dispatch from recomputing a point its first executor is still
  finishing — the second daemon waits on the lease and serves the
  published result from the bus;
* **retry with backoff on connection loss** — a dropped connection is
  re-established with exponential backoff before the worker is
  declared dead; its queued point is re-dispatched either way;
* **bus recovery** — before dispatching, the coordinator re-checks the
  shared cache: a point another worker (or another coordinator)
  already published is delivered without touching the network;
* **leftovers, not exceptions** — points that exhaust their retries or
  outlive every worker are *returned* so the caller can fall back to
  local execution; completed work is never discarded.

None of this machinery can change results: seeds are fixed at grid
preparation time, each point's sweep is a deterministic function of
its request, and cache publishes are atomic last-write-wins of
identical bytes — so ``workers=N`` output is bitwise identical to
``jobs=1`` regardless of placement, timing, retries or steals.
"""

from __future__ import annotations

import asyncio
import collections
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

#: Multiplier on the per-point re-dispatch budget: a point may bounce
#: between workers (timeouts, deaths) at most ``REQUEUE_FACTOR * W + 2``
#: times before it is handed back as a leftover.
REQUEUE_FACTOR = 2

#: Extra attempts for a point whose execution *failed* on a worker
#: (server-side error) before it becomes a leftover.
RETRIES = 1

#: Connection attempts before a worker is declared dead, with
#: exponential backoff starting at :data:`BACKOFF_S` seconds.
CONNECT_ATTEMPTS = 3
BACKOFF_S = 0.25


@dataclass(frozen=True)
class PointRequest:
    """Everything a worker daemon needs to execute one grid point.

    A verbatim projection of the grid layer's prepared point
    (:class:`repro.fastsim.grid._Prepared`): the ``run_sweep``
    arguments, the deployment's fingerprint and
    :meth:`~repro.network.network.Network.descriptor`, and
    the point's cache key (``None`` for points whose client-side hook
    forbids server-side caching — see ``_run_service`` in
    :mod:`repro.fastsim.grid`).
    """

    index: int
    kind: str
    n_replications: int
    seed: object
    constants: object
    kwargs: dict
    fingerprint: str
    descriptor: dict
    key: Optional[str] = None
    label: str = ""


@dataclass
class ShardStats:
    """Outcome bookkeeping of one :func:`run_sharded` call.

    :param addresses: the worker addresses as given.
    :param points: number of points dispatched.
    :param delivered: points completed through a worker or the bus.
    :param recovered: points recovered from the result bus without a
        request (published by another worker/coordinator mid-run).
    :param retried: request attempts beyond each point's first.
    :param corrupt_replies: replies whose pickle payload failed its
        checksum (:class:`~repro.service.protocol.ServiceCorruptPayload`)
        — never consumed; handled like a dropped connection.
    :param dead: addresses declared dead (unreachable after backoff).
    :param leftover: indices the caller must execute locally.
    :param errors: per-index failure messages (worker-side execution
        errors; connection-level failures are counted, not recorded).
    """

    addresses: list = field(default_factory=list)
    points: int = 0
    delivered: int = 0
    recovered: int = 0
    retried: int = 0
    corrupt_replies: int = 0
    dead: list = field(default_factory=list)
    leftover: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)


async def _connect_backoff(address: str, timeout: Optional[float]):
    """Connect to ``address``, retrying with exponential backoff.

    Returns a connected client or ``None`` after
    :data:`CONNECT_ATTEMPTS` failures — the caller declares the worker
    dead.  ``timeout`` becomes the default of every request on the
    connection (``None`` keeps the client default,
    :data:`repro.service.client.DEFAULT_REQUEST_TIMEOUT`).
    """
    from repro.service.client import connect

    delay = BACKOFF_S
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            return await connect(address, timeout=timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt + 1 == CONNECT_ATTEMPTS:
                return None
            await asyncio.sleep(delay)
            delay *= 2
    return None


def run_sharded(
    requests: Sequence[PointRequest],
    addresses: Sequence[str],
    *,
    on_sweep: Callable[[int, object], None],
    store=None,
    request_timeout: Optional[float] = None,
) -> ShardStats:
    """Execute ``requests`` across the daemons at ``addresses``.

    ``on_sweep(index, sweep)`` fires once per completed point, in
    completion order, from the dispatch loop — the caller handles
    post-hooks, caching and result placement (same contract as the
    fork pool's ``on_result``).  Indices that could not be completed
    remotely come back in :attr:`ShardStats.leftover`; the caller runs
    them locally.  Drives its own event loop — must not be called from
    inside one.

    Integrity is checked at both consumption points: the bus-recovery
    probe goes through :meth:`ResultCache.get`, which quarantines a
    torn foreign publish and reports a miss (the point is simply
    dispatched), and a worker reply whose payload checksum fails
    (:class:`~repro.service.protocol.ServiceCorruptPayload`) is
    counted, never consumed, and re-dispatched like a transport
    failure.

    :param store: optional :class:`~repro.fastsim.cache.ResultCache`
        re-checked before each dispatch (the bus-recovery path).
    :param request_timeout: per-request timeout in seconds (``None``
        uses the client default,
        :data:`repro.service.client.DEFAULT_REQUEST_TIMEOUT`).
    """
    return asyncio.run(
        _run_sharded_async(
            list(requests), list(addresses), on_sweep=on_sweep,
            store=store, request_timeout=request_timeout,
        )
    )


async def _run_sharded_async(
    requests: "list[PointRequest]",
    addresses: "list[str]",
    *,
    on_sweep,
    store,
    request_timeout,
) -> ShardStats:
    """The coordinator event loop (see :func:`run_sharded`)."""
    from repro.service.protocol import (
        ServiceConnectionError,
        ServiceCorruptPayload,
        ServiceError,
        ServiceTimeout,
    )

    stats = ShardStats(addresses=list(addresses), points=len(requests))
    queue: "collections.deque[PointRequest]" = collections.deque(requests)
    delivered: set = set()
    failures: dict = collections.defaultdict(int)
    requeues: dict = collections.defaultdict(int)
    max_requeues = REQUEUE_FACTOR * len(addresses) + 2

    def deliver(req: PointRequest, sweep) -> None:
        if req.index in delivered:  # pragma: no cover - defensive
            return
        delivered.add(req.index)
        stats.delivered += 1
        on_sweep(req.index, sweep)

    async def bus_hit(req: PointRequest):
        """The bus-recovery probe: another worker may have published."""
        if store is None or req.key is None:
            return None
        return await asyncio.to_thread(store.get, req.key)

    def requeue(req: PointRequest) -> None:
        """Put a point back for another worker, budget permitting."""
        requeues[req.index] += 1
        if requeues[req.index] > max_requeues:
            stats.errors.setdefault(req.index, []).append(
                f"re-dispatch budget exhausted ({max_requeues})"
            )
        else:
            queue.append(req)

    async def attempt(client, req: PointRequest) -> None:
        """One dispatch of one point; raises on transport trouble."""
        hit = await bus_hit(req)
        if hit is not None:
            sweep, _extras = hit
            stats.recovered += 1
            deliver(req, sweep)
            return
        reply = await client.sweep(
            req.kind,
            req.n_replications,
            req.seed,
            net=req.fingerprint,
            descriptor=req.descriptor,
            constants=req.constants,
            kwargs=req.kwargs,
            key=req.key,
        )
        deliver(req, reply["sweep"])

    async def worker_loop(address: str) -> None:
        client = await _connect_backoff(address, request_timeout)
        if client is None:
            stats.dead.append(address)
            return
        try:
            while queue:
                req = queue.popleft()
                if req.index in delivered:  # pragma: no cover - defensive
                    continue
                try:
                    await attempt(client, req)
                except ServiceTimeout:
                    # The worker may be computing still (straggler) or
                    # dead without closing the socket; either way the
                    # point goes to someone else — the worker-side
                    # lease keeps a straggler's eventual publish
                    # authoritative and the re-dispatch cheap.
                    stats.retried += 1
                    requeue(req)
                except (
                    ServiceCorruptPayload, ServiceConnectionError,
                    ConnectionError, OSError,
                ) as exc:
                    # The connection dropped, or the worker answered
                    # with damaged payload bytes (bit-rot, a mangled
                    # stream, injected corruption) that must never be
                    # consumed.  Either way the stream state is
                    # suspect: drop it, reconnect, re-dispatch the point.
                    if isinstance(exc, ServiceCorruptPayload):
                        stats.corrupt_replies += 1
                    stats.retried += 1
                    requeue(req)
                    await client.aclose()
                    client = await _connect_backoff(address, request_timeout)
                    if client is None:
                        stats.dead.append(f"{address} ({exc})")
                        return
                except ServiceError as exc:
                    # The worker is healthy and *rejected or failed* the
                    # point: an execution error, not a transport one.
                    failures[req.index] += 1
                    stats.errors.setdefault(req.index, []).append(str(exc))
                    if failures[req.index] <= RETRIES:
                        stats.retried += 1
                        queue.append(req)
                    # else: leftover — the local fallback's problem.
        finally:
            if client is not None:
                await client.aclose()

    await asyncio.gather(*(worker_loop(a) for a in addresses))

    # Anything undelivered — still queued when every worker died, out of
    # retries, or over the re-dispatch budget — is the caller's to run.
    stats.leftover = sorted(
        req.index for req in requests if req.index not in delivered
    )
    return stats
