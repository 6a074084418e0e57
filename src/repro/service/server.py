"""The asyncio daemon serving resident-network queries.

One :class:`ServiceServer` owns a :class:`~repro.service.pool.NetworkPool`
of hot networks, a per-(network, noise, beta) family of
:class:`~repro.service.coalescer.BatchCoalescer` instances, and
optionally the shared on-disk :class:`~repro.fastsim.cache.ResultCache`.
It listens on a unix socket and/or loopback TCP, speaking the typed
frames of :mod:`repro.service.protocol`: a JSON header plus raw array
buffers.

Requests on one connection are handled concurrently (one task per
frame), so a single pipelining client coalesces against itself just
like a thousand separate clients do; responses carry the request ``id``
and go out in completion order.

Supported ops — see :meth:`ServiceServer.handlers`:

``build``
    Deploy (or look up) a network from a JSON spec; admit it to the
    pool; reply with its fingerprint — the handle every other op takes.
``sinr``
    Resolve receptions for one transmitter set through the coalescer;
    the reply's ``(listener, sender)`` pairs travel as one buffer.
``ball`` / ``graph`` / ``is_connected``
    Geometry and connectivity queries against the resident structures.
``advance``
    One mobility tick: :meth:`Network.advance` (incremental CSR
    patching where applicable), successor admitted to the pool.
``sweep``
    Run a full protocol sweep on a resident network (pickle payload;
    the ``run_grid(workers=[...])`` execution path, DESIGN.md §8).
``stats`` / ``ping`` / ``shutdown``
    Introspection and lifecycle.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import inspect
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from repro import faults
from repro.distrib.leases import DEFAULT_TTL_S, LeaseBoard
from repro.errors import ReproError
from repro.fastsim.cache import ResultCache
from repro.fastsim.sweep import run_sweep
from repro.network.network import Network
from repro.service.coalescer import BatchCoalescer
from repro.service.pool import NetworkPool
from repro.service.protocol import (
    ServiceError,
    encode_frame,
    error_response,
    pack_pickle,
    read_frame,
    unpack_pickle,
)
from repro.sinr.params import SINRParameters
from repro.sinr.reception import NO_SENDER, resolve_reception_many
from repro.sysmem import peak_rss_bytes

#: Deployment families the ``build`` op accepts, resolved lazily so the
#: module import stays light.  Every factory takes ``rng=`` plus its own
#: keyword arguments (``docs/api.md`` lists them).
BUILD_FAMILIES = (
    "uniform_square",
    "uniform_disk",
    "uniform_cube",
    "fractal_clusters",
    "corridor",
    "grid",
    "uniform_chain",
)


def build_network(spec: dict) -> Network:
    """Deterministically build a :class:`Network` from a ``build`` spec.

    Two spec shapes:

    * ``{"coords": [[x, y], ...]}`` — explicit coordinates;
    * ``{"family": <name>, "seed": <int>, "args": {...}}`` — a seeded
      deployment factory from :data:`BUILD_FAMILIES` (``args`` passed
      through, e.g. ``{"n": 20000, "side": 40.0}``).

    Shared optional keys: ``params`` (kwargs of
    :meth:`SINRParameters.default`), ``channel`` (``{"kind":
    "uniform" | "log_normal" | "dual_slope", ...kwargs}``), ``backend``,
    ``cutoff``, ``name``.  The same spec always builds the same network
    — the fingerprint is the client's stable handle.  Which kernel
    implementation serves it is the daemon platform's choice, reported
    as the ``build`` reply's ``kernel``.
    """
    from repro import deploy
    from repro.sinr.channel import (
        DualSlope,
        LogNormalShadowing,
        UniformPower,
    )

    params = None
    if spec.get("params"):
        params = SINRParameters.default(**spec["params"])
    shared = {
        key: spec[key]
        for key in ("backend", "cutoff")
        if key in spec and spec[key] is not None
    }
    channel_spec = spec.get("channel")
    if channel_spec:
        kind = channel_spec.get("kind", "uniform")
        kwargs = {k: v for k, v in channel_spec.items() if k != "kind"}
        makers = {
            "uniform": UniformPower,
            "log_normal": LogNormalShadowing,
            "dual_slope": DualSlope,
        }
        if kind not in makers:
            raise ServiceError(
                f"unknown channel kind {kind!r}; expected one of "
                f"{sorted(makers)}"
            )
        shared["channel"] = makers[kind](**kwargs)

    if "coords" in spec:
        return Network(
            np.asarray(spec["coords"], dtype=float),
            params=params,
            name=spec.get("name", "service-coords"),
            **shared,
        )
    family = spec.get("family")
    if family not in BUILD_FAMILIES:
        raise ServiceError(
            f"unknown deployment family {family!r}; expected one of "
            f"{BUILD_FAMILIES} (or explicit 'coords')"
        )
    factory = getattr(deploy, family)
    factory_params = inspect.signature(factory).parameters
    args = dict(spec.get("args", {}))
    if "rng" in factory_params:
        # Deterministic families (grid, uniform_chain) take no rng.
        args["rng"] = np.random.default_rng(spec.get("seed", 0))
    if "name" in spec and "name" in factory_params:
        args.setdefault("name", spec["name"])
    net = factory(params=params, **args)
    if shared:
        net = Network(**{**net.descriptor(), **shared})
    return net


class ServiceServer:
    """The resident-network daemon (one instance per process).

    :param pool: resident-network pool; a default-budget
        :class:`NetworkPool` when omitted.
    :param cache_dir: result-cache directory for ``sweep`` requests
        (``None`` = no server-side caching; ``run_grid`` clients may
        still cache on their side — same keys either way).
    :param window: coalescing window in seconds (see
        :class:`BatchCoalescer`).
    :param max_batch: largest coalesced batch per kernel call
        (``max_batch=1, window=0`` serves one query per kernel call,
        in arrival order — same replies, bit for bit).
    :param lease_ttl: time-to-live of the per-point lease files this
        daemon takes on keyed ``sweep`` requests (DESIGN.md §9.2; only
        meaningful with ``cache_dir``).  A lease is refreshed at a
        third of this while its point computes, so a ttl only ever
        elapses when the holding daemon died mid-point.
    """

    def __init__(
        self,
        *,
        pool: Optional[NetworkPool] = None,
        cache_dir: Optional[str] = None,
        window: float = 0.002,
        max_batch: int = 128,
        lease_ttl: float = DEFAULT_TTL_S,
    ):
        self.pool = pool if pool is not None else NetworkPool()
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.leases = (
            LeaseBoard(self.cache.root, ttl=lease_ttl)
            if self.cache is not None
            else None
        )
        self.window = window
        self.max_batch = max_batch
        # One worker: kernel calls are serialized, so measured
        # throughput reflects batch efficiency rather than core-count
        # contention, and resident-memory pressure stays single-fold.
        self._kernel_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="service-kernel"
        )
        self._coalescers: dict[tuple, BatchCoalescer] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._shutdown = asyncio.Event()
        self._started = time.time()
        self.requests_served = 0
        #: ``sweep`` results whose cache publish failed (ENOSPC, bad
        #: disk) — served anyway; surfaced in ``stats`` for alerting.
        self.put_failures = 0
        #: (host, port) of the TCP listener once bound (port 0 resolves).
        self.tcp_address: Optional[tuple[str, int]] = None
        #: Path of the unix listener once bound.
        self.unix_path: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start_unix(self, path: str, backlog: int = 2048) -> None:
        """Listen on a unix-domain socket at ``path``.

        ``backlog`` defaults high enough that a thousand simultaneous
        connection attempts (the soak scenario) don't get refused while
        the single-threaded loop works through the accept queue.
        """
        server = await asyncio.start_unix_server(
            self._handle_client, path=path, backlog=backlog,
        )
        self.unix_path = path
        self._servers.append(server)

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0, backlog: int = 2048
    ) -> None:
        """Listen on TCP (loopback by default; ``port=0`` picks a free
        port, readable from :attr:`tcp_address`)."""
        server = await asyncio.start_server(
            self._handle_client, host=host, port=port, backlog=backlog,
        )
        sock = server.sockets[0]
        self.tcp_address = sock.getsockname()[:2]
        self._servers.append(server)

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or the ``shutdown`` op)."""
        await self._shutdown.wait()
        await self.aclose()

    def shutdown(self) -> None:
        """Request shutdown; :meth:`serve_forever` returns soon after."""
        self._shutdown.set()

    async def aclose(self) -> None:
        """Close all listeners (idempotent)."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - platform quirks
                pass
        self._servers.clear()
        self._kernel_executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One connection: read frames, answer each in its own task.

        A dropped connection cancels the connection's in-flight request
        tasks, which cancels their coalescer futures — the mid-batch
        cancellation path ``tests/test_service.py`` exercises; other
        clients' requests in the same batch are unaffected.
        """
        tasks: set[asyncio.Task] = set()
        write_lock = asyncio.Lock()

        async def respond(message: dict) -> None:
            async with write_lock:
                writer.write(encode_frame(message))
                await writer.drain()

        async def serve_one(request: dict) -> None:
            response = await self._dispatch(request)
            # Chaos sites on the reply path (no-ops without a plan):
            # drop the connection instead of answering, stall the
            # reply past the client's timeout, or mangle a pickle
            # payload so the client-side checksum must reject it.
            if faults.maybe_fire("service.conn.drop") is not None:
                writer.close()
                return
            stall = faults.maybe_fire("service.reply.stall")
            if stall is not None:
                await asyncio.sleep(stall.delay_s)
            if "payload" in response and (
                faults.maybe_fire("service.reply.corrupt") is not None
            ):
                response = dict(response)
                response["payload"] = _mangle_payload(
                    response["payload"]
                )
            await respond(response)

        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ServiceError as exc:
                    # Framing is gone; answer best-effort and drop.
                    try:
                        await respond(error_response(None, exc))
                    except (ConnectionError, RuntimeError):
                        pass
                    break
                if request is None:
                    break
                task = asyncio.ensure_future(serve_one(request))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels connection tasks mid-read; treat it
            # as a disconnect so teardown is clean, not an error dump.
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Loop shutdown can cancel the handler while it flushes
                # the close; the transport is down either way, and a
                # task that ends cancelled here only feeds asyncio's
                # "exception in callback" log, so end quietly instead.
                task = asyncio.current_task()
                if task is not None:
                    task.uncancel()

    async def _dispatch(self, request: dict) -> dict:
        """Route one request to its handler; never raises."""
        request_id = request.get("id")
        op = request.get("op")
        # Only a string can name an op; a list or object would not even
        # hash, and the request must still get its error reply.
        handler = self.handlers().get(op) if isinstance(op, str) else None
        if handler is None:
            return error_response(
                request_id,
                ServiceError(
                    f"unknown op {op!r}; expected one of "
                    f"{sorted(self.handlers())}"
                ),
            )
        try:
            payload = await handler(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure must
            # become an error *reply*: an exception that escaped here
            # would kill the per-request task and leave the client
            # awaiting a response that never comes.
            return error_response(request_id, exc)
        self.requests_served += 1
        return {"id": request_id, "ok": True, **payload}

    def handlers(self) -> dict[str, Callable]:
        """Op-name -> coroutine handler map."""
        return {
            "build": self._op_build,
            "sinr": self._op_sinr,
            "ball": self._op_ball,
            "graph": self._op_graph,
            "is_connected": self._op_is_connected,
            "advance": self._op_advance,
            "sweep": self._op_sweep,
            "stats": self._op_stats,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------
    # op handlers
    # ------------------------------------------------------------------
    def _network(self, request: dict) -> Network:
        """The resident network a request addresses."""
        fingerprint = request.get("net")
        if not isinstance(fingerprint, str):
            raise ServiceError("request is missing the 'net' fingerprint")
        net = self.pool.get(fingerprint)
        if net is None:
            raise ServiceError(
                f"no resident network {fingerprint[:16]}...; "
                "issue a 'build' first (it may have been evicted)"
            )
        return net

    async def _op_build(self, request: dict) -> dict:
        """Build/admit a network from ``request['spec']``."""
        spec = request.get("spec")
        if not isinstance(spec, dict):
            raise ServiceError("'build' needs a 'spec' object")
        known = spec.get("fingerprint")
        if isinstance(known, str):
            net = self.pool.get(known)
            if net is not None:
                return self._build_reply(known, net, [])
        net = await asyncio.to_thread(self._build_resident, spec)
        fingerprint, evicted = self.pool.add(net)
        return self._build_reply(fingerprint, net, evicted)

    def _build_resident(self, spec: dict) -> Network:
        """Build the network and force its serving structures hot."""
        net = build_network(spec)
        net.gain_operator  # force the backend / gain matrix build
        return net

    def _build_reply(
        self, fingerprint: str, net: Network, evicted: list[str]
    ) -> dict:
        return {
            "net": fingerprint,
            "n": net.size,
            "backend": net.backend_kind,
            "kernel": net.kernel_kind,
            "resident_bytes": net.resident_bytes(),
            "evicted": evicted,
        }

    def _coalescer_for(
        self, fingerprint: str, net: Network, noise: float, beta: float
    ) -> BatchCoalescer:
        """The coalescer serving (network, noise, beta) — only queries
        sharing all three may ride one kernel call."""
        key = (fingerprint, float(noise), float(beta))
        coalescer = self._coalescers.get(key)
        if coalescer is None:
            coalescer = BatchCoalescer(
                functools.partial(
                    _fold_sinr, net.gain_operator, float(noise), float(beta)
                ),
                window=self.window,
                max_batch=self.max_batch,
                executor=self._kernel_executor,
            )
            self._coalescers[key] = coalescer
        return coalescer

    async def _op_sinr(self, request: dict) -> dict:
        """Resolve receptions for one transmitter set (coalesced).

        ``transmitters`` must be a flat list of integer station indices
        in ``[0, n)``; ``noise`` and ``beta`` must be finite numbers
        within :class:`~repro.sinr.params.SINRParameters`' rules
        (``noise > 0``, ``beta >= 1`` — the resolver tests only the
        strongest sender, which is exact only for ``beta >= 1``).  The
        reply carries ``receptions``, the ``(k, 2)`` array of
        ``(listener, sender)`` pairs, or under ``full`` the ``(n,)``
        ``heard`` array; each travels as one frame buffer.
        """
        net = self._network(request)
        listed = request.get("transmitters", [])
        if not isinstance(listed, list) or not all(
            type(t) is int for t in listed
        ):
            raise ServiceError(
                "'transmitters' must be a list of integer station indices"
            )
        if listed and not 0 <= min(listed) <= max(listed) < net.size:
            raise ServiceError(
                f"transmitter indices must be in [0, {net.size})"
            )
        transmitters = np.asarray(listed, dtype=np.intp)
        noise = _real(request, "noise", net.params.noise)
        beta = _real(request, "beta", net.params.beta)
        if not 0 < noise < np.inf:
            raise ServiceError(f"'noise' must be finite and > 0, got {noise}")
        if not 1 <= beta < np.inf:
            raise ServiceError(f"'beta' must be finite and >= 1, got {beta}")
        coalescer = self._coalescer_for(
            request["net"], net, noise, beta
        )
        receivers, senders = await coalescer.submit(transmitters)
        if request.get("full"):
            heard = np.full(net.size, NO_SENDER, dtype=np.intp)
            heard[receivers] = senders
            return {"heard": heard}
        return {
            "receptions": np.column_stack((receivers, senders)),
            "n": net.size,
        }

    async def _op_ball(self, request: dict) -> dict:
        """Stations within ``radius`` of ``center``.

        ``center`` must be an integer station index in ``[0, n)`` and
        ``radius`` a finite number ``>= 0``.
        """
        net = self._network(request)
        center = request.get("center")
        if type(center) is not int or not 0 <= center < net.size:
            raise ServiceError(
                f"'center' must be an integer in [0, {net.size}), "
                f"got {center!r}"
            )
        radius = _real(request, "radius", None)
        if not 0 <= radius < np.inf:
            raise ServiceError(
                f"'radius' must be finite and >= 0, got {radius}"
            )
        members = await asyncio.to_thread(net.ball, center, radius)
        return {"stations": np.asarray(members).tolist()}

    async def _op_graph(self, request: dict) -> dict:
        """Communication-graph summary (edge list unless ``count_only``).

        Answered from the network's radius query
        (:meth:`~repro.network.network.Network.pairs_within`, edges in
        sorted ``(i, j)`` order), so a resident network never builds the
        networkx graph the pool's budget does not count.
        """
        net = self._network(request)

        def build() -> dict:
            ii, jj = net.pairs_within(net.params.comm_radius)
            payload = {
                "n": net.size,
                "num_edges": int(ii.size),
                "max_degree": net.max_degree,
            }
            if not request.get("count_only"):
                payload["edges"] = np.column_stack([ii, jj]).tolist()
            return payload

        return await asyncio.to_thread(build)

    async def _op_is_connected(self, request: dict) -> dict:
        """Connectivity of the communication graph."""
        net = self._network(request)
        connected = await asyncio.to_thread(lambda: net.is_connected)
        return {"connected": bool(connected)}

    async def _op_advance(self, request: dict) -> dict:
        """One mobility tick; the successor becomes resident."""
        net = self._network(request)
        disp = np.asarray(request["displacements"], dtype=float)
        successor = await asyncio.to_thread(net.advance, disp)
        if successor is net:
            return {
                "net": request["net"],
                "advance_mode": "unmoved",
                "n": net.size,
            }
        # Force the successor's serving structures before admission so
        # pool accounting sees actuals (mirrors _build_resident).
        await asyncio.to_thread(lambda: successor.gain_operator)
        fingerprint, evicted = self.pool.add(successor)
        return {
            "net": fingerprint,
            "advance_mode": successor.advance_mode,
            "n": successor.size,
            "evicted": evicted,
        }

    async def _op_sweep(self, request: dict) -> dict:
        """Run a protocol sweep on a resident network (pickle payload).

        The payload (see :meth:`repro.service.client.ServiceClient.sweep`)
        carries either a resident fingerprint or a full network
        descriptor to build on miss, plus the ``run_sweep`` arguments
        and an optional precomputed cache key.  With a server-side
        cache configured, hits replay without touching the kernels —
        and because the key is the ordinary
        :func:`repro.fastsim.cache.point_key`, entries are shared with
        CLI grid runs in both directions.

        Keyed points are additionally guarded by a lease file beside
        their cache entry (DESIGN.md §9.2): before computing, the
        daemon claims ``<key>.lease``; a point another daemon is
        already computing is *waited for* and served from the bus when
        its publish lands, and a lease whose holder died (deadline
        passed unrefreshed) is stolen and the point re-run.  That is
        what makes a coordinator's straggler re-dispatch cheap —
        the second daemon joins the first's work instead of repeating
        it — while SIGKILLed holders cost at most one lease ttl.
        """
        if faults.maybe_fire("service.sweep.error") is not None:
            raise ServiceError("injected sweep failure (chaos plan)")
        payload = unpack_pickle(request["payload"])
        fingerprint = payload.get("net")
        net = self.pool.get(fingerprint) if fingerprint else None
        if net is None:
            descriptor = payload.get("descriptor")
            if descriptor is None:
                raise ServiceError(
                    "sweep payload has neither a resident 'net' nor a "
                    "'descriptor' to build from"
                )
            net = await asyncio.to_thread(
                self._descriptor_network, descriptor
            )
            fingerprint, _ = self.pool.add(net)
        key = payload.get("key")
        leased = key and self.cache is not None and self.leases is not None
        if key and self.cache is not None:
            hit = self.cache.get(key)
            if hit is None and leased:
                hit = await self._claim_point(key)
            if hit is not None:
                sweep, _extras = hit
                return {
                    "payload": pack_pickle(sweep),
                    "net": fingerprint,
                    "cached": True,
                }
        hold = (
            asyncio.ensure_future(self._hold_lease(key)) if leased else None
        )
        try:
            sweep = await asyncio.to_thread(
                run_sweep,
                payload["kind"],
                net,
                payload["n_replications"],
                payload["seed"],
                payload.get("constants"),
                **payload.get("kwargs", {}),
            )
            if key and self.cache is not None:
                # Extras (post hooks) run client-side in service mode, so
                # the server can only store an empty extras dict.  That is
                # exact for hookless points, and the grid client only
                # ships keys for those (`_run_service` withholds the key
                # when a post hook exists — its `post_name` is part of the
                # key, so an empty-extras entry under it would replay as
                # the real result).
                try:
                    self.cache.put(key, (sweep, {}))
                except OSError:
                    # A full or failing cache disk (ENOSPC) must not
                    # fail the request — the result is in hand and goes
                    # out on the wire; only the *replay* is lost.
                    self.put_failures += 1
        finally:
            if hold is not None:
                hold.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await hold
            if leased:
                await asyncio.to_thread(self.leases.release, key)
        return {
            "payload": pack_pickle(sweep),
            "net": fingerprint,
            "cached": False,
        }

    async def _claim_point(self, key: str):
        """Take ``key``'s lease, or wait out its live holder.

        Returns ``None`` once this daemon holds the lease (the caller
        must compute and release), or the holder's published
        ``(sweep, extras)`` when waiting paid off.  A holder that dies
        without publishing is detected by lease expiry — the claim
        loop then steals the lease and the caller computes after all.
        """
        poll = max(0.02, min(1.0, self.leases.ttl / 10.0))
        while True:
            if await asyncio.to_thread(self.leases.claim, key):
                # Claimed — but the previous holder may have published
                # and released between our cache miss and this claim.
                hit = await asyncio.to_thread(self.cache.get, key)
                if hit is None:
                    return None
                await asyncio.to_thread(self.leases.release, key)
                return hit
            hit = await asyncio.to_thread(self.cache.get, key)
            if hit is not None:
                return hit
            await asyncio.sleep(poll)

    async def _hold_lease(self, key: str) -> None:
        """Refresh ``key``'s lease while its sweep computes.

        Cancelled by ``_op_sweep`` when the compute finishes; the
        refresh cadence (a third of the ttl) guarantees a live holder's
        lease never expires, so steals only ever hit dead daemons.
        """
        interval = max(0.02, self.leases.ttl / 3.0)
        while True:
            await asyncio.sleep(interval)
            await asyncio.to_thread(self.leases.refresh, key)

    def _descriptor_network(self, descriptor: dict) -> Network:
        """Rebuild a network from a grid client's pickled
        :meth:`~repro.network.network.Network.descriptor`.

        The dict carries every constructor input of the client's own
        network, so the gain structure built here is bitwise identical
        to the one the client's fork workers share, which is what makes
        ``run_grid(workers=[...])`` results bitwise equal to fork-pool
        runs.
        """
        net = Network(**descriptor)
        net.gain_operator
        return net

    async def _op_stats(self, request: dict) -> dict:
        """Pool, coalescer, cache and process statistics."""
        coalescers = {}
        for (fingerprint, noise, beta), co in self._coalescers.items():
            label = f"{fingerprint[:12]}:noise={noise}:beta={beta}"
            coalescers[label] = co.stats.as_dict()
        payload = {
            "uptime_s": time.time() - self._started,
            "requests_served": self.requests_served,
            "peak_rss_bytes": peak_rss_bytes(),
            "pool": self.pool.stats(),
            "coalescers": coalescers,
            "window_s": self.window,
            "max_batch": self.max_batch,
        }
        if self.cache is not None:
            payload["cache"] = {
                "root": str(self.cache.root),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "quarantined": self.cache.quarantined,
                "put_failures": self.put_failures,
            }
        if self.leases is not None:
            payload["leases"] = self.leases.stats()
        return payload

    async def _op_ping(self, request: dict) -> dict:
        """Liveness probe."""
        return {"pong": True}

    async def _op_shutdown(self, request: dict) -> dict:
        """Acknowledge, then stop the daemon."""
        asyncio.get_running_loop().call_soon(self.shutdown)
        return {"stopping": True}


def _mangle_payload(payload: str) -> str:
    """Deterministically damage a pickle payload string (chaos helper).

    Implements ``service.reply.corrupt``: the last character of the
    wire payload is swapped, so the client's checksum pass
    (:func:`repro.service.protocol.unpack_pickle`) must raise
    :class:`~repro.service.protocol.ServiceCorruptPayload` rather than
    consume mutated bytes.
    """
    if not payload:
        return "A"
    tail = "B" if payload[-1] == "A" else "A"
    return payload[:-1] + tail


def _real(request: dict, key: str, default: float) -> float:
    """``request[key]`` as a float; a :class:`ServiceError` unless a number."""
    value = request.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _fold_sinr(gain_operator, noise: float, beta: float, sets) -> list:
    """The coalescer's fold: one batched-resolver call for ``sets``.

    Returns one ``(receivers, senders)`` pair per set (the resolver's
    ``compact`` projection) — replies need exactly those pairs, and the
    compact path never materializes a ``(B, n)`` block for the burst.

    Module-level (not a closure) so its identity is stable and the
    kernel work happens on the executor thread the coalescer runs it
    on; thread-safety of the resolver caches is guaranteed by
    :mod:`repro.sinr.reception` (PR 7's lock satellite).
    """
    return resolve_reception_many(
        gain_operator, sets, noise, beta, compact=True
    )
