"""Asyncio client for the resident-network query service.

A :class:`ServiceClient` owns one connection and supports **pipelining**:
any number of asyncio tasks may issue requests concurrently over it —
requests are tagged with monotonically increasing ids, responses are
correlated by a background reader task, and the server is free to answer
out of order.  That concurrency is exactly what feeds the server's batch
coalescer, so a single client with ``asyncio.gather`` gets the same
batching win as a fleet of separate connections.

Addresses are strings: ``unix:/path/to.sock`` or ``tcp:host:port``
(:func:`connect` parses them); ``python -m repro.service`` prints the
matching string on startup.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

import numpy as np

from repro import faults
from repro.service.protocol import (
    ServiceConnectionError,
    ServiceError,
    ServiceTimeout,
    encode_frame,
    pack_pickle,
    read_frame,
    unpack_pickle,
)


async def connect(
    address: str, *, timeout: "Optional[float]" = None
) -> "ServiceClient":
    """Open a client for ``unix:<path>`` or ``tcp:<host>:<port>``.

    ``timeout`` overrides the client's default per-request timeout
    (:data:`DEFAULT_REQUEST_TIMEOUT`, read at connect time); ``None``
    keeps the default.
    """
    if address.startswith("unix:"):
        reader, writer = await asyncio.open_unix_connection(
            address[len("unix:"):]
        )
    elif address.startswith("tcp:"):
        host, _, port = address[len("tcp:"):].rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port))
    else:
        raise ServiceError(
            f"unrecognized service address {address!r}; expected "
            "'unix:<path>' or 'tcp:<host>:<port>'"
        )
    return ServiceClient(
        reader, writer,
        timeout=DEFAULT_REQUEST_TIMEOUT if timeout is None else timeout,
    )


#: Default per-request timeout.  Generous — a full-scale sweep point
#: legitimately computes for minutes — but *finite*: a peer that dies
#: without closing its socket (host crash, TCP partition) must fail the
#: request with :class:`ServiceTimeout` rather than hang the caller
#: forever.  Pass ``timeout=None`` per client or per request to wait
#: unboundedly where that is genuinely wanted.
DEFAULT_REQUEST_TIMEOUT = 600.0

#: Sentinel distinguishing "use the client default" from an explicit
#: ``timeout=None`` (wait forever) on one request.
_USE_DEFAULT = object()


class ServiceClient:
    """One pipelined connection to a :class:`~repro.service.server.ServiceServer`.

    Construct via :func:`connect` (or from an existing stream pair, as
    the in-process tests do).  All public methods are coroutines; they
    raise :class:`ServiceError` when the server answers ``ok: false``,
    :class:`ServiceTimeout` when no answer arrives within the
    per-request timeout, and :class:`ServiceConnectionError` when the
    transport dies mid-request.

    :param timeout: default per-request timeout in seconds
        (:data:`DEFAULT_REQUEST_TIMEOUT`); ``None`` waits forever.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    ):
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        """Correlate responses to pending requests by id."""
        error: Optional[BaseException] = None
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                request_id = message.get("id")
                # Ids this client sends are ints; any other id (a list,
                # an array) matches no request and must not kill the loop.
                future = (
                    self._pending.pop(request_id, None)
                    if type(request_id) is int
                    else None
                )
                if future is not None and not future.done():
                    future.set_result(message)
        except (ServiceError, ConnectionError, OSError) as exc:
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        error
                        if error is not None
                        else ServiceConnectionError(
                            "connection closed by server"
                        )
                    )
            self._pending.clear()

    async def request(
        self, op: str, *, timeout: object = _USE_DEFAULT, **fields
    ) -> dict:
        """Issue one raw request; return the ``ok: true`` payload.

        ``timeout`` (keyword-only, seconds) bounds the wait for the
        response — it defaults to the client's :attr:`timeout`, and
        ``None`` waits forever.  No wire field may be named
        ``timeout``; none is.

        :raises ServiceError: when the server rejects the request (the
            message carries the server-side error text and kind).
        :raises ServiceTimeout: when no response arrives in time — the
            peer may be dead without having closed the socket; the
            request's future is abandoned and a late response is
            discarded.
        """
        limit = self.timeout if timeout is _USE_DEFAULT else timeout
        if faults.maybe_fire("client.send.drop") is not None:
            # Chaos site: the connection dies before the request is
            # written — the caller sees the same error a mid-send RST
            # produces and must re-dispatch (DESIGN.md §10.3).
            self._writer.close()
            raise ServiceConnectionError(
                "injected client-side connection drop (chaos plan)"
            )
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(
                    encode_frame({"id": request_id, "op": op, **fields})
                )
                await self._writer.drain()
            if limit is None:
                response = await future
            else:
                try:
                    response = await asyncio.wait_for(future, limit)
                except asyncio.TimeoutError:
                    raise ServiceTimeout(
                        f"{op!r} request got no response within "
                        f"{limit:g}s (peer dead or stalled)"
                    ) from None
        finally:
            self._pending.pop(request_id, None)
        if response.get("ok") is not True:
            raise ServiceError(
                f"{op}: {response.get('error')} "
                f"[{response.get('kind', 'ServiceError')}]"
            )
        return response

    # ------------------------------------------------------------------
    # typed ops
    # ------------------------------------------------------------------
    async def build(self, spec: dict) -> dict:
        """Build/admit a network; returns the reply with its ``net``
        fingerprint handle (see :func:`repro.service.server.build_network`
        for the spec shapes)."""
        return await self.request("build", spec=spec)

    async def sinr(
        self,
        net: str,
        transmitters: Sequence[int],
        *,
        noise: Optional[float] = None,
        beta: Optional[float] = None,
        full: bool = False,
    ) -> dict:
        """Resolve receptions for ``transmitters`` on network ``net``.

        Returns ``{"receptions": [[listener, sender], ...]}`` — or, with
        ``full=True``, the dense length-``n`` heard list under
        ``"heard"`` — rebuilt as Python lists from the reply's index
        buffer.  Bitwise identical whether or not the server coalesced
        the call with others (DESIGN.md §8).
        """
        fields: dict = {
            "net": net,
            "transmitters": np.asarray(transmitters).tolist(),
        }
        if noise is not None:
            fields["noise"] = noise
        if beta is not None:
            fields["beta"] = beta
        if full:
            fields["full"] = True
        reply = await self.request("sinr", **fields)
        key = "heard" if full else "receptions"
        reply[key] = reply[key].tolist()
        return reply

    async def ball(self, net: str, center: int, radius: float) -> list[int]:
        """Station indices within ``radius`` of ``center``."""
        reply = await self.request(
            "ball", net=net, center=center, radius=radius
        )
        return reply["stations"]

    async def graph(self, net: str, *, count_only: bool = False) -> dict:
        """Communication-graph summary (``edges`` unless ``count_only``)."""
        return await self.request("graph", net=net, count_only=count_only)

    async def is_connected(self, net: str) -> bool:
        """Whether the communication graph is connected."""
        reply = await self.request("is_connected", net=net)
        return reply["connected"]

    async def advance(self, net: str, displacements) -> dict:
        """One mobility tick; returns the successor's ``net`` handle and
        ``advance_mode`` (``"patched-sparse"`` / ``"patched-dense"`` /
        ``"rebuild"`` / ``"unmoved"``)."""
        return await self.request(
            "advance",
            net=net,
            displacements=np.asarray(displacements, dtype=float).tolist(),
        )

    async def sweep(
        self,
        kind: str,
        n_replications: int,
        seed,
        *,
        net: Optional[str] = None,
        descriptor: Optional[dict] = None,
        constants=None,
        kwargs: Optional[dict] = None,
        key: Optional[str] = None,
    ) -> dict:
        """Run a protocol sweep server-side on a resident network.

        Either ``net`` (a resident fingerprint) or ``descriptor`` (a
        :meth:`~repro.network.network.Network.descriptor` the server
        rebuilds the network from) must be given; ``key`` enables
        server-side result caching under the ordinary grid
        ``point_key``.  The wait is bounded by the client's
        :attr:`timeout`.  Returns ``{"sweep": SweepResult, "net":
        fingerprint, "cached": bool}``.
        """
        payload = {
            "net": net,
            "descriptor": descriptor,
            "kind": kind,
            "n_replications": n_replications,
            "seed": seed,
            "constants": constants,
            "kwargs": kwargs or {},
            "key": key,
        }
        reply = await self.request("sweep", payload=pack_pickle(payload))
        return {
            "sweep": unpack_pickle(reply["payload"]),
            "net": reply["net"],
            "cached": reply["cached"],
        }

    async def stats(self) -> dict:
        """Server statistics (pool, coalescers, cache, process)."""
        return await self.request("stats")

    async def ping(self) -> bool:
        """Liveness probe."""
        reply = await self.request("ping")
        return bool(reply.get("pong"))

    async def shutdown(self) -> None:
        """Ask the daemon to stop serving."""
        await self.request("shutdown")

    async def aclose(self) -> None:
        """Close the connection and stop the reader task."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        """Context-manager entry (connection already open)."""
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        await self.aclose()
