"""Wire protocol of the query service: newline-delimited JSON frames.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.  The
format is deliberately boring: any language (or ``nc``) can speak it,
frames are self-delimiting without length prefixes, and the asyncio
streams API reads it natively with ``readline``.

Requests carry ``{"id": <int>, "op": <str>, ...}``; responses echo the
``id`` with either ``{"ok": true, ...}`` or ``{"ok": false, "error":
<message>, "kind": <exception class>}``.  Clients may pipeline: ids
correlate out-of-order responses (the server answers in completion
order, which is what lets slow kernel calls coalesce behind fast ones).

Two ops (``sweep``, and any future op shipping rich Python objects)
embed base64-encoded **pickles** inside the JSON frame
(:func:`pack_pickle` / :func:`unpack_pickle`).  Pickle implies trust:
the service is a *local, same-user* daemon — run it on a unix socket
with filesystem permissions, or on loopback TCP, never on an exposed
interface (DESIGN.md §8).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import pickle
from typing import Optional

#: Hard per-frame byte bound (requests *and* responses).  A 1M-station
#: displacement array pickles to ~16 MB and a 20k-edge graph reply to a
#: few MB, so the bound is generous; it exists to turn a corrupt or
#: hostile stream into a clean error instead of an OOM.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ServiceError(RuntimeError):
    """A request the service rejected (unknown op, bad args, missing
    network).  Raised client-side when a response carries ``ok: false``;
    server-side handlers raise it for anticipated failures so the
    connection survives and only the offending request errors."""


class ServiceConnectionError(ServiceError, ConnectionError):
    """The transport failed mid-request (peer closed, reset, EOF).

    Distinct from a plain :class:`ServiceError` so callers can tell a
    *worker* problem (reconnect / re-dispatch the point elsewhere) from
    a *request* problem (the server answered and said no); the shard
    dispatcher (:mod:`repro.distrib.shard`) routes on exactly this
    split.
    """


class ServiceTimeout(ServiceError):
    """No response arrived within the per-request timeout.

    The peer may be dead without having closed the socket (host crash,
    TCP partition) or merely slow; either way the caller gets control
    back instead of awaiting forever.  The request's future is
    abandoned — a late response is discarded by the reader loop.
    """


class ServiceCorruptPayload(ServiceError):
    """A pickle payload failed its integrity check.

    The frame parsed as JSON but the embedded payload's SHA-256 did not
    match its header (bit-rot, a proxy mangling bytes, an injected
    ``service.reply.corrupt`` fault) or it would not unpickle.  Never
    the caller's fault and never safe to consume: the shard dispatcher
    treats it like a transport failure — drop the connection, requeue
    the point — rather than a server-side rejection (DESIGN.md §10.3).
    """


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its wire form (JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one message; ``None`` on a cleanly closed stream.

    :raises ServiceError: on oversized or non-JSON frames (the caller
        should drop the connection — framing is lost).
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ServiceError(
            f"frame exceeds the stream buffer limit: {exc}"
        ) from exc
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES"
        )
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError(
            f"frames must be JSON objects, got {type(message).__name__}"
        )
    return message


def pack_pickle(obj) -> str:
    """Checksummed, base64-encoded pickle of ``obj`` for embedding in a
    JSON frame.

    Wire form is ``"<sha256 hex>:<base64>"`` (``:`` is not in the
    base64 alphabet).  The digest covers the raw pickle bytes, end to
    end: whatever mangles the payload between the two calls — kernel,
    proxy, cosmic ray, chaos plan — is caught at the consumer.
    """
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        hashlib.sha256(blob).hexdigest()
        + ":"
        + base64.b64encode(blob).decode("ascii")
    )


def unpack_pickle(payload: str):
    """Inverse of :func:`pack_pickle`.  Trusted input only — see the
    module docstring's threat model.

    :raises ServiceCorruptPayload: when the checksum header is missing
        or disagrees with the payload bytes, or the payload does not
        decode / unpickle — the bytes are unverified or damaged and
        must not be consumed.
    """
    digest, sep, body = payload.partition(":")
    if not sep:
        raise ServiceCorruptPayload("payload carries no checksum header")
    try:
        blob = base64.b64decode(body.encode("ascii"))
        actual = hashlib.sha256(blob).hexdigest()
        if actual != digest:
            raise ServiceCorruptPayload(
                f"payload checksum mismatch: header {digest:.16}…, "
                f"payload {actual:.16}…"
            )
        return pickle.loads(blob)
    except ServiceCorruptPayload:
        raise
    except Exception as exc:
        raise ServiceCorruptPayload(
            f"payload would not decode: {exc}"
        ) from exc


def error_response(request_id, exc: BaseException) -> dict:
    """The ``ok: false`` response for a failed request."""
    return {
        "id": request_id,
        "ok": False,
        "error": str(exc),
        "kind": type(exc).__name__,
    }
