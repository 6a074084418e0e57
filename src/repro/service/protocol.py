"""Wire protocol of the query service: typed binary frames.

Every request and response is one frame::

    <u32 little-endian header length><UTF-8 JSON header object><buffers>

The header holds the message's fields as JSON, except that each
top-level :class:`numpy.ndarray` field travels as raw little-endian
bytes after the header.  The reserved header key ``"buffers"`` lists
them in wire order as ``[[name, dtype, shape], ...]``, each ``dtype``
from :data:`WIRE_DTYPES` and each ``shape`` one or two non-negative
ints.  A ``sinr`` reply's reception pairs are one such buffer, so the
daemon sends them without building a Python list per pair.

:func:`read_frame` checks every length a frame declares against
:data:`MAX_FRAME_BYTES` before it asks the stream for those bytes: the
header length first, then the buffers' total from their dtypes and
shapes, after the header has parsed and the buffer list has validated.
A length past the bound is refused before any of its bytes are
awaited, so no frame makes a reader buffer more than the bound.  A
peer still speaking newline-delimited JSON is refused the same way:
its first four bytes, ``{"id``, read as a header length of
1,684,611,707.

Requests carry ``{"id": <int>, "op": <str>, ...}``; responses echo the
``id`` with either ``{"ok": true, ...}`` or ``{"ok": false, "error":
<message>, "kind": <exception class>}``.  Clients may pipeline: ids
correlate out-of-order responses (the server answers in completion
order, which is what lets slow kernel calls coalesce behind fast ones).

The ``sweep`` op embeds a base64-encoded **pickle** in the header
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
import math
import pickle
import struct
from typing import Optional

import numpy as np

#: Hard per-frame byte bound (requests *and* responses; header plus
#: buffers).  A 1M-station displacement array is ~45 MB of JSON and a
#: 20k-edge graph reply a few MB, so the bound is generous; it exists
#: to turn a corrupt or hostile stream into a clean error instead of an
#: OOM.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Dtypes a buffer may carry (numpy dtype strings).  Only what some op
#: sends: station indices travel as the resolver's own ``intp``.
WIRE_DTYPES = ("<i8",)

#: The length prefix: the header's size in bytes.
_PREFIX = struct.Struct("<I")

#: Header key listing a frame's buffers.
_BUFFERS = "buffers"

#: One compact encoder for every header: ``json.dumps`` with any
#: non-default argument builds a new ``JSONEncoder`` per call.
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
    """Serialize one message to its wire form.

    Every top-level :class:`numpy.ndarray` field becomes a buffer;
    every other field stays JSON in the header.

    :raises TypeError: for an array that is not 1-D or 2-D with a dtype
        in :data:`WIRE_DTYPES`, or a message using the reserved key
        ``"buffers"`` — programming errors, not wire errors.
    """
    if _BUFFERS in message:
        raise TypeError(f"{_BUFFERS!r} is a reserved frame key")
    header = {}
    specs = []
    blobs = []
    for name, value in message.items():
        if not isinstance(value, np.ndarray):
            header[name] = value
            continue
        dtype = value.dtype.str
        if dtype not in WIRE_DTYPES or not 1 <= value.ndim <= 2:
            raise TypeError(
                f"field {name!r} is a {value.ndim}-D {dtype} array; "
                f"buffers are 1-D or 2-D of {WIRE_DTYPES}"
            )
        specs.append([name, dtype, list(value.shape)])
        blobs.append(value.tobytes())
    if specs:
        header[_BUFFERS] = specs
    head = _HEADER_ENCODER.encode(header).encode()
    return b"".join((_PREFIX.pack(len(head)), head, *blobs))


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one message; ``None`` on a stream closed between frames.

    Buffers decode to read-only arrays over the received bytes.

    :raises ServiceError: on a truncated, oversized or malformed frame
        (the caller should drop the connection — framing is lost).
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServiceError("truncated frame") from exc
    (size,) = _PREFIX.unpack(prefix)
    if size > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame header of {size} bytes exceeds MAX_FRAME_BYTES"
        )
    raw = await _read_exactly(reader, size)
    try:
        message = json.loads(raw.decode())
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integer
        # literals; RecursionError, nesting past the interpreter's limit.
        raise ServiceError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError(
            f"frames must be JSON objects, got {type(message).__name__}"
        )
    layout = _buffer_layout(message, size)
    if not layout:
        return message
    body = await _read_exactly(
        reader, sum(nbytes for _, _, _, nbytes in layout)
    )
    offset = 0
    for name, dtype, shape, nbytes in layout:
        message[name] = np.frombuffer(
            body, dtype, nbytes // dtype.itemsize, offset
        ).reshape(shape)
        offset += nbytes
    return message


def _buffer_layout(message: dict, header_bytes: int) -> list:
    """Pop and validate the header's buffer list.

    Returns one ``(name, dtype, shape, nbytes)`` per buffer, in wire
    order, once every entry is well formed and the whole frame fits
    :data:`MAX_FRAME_BYTES` — before any buffer byte is read.  Errors
    name the entry by position, never by echoing peer input.
    """
    specs = message.pop(_BUFFERS, [])
    if not isinstance(specs, list):
        raise ServiceError(
            f"{_BUFFERS!r} must be a list, got {type(specs).__name__}"
        )
    taken = {*message, _BUFFERS}
    total = header_bytes
    layout = []
    for index, spec in enumerate(specs):
        if not (isinstance(spec, list) and len(spec) == 3):
            raise ServiceError(
                f"buffer {index} is not [name, dtype, shape]"
            )
        name, dtype, shape = spec
        if not isinstance(name, str) or name in taken:
            raise ServiceError(
                f"buffer {index} needs a name no other field has"
            )
        taken.add(name)
        if dtype not in WIRE_DTYPES:
            raise ServiceError(
                f"buffer {index} has a dtype not in {WIRE_DTYPES}"
            )
        if not (
            isinstance(shape, list)
            and 1 <= len(shape) <= 2
            and all(type(extent) is int and extent >= 0 for extent in shape)
        ):
            raise ServiceError(
                f"buffer {index} has a shape that is not 1 or 2 "
                "non-negative ints"
            )
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        total += nbytes
        if total > MAX_FRAME_BYTES:
            # Not formatted: a product of huge extents may have more
            # digits than int-to-str conversion allows.
            raise ServiceError(
                f"buffer {index} takes the frame past MAX_FRAME_BYTES"
            )
        layout.append((name, dtype, shape, nbytes))
    return layout


async def _read_exactly(reader: asyncio.StreamReader, size: int) -> bytes:
    """``size`` bytes of a frame already begun; EOF first is a
    :class:`ServiceError`."""
    try:
        return await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        raise ServiceError("truncated frame") from exc


def pack_pickle(obj) -> str:
    """Checksummed, base64-encoded pickle of ``obj`` for embedding in a
    frame header.

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
