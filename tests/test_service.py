"""Tests for the resident-network query service (DESIGN.md §8).

The load-bearing claims, each pinned here:

* **Coalescing is invisible** — responses to concurrently issued SINR
  queries (folded into shared kernel calls) are bitwise identical to a
  one-query-per-call server's and to direct in-process resolution.
* **The pool is a budgeted LRU** — admission past the byte budget evicts
  least-recently-used networks, never the one just admitted, and ``get``
  refreshes recency.
* **Cancellation is per-item** — a client abandoning a request mid-batch
  does not disturb the other items folded into the same kernel call.
* **The result cache is shared** — a sweep computed through the service
  replays in a plain CLI ``run_grid`` (and vice versa) because both
  address the same :func:`repro.fastsim.cache.point_key`.
* **``run_grid(workers=[address])`` is an execution backend** — results
  are bitwise equal to the fork pool's.

Async tests drive an in-process server over loopback TCP inside
``asyncio.run``; the grid tests run the daemon on a background thread
(its own event loop) because ``run_grid``'s service path owns the
caller's loop.
"""

import asyncio
import base64
import contextlib
import json
import pickle
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim.grid import Derived, GridPoint, GridSpec, run_grid
from repro.network.network import Network
from repro.service import (
    BatchCoalescer,
    NetworkPool,
    ServiceClient,
    ServiceCorruptPayload,
    ServiceError,
    ServiceServer,
    ServiceTimeout,
    connect,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    WIRE_DTYPES,
    encode_frame,
    pack_pickle,
    read_frame,
    unpack_pickle,
)
from repro.service.server import build_network
from repro.sinr.reception import resolve_reception_many

CONSTANTS = ProtocolConstants.practical()

#: A small deterministic deployment spec reused across tests.
SPEC = {"family": "uniform_square", "seed": 7,
        "args": {"n": 30, "side": 2.0}}


#: A frame's length prefix: the header's size, little-endian u32.
_PREFIX = struct.Struct("<I")


def _frame(header: bytes, body: bytes = b"") -> bytes:
    """A frame around a raw ``header``: its length prefix, then ``body``."""
    return _PREFIX.pack(len(header)) + header + body


def _transmitter_sets(n, count, seed=0):
    rng = np.random.default_rng(seed)
    sets = [
        np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.4))
        for _ in range(count)
    ]
    sets[0] = np.array([], dtype=int)  # one empty set in every batch
    return sets


@contextlib.asynccontextmanager
async def _serve(**server_kwargs):
    """In-process server + connected client over loopback TCP."""
    server = ServiceServer(**server_kwargs)
    await server.start_tcp("127.0.0.1", 0)
    host, port = server.tcp_address
    client = await connect(f"tcp:{host}:{port}")
    try:
        yield server, client
    finally:
        await client.aclose()
        await server.aclose()


@contextlib.asynccontextmanager
async def _scripted_peer(reply_bytes: bytes):
    """A client whose peer answers the first frame it reads with
    ``reply_bytes``, whatever they hold, then waits for the client to
    hang up."""
    async def handle(reader, writer):
        await read_frame(reader)
        writer.write(reply_bytes)
        await writer.drain()
        await reader.read()
        writer.close()

    peer = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = peer.sockets[0].getsockname()[:2]
    client = await connect(f"tcp:{host}:{port}", timeout=5)
    try:
        yield client
    finally:
        await client.aclose()
        peer.close()
        await peer.wait_closed()


class _ServerThread:
    """A daemon on a background thread, for tests that drive run_grid."""

    def __init__(self, **server_kwargs):
        self.address = None
        self._ready = threading.Event()
        self._loop = None
        self._server = None
        self._thread = threading.Thread(
            target=self._run, kwargs=server_kwargs, daemon=True
        )
        self._thread.start()
        assert self._ready.wait(20), "service thread failed to start"

    def _run(self, **server_kwargs):
        async def main():
            self._server = ServiceServer(**server_kwargs)
            await self._server.start_tcp("127.0.0.1", 0)
            host, port = self._server.tcp_address
            self.address = f"tcp:{host}:{port}"
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._server.serve_forever()

        asyncio.run(main())

    def stop(self):
        self._loop.call_soon_threadsafe(self._server.shutdown)
        self._thread.join(20)


@contextlib.contextmanager
def _server_thread(**server_kwargs):
    thread = _ServerThread(**server_kwargs)
    try:
        yield thread.address
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def _roundtrip(self, frame_bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(frame_bytes)
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_frame_roundtrip(self):
        message = {"id": 3, "op": "sinr", "transmitters": [0, 2]}
        assert self._roundtrip(encode_frame(message)) == message

    @pytest.mark.parametrize("message, header", [
        (
            {"id": 3, "op": "sinr", "net": "ab", "transmitters": [0, 2]},
            {"id": 3, "op": "sinr", "net": "ab", "transmitters": [0, 2]},
        ),
        (
            {
                "id": 4, "ok": True,
                "receptions": np.array([[1, 0], [5, 2]], dtype="<i8"),
                "heard": np.arange(6, dtype="<i8"),
            },
            {
                "id": 4, "ok": True,
                "buffers": [
                    ["receptions", "<i8", [2, 2]], ["heard", "<i8", [6]],
                ],
            },
        ),
    ], ids=["request", "two-buffer-reply"])
    def test_header_bytes_are_compact_json(self, message, header):
        frame = encode_frame(message)
        (size,) = _PREFIX.unpack(frame[:_PREFIX.size])
        head = frame[_PREFIX.size:_PREFIX.size + size]
        assert head == json.dumps(header, separators=(",", ":")).encode()

    def test_eof_is_none(self):
        assert self._roundtrip(b"") is None

    def test_garbage_raises(self):
        with pytest.raises(ServiceError):
            self._roundtrip(_frame(b"not json"))

    def test_non_object_raises(self):
        with pytest.raises(ServiceError):
            self._roundtrip(_frame(b"[1, 2]"))

    def test_oversize_raises(self):
        with pytest.raises(ServiceError, match="MAX_FRAME_BYTES"):
            self._roundtrip(_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"x" * 64)
        assert MAX_FRAME_BYTES > (1 << 20)

    def test_pickle_roundtrip(self):
        payload = {"a": np.arange(4), "s": np.random.SeedSequence(5)}
        out = unpack_pickle(pack_pickle(payload))
        assert np.array_equal(out["a"], payload["a"])
        assert out["s"].entropy == 5

    def test_payload_without_checksum_is_rejected(self):
        # A bare-base64 pickle (no "<sha256>:" header) has nothing to
        # verify against; it is never unpickled.
        bare = base64.b64encode(pickle.dumps({"a": 1})).decode("ascii")
        with pytest.raises(ServiceCorruptPayload, match="no checksum"):
            unpack_pickle(bare)


def _decode(data: bytes, *, eof: bool = True, wait: float = 5.0):
    """``read_frame`` over ``data``; the reader sees EOF after it unless
    ``eof`` is false, and a decoder still waiting after ``wait`` seconds
    fails the caller with ``asyncio.TimeoutError``."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await asyncio.wait_for(read_frame(reader), wait)

    return asyncio.run(go())


def _assert_same_message(got, want):
    """Frame round trip equality, arrays compared by value and layout."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype
            assert got[key].shape == value.shape
            assert np.array_equal(got[key], value)
        else:
            assert got[key] == value


#: A reply with two buffers, as a full ``sinr`` reply and a compact one
#: would carry them.
_TWO_BUFFER_REPLY = {
    "id": 9, "ok": True, "n": 5,
    "receptions": np.array([[0, 3], [4, 3]], dtype=np.intp),
    "heard": np.array([3, -1, -1, -1, 3], dtype=np.intp),
}
_TWO_BUFFERS = encode_frame(_TWO_BUFFER_REPLY)

_JSON_FIELDS = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_WIRE_ARRAYS = hnp.arrays(
    dtype=st.sampled_from(WIRE_DTYPES),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
)


class TestFrameDecoder:
    """A frame decodes to the message it encodes, and anything else —
    garbage, truncation, a lying length — is a ``ServiceError`` (or
    ``None`` for a stream that ended between frames), decided before
    the decoder asks for bytes the bound does not allow."""

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=6),  # too short to be the reserved "buffers"
        _JSON_FIELDS | _WIRE_ARRAYS,
        max_size=6,
    ))
    @example(_TWO_BUFFER_REPLY)
    @example({"id": 1, "ok": True, "n": 30,
              "receptions": np.empty((0, 2), dtype=np.intp)})
    def test_roundtrip(self, message):
        decoded = _decode(encode_frame(message))
        _assert_same_message(decoded, message)
        for value in decoded.values():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable

    def test_every_truncation_is_refused(self):
        assert _decode(b"") is None
        for cut in range(1, len(_TWO_BUFFERS)):
            with pytest.raises(ServiceError, match="truncated frame"):
                _decode(_TWO_BUFFERS[:cut])

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | st.builds(
        lambda header, tail: _frame(header, tail),
        st.binary(max_size=48), st.binary(max_size=16),
    ))
    def test_arbitrary_bytes(self, data):
        try:
            decoded = _decode(data)
        except ServiceError:
            return
        assert (decoded is None) == (data == b"")

    @settings(max_examples=100, deadline=None)
    @given(_JSON_FIELDS, st.binary(max_size=32))
    def test_arbitrary_buffer_lists(self, buffers, tail):
        frame = _frame(json.dumps({"id": 1, "buffers": buffers}).encode(),
                       tail)
        try:
            decoded = _decode(frame)
        except ServiceError:
            return
        assert isinstance(decoded, dict) and "buffers" not in decoded

    @settings(max_examples=20, deadline=None)
    @given(st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    def test_oversized_header_refused_before_reading(self, size):
        with pytest.raises(ServiceError, match="MAX_FRAME_BYTES"):
            _decode(_PREFIX.pack(size), eof=False)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(MAX_FRAME_BYTES // 8, 2**40), st.integers(1, 4))
    @example(rows=10**4000, cols=10**4000)
    def test_oversized_buffers_refused_before_reading(self, rows, cols):
        header = json.dumps(
            {"buffers": [["receptions", "<i8", [rows, cols]]]}
        ).encode()
        with pytest.raises(ServiceError, match="MAX_FRAME_BYTES"):
            _decode(_frame(header), eof=False)

    def test_bound_is_inclusive(self):
        # Header plus buffers of exactly MAX_FRAME_BYTES are accepted —
        # the decoder goes on to wait for the buffer bytes — and one
        # byte more is refused.
        rows = (MAX_FRAME_BYTES - 64) // 8

        def header(pad):
            return json.dumps({
                "pad": "x" * pad, "buffers": [["heard", "<i8", [rows]]],
            }).encode()

        pad = 64 - len(header(0))
        assert len(header(pad)) + 8 * rows == MAX_FRAME_BYTES
        with pytest.raises(asyncio.TimeoutError):
            _decode(_frame(header(pad)), eof=False, wait=0.2)
        with pytest.raises(ServiceError, match="MAX_FRAME_BYTES"):
            _decode(_frame(header(pad + 1)), eof=False)

    @pytest.mark.parametrize("buffers", [
        {"heard": ["<i8", [2]]},
        [["heard", "<i8"]],
        [("heard", "<i8", [2], 0)],
        [[3, "<i8", [2]]],
        [["heard", "<f8", [2]]],
        [["heard", "<i4", [2]]],
        [["heard", ">i8", [2]]],
        [["heard", "object", [2]]],
        [["heard", ["<i8"], [2]]],
        [["heard", "<i8", []]],
        [["heard", "<i8", [1, 1, 2]]],
        [["heard", "<i8", [-2]]],
        [["heard", "<i8", [True, 2]]],
        [["heard", "<i8", [2.0]]],
        [["heard", "<i8", 2]],
        [["heard", "<i8", [1]], ["heard", "<i8", [1]]],
        [["id", "<i8", [1]]],
        [["buffers", "<i8", [1]]],
    ])
    def test_malformed_buffer_lists(self, buffers):
        header = json.dumps({"id": 1, "buffers": buffers}).encode()
        with pytest.raises(ServiceError):
            _decode(_frame(header, b"\0" * 64))

    @pytest.mark.parametrize("header", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"id": ' + b"7" * 5000 + b"}",
        b'{"id": "\xff"}',
        b'{"id": 1',
        b"",
    ])
    def test_undecodable_headers(self, header):
        with pytest.raises(ServiceError, match="undecodable frame"):
            _decode(_frame(header))

    @pytest.mark.parametrize("message", [
        {"heard": np.arange(3, dtype=np.float64)},
        {"heard": np.arange(3, dtype=np.int32)},
        {"heard": np.arange(3, dtype=">i8")},
        {"heard": np.array(3, dtype=np.intp)},
        {"heard": np.zeros((1, 1, 3), dtype=np.intp)},
        {"buffers": []},
    ])
    def test_encoder_refuses_what_the_wire_cannot_carry(self, message):
        with pytest.raises(TypeError):
            encode_frame(message)


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class TestNetworkPool:
    @staticmethod
    def _net(seed, n=16):
        rng = np.random.default_rng(seed)
        net = uniform_square(n=n, side=1.5, rng=rng)
        net.gain_operator  # materialize so resident_bytes sees actuals
        return net

    def test_admit_and_get(self):
        pool = NetworkPool()
        net = self._net(0)
        fingerprint, evicted = pool.add(net)
        assert evicted == []
        assert pool.get(fingerprint) is net
        assert pool.get("missing") is None
        assert fingerprint in pool

    def test_lru_eviction_under_tight_budget(self):
        nets = [self._net(seed) for seed in range(3)]
        # Budget fits exactly two of the three resident networks
        # (equal-size deployments; eviction triggers strictly past it).
        budget = nets[0].resident_bytes() + nets[1].resident_bytes()
        pool = NetworkPool(budget_bytes=budget)
        fps = [pool.add(net)[0] for net in nets[:2]]
        assert len(pool) == 2
        # Touch the oldest so the *middle* one is least recently used.
        assert pool.get(fps[0]) is nets[0]
        fp2, evicted = pool.add(nets[2])
        assert evicted == [fps[1]]
        assert pool.get(fps[1]) is None
        assert pool.get(fps[0]) is nets[0]
        assert pool.get(fp2) is nets[2]

    def test_never_evicts_the_just_added_network(self):
        big = self._net(5, n=24)
        pool = NetworkPool(budget_bytes=1)  # nothing fits
        fingerprint, evicted = pool.add(big)
        assert evicted == []
        assert pool.get(fingerprint) is big

    def test_max_networks_cap(self):
        pool = NetworkPool(max_networks=2)
        fps = [pool.add(self._net(seed))[0] for seed in range(3)]
        assert len(pool) == 2
        assert pool.get(fps[0]) is None

    def test_stats_counters(self):
        pool = NetworkPool()
        fingerprint, _ = pool.add(self._net(1))
        pool.get(fingerprint)
        pool.get("nope")
        stats = pool.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["networks"] == 1
        assert stats["resident_bytes"] > 0


# ----------------------------------------------------------------------
# the coalescer
# ----------------------------------------------------------------------
class TestBatchCoalescer:
    def test_folds_concurrent_submissions(self):
        calls = []

        def fold(items):
            calls.append(len(items))
            return [i * 10 for i in items]

        async def go():
            co = BatchCoalescer(fold, window=0.01, max_batch=8)
            return await asyncio.gather(*(co.submit(i) for i in range(5))), co

        results, co = asyncio.run(go())
        assert results == [0, 10, 20, 30, 40]
        assert co.stats.requests == 5
        assert co.stats.batches == len(calls) < 5
        assert co.stats.max_batch > 1

    def test_max_batch_splits(self):
        sizes = []

        def fold(items):
            sizes.append(len(items))
            return list(items)

        async def go():
            co = BatchCoalescer(fold, window=0.01, max_batch=3)
            await asyncio.gather(*(co.submit(i) for i in range(7)))

        asyncio.run(go())
        assert max(sizes) <= 3 and sum(sizes) == 7

    def test_disabled_serves_singles(self):
        sizes = []

        def fold(items):
            sizes.append(len(items))
            return list(items)

        async def go():
            co = BatchCoalescer(fold, window=0, max_batch=1)
            await asyncio.gather(*(co.submit(i) for i in range(4)))
            return co

        co = asyncio.run(go())
        assert sizes == [1, 1, 1, 1]
        assert co.stats.folded == 0

    def test_cancellation_mid_batch_spares_batchmates(self):
        folded = []

        def fold(items):
            folded.append(sorted(items))
            return [i * 10 for i in items]

        async def go():
            co = BatchCoalescer(fold, window=0.05, max_batch=8)
            doomed = asyncio.ensure_future(co.submit(99))
            survivors = [
                asyncio.ensure_future(co.submit(i)) for i in (1, 2)
            ]
            await asyncio.sleep(0)  # all three join the pending batch
            doomed.cancel()
            results = await asyncio.gather(*survivors)
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return results, co

        results, co = asyncio.run(go())
        assert results == [10, 20]
        assert folded == [[1, 2]]  # the cancelled item never reached fold
        assert co.stats.max_batch == 2

    def test_fold_error_reaches_every_waiter(self):
        def fold(items):
            raise ValueError("kernel exploded")

        async def go():
            co = BatchCoalescer(fold, window=0.005)
            results = await asyncio.gather(
                co.submit(1), co.submit(2), return_exceptions=True
            )
            return results

        results = asyncio.run(go())
        assert all(isinstance(r, ValueError) for r in results)


# ----------------------------------------------------------------------
# serve == direct call, coalesced or not
# ----------------------------------------------------------------------
class TestCoalescedEquivalence:
    def _serve_all(self, **server_kwargs):
        async def go():
            async with _serve(**server_kwargs) as (server, client):
                built = await client.build(SPEC)
                sets = _transmitter_sets(built["n"], 12)
                replies = await asyncio.gather(*(
                    client.sinr(built["net"], tx, full=True) for tx in sets
                ))
                return built, sets, replies, server

        return asyncio.run(go())

    def test_coalesced_matches_uncoalesced_and_direct(self):
        built, sets, coalesced, server = self._serve_all(
            window=0.01, max_batch=16
        )
        _, _, singles, _ = self._serve_all(window=0, max_batch=1)

        # The coalesced run actually batched (else this test is vacuous).
        stats = [
            co.stats for co in server._coalescers.values()
        ]
        assert sum(s.requests for s in stats) == len(sets)
        assert max(s.max_batch for s in stats) > 1

        # Service (both modes) == direct in-process resolution, bitwise.
        net = build_network(SPEC)
        direct = resolve_reception_many(
            net.gain_operator, sets, net.params.noise, net.params.beta
        )
        for reply_c, reply_s, heard in zip(coalesced, singles, direct):
            assert reply_c["heard"] == reply_s["heard"] == heard.tolist()

    def test_sinr_validates_indices(self):
        async def go():
            async with _serve() as (_, client):
                built = await client.build(SPEC)
                with pytest.raises(ServiceError):
                    await client.sinr(built["net"], [built["n"]])

        asyncio.run(go())


def _sinr_reply(transmitters, **kwargs):
    """Reply (or the ServiceError) of one ``sinr`` request on SPEC."""
    async def go():
        async with _serve() as (_, client):
            built = await client.build(SPEC)
            try:
                return await client.sinr(built["net"], transmitters, **kwargs)
            except ServiceError as exc:
                return exc

    return asyncio.run(go())


class TestSinrRejectsMalformedQueries:
    """Each malformed query is refused, not coerced into another one."""

    def test_well_formed_query_is_answered(self):
        reply = _sinr_reply([3, 1], noise=1, beta=1.5)
        assert isinstance(reply, dict) and "receptions" in reply

    def test_fractional_transmitters(self):
        assert isinstance(_sinr_reply([3.7, 1.2]), ServiceError)

    def test_string_transmitters(self):
        assert isinstance(_sinr_reply(["3", "1"]), ServiceError)

    def test_nested_transmitters(self):
        assert isinstance(_sinr_reply([[3], [1]]), ServiceError)

    def test_boolean_transmitters(self):
        assert isinstance(_sinr_reply([True, False]), ServiceError)

    def test_beta_below_one(self):
        assert isinstance(_sinr_reply([3, 1], beta=0.5), ServiceError)

    def test_zero_noise(self):
        assert isinstance(_sinr_reply([3, 1], noise=0), ServiceError)

    def test_negative_noise(self):
        assert isinstance(_sinr_reply([3, 1], noise=-1), ServiceError)

    def test_non_finite_noise(self):
        for noise in (float("nan"), float("inf")):
            assert isinstance(_sinr_reply([3, 1], noise=noise), ServiceError)

    def test_non_finite_beta(self):
        for beta in (float("nan"), float("inf")):
            assert isinstance(_sinr_reply([3, 1], beta=beta), ServiceError)

    def test_non_numeric_noise_and_beta(self):
        assert isinstance(_sinr_reply([3, 1], noise="1"), ServiceError)
        assert isinstance(_sinr_reply([3, 1], beta=True), ServiceError)


def _op_reply(op, **fields):
    """Reply (or the ServiceError) of one raw ``op`` request on SPEC."""
    async def go():
        async with _serve() as (_, client):
            built = await client.build(SPEC)
            try:
                return await client.request(op, net=built["net"], **fields)
            except ServiceError as exc:
                return exc

    return asyncio.run(go())


class TestBallRejectsMalformedQueries:
    """A ``ball`` query needs an integer centre and a finite radius."""

    def test_well_formed_query_is_answered(self):
        reply = _op_reply("ball", center=3, radius=0.5)
        assert isinstance(reply, dict)
        assert reply["stations"] == build_network(SPEC).ball(3, 0.5).tolist()

    def test_string_center(self):
        reply = _op_reply("ball", center="3", radius=0.5)
        assert isinstance(reply, ServiceError)

    def test_fractional_center(self):
        reply = _op_reply("ball", center=3.7, radius=0.5)
        assert isinstance(reply, ServiceError)

    def test_boolean_center(self):
        reply = _op_reply("ball", center=True, radius=0.5)
        assert isinstance(reply, ServiceError)

    def test_string_radius(self):
        reply = _op_reply("ball", center=3, radius="0.5")
        assert isinstance(reply, ServiceError)

    def test_nan_radius(self):
        reply = _op_reply("ball", center=3, radius=float("nan"))
        assert isinstance(reply, ServiceError)

    def test_negative_radius(self):
        reply = _op_reply("ball", center=3, radius=-1)
        assert isinstance(reply, ServiceError)


class TestNonFiniteCoordinatesRefused:
    """``build`` and ``advance`` refuse NaN/inf positions from the wire
    (Python's ``json`` reads ``NaN`` and ``Infinity`` literals)."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_build_coords_spec(self, backend):
        coords = np.random.default_rng(5).uniform(0, 2.0, size=(20, 2))
        coords[4, 0] = np.nan

        async def go():
            async with _serve() as (server, client):
                with pytest.raises(ServiceError, match="DeploymentError"):
                    await client.build(
                        {"coords": coords.tolist(), "backend": backend}
                    )
                assert len(server.pool) == 0

        asyncio.run(go())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_advance(self, backend, bad):
        async def go():
            async with _serve() as (server, client):
                built = await client.build({**SPEC, "backend": backend})
                disp = np.zeros((built["n"], 2))
                disp[2, 1] = bad
                with pytest.raises(ServiceError, match="DeploymentError"):
                    await client.advance(built["net"], disp)
                assert len(server.pool) == 1

        asyncio.run(go())


class TestNonFiniteParamsRefused:
    """``build`` refuses NaN/inf SINR parameters from the wire.  NaN
    fails every comparison, so a check written as ``beta < 1`` let it
    through and admitted a network with ``power = nan`` and no edges."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["alpha", "beta", "noise"])
    def test_build_params(self, field, bad):
        spec = {"coords": [[0, 0], [0.5, 0], [1, 0]], "params": {field: bad}}

        async def go():
            async with _serve() as (server, client):
                with pytest.raises(ServiceError, match="ProtocolError"):
                    await client.build(spec)
                assert len(server.pool) == 0

        asyncio.run(go())


# ----------------------------------------------------------------------
# per-request timeouts (the unbounded-await bug)
# ----------------------------------------------------------------------
class _StalledSweepServer(ServiceServer):
    """Accepts ``sweep`` requests and never answers — the dead-peer
    shape (host crash, partition) that used to hang clients forever."""

    async def _op_sweep(self, request):
        await asyncio.sleep(3600)


class TestRequestTimeout:
    def test_stalled_request_raises_service_timeout(self):
        async def go():
            server = _StalledSweepServer()
            await server.start_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            client = await connect(f"tcp:{host}:{port}", timeout=0.2)
            try:
                with pytest.raises(ServiceTimeout, match="no response"):
                    await client.sweep(
                        "spont_broadcast", 1, 3,
                        descriptor={}, constants=CONSTANTS,
                    )
                # The connection survives an abandoned request: other
                # (answered) ops still work afterwards.
                assert await client.ping()
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(go())

    def test_per_request_override_beats_client_default(self):
        async def go():
            server = _StalledSweepServer()
            await server.start_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            # Client default would wait 3600s; the per-request override
            # must win.
            client = await connect(f"tcp:{host}:{port}", timeout=3600)
            try:
                start = asyncio.get_running_loop().time()
                with pytest.raises(ServiceTimeout):
                    await client.request("sweep", timeout=0.2, payload="")
                assert asyncio.get_running_loop().time() - start < 5
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(go())

    def test_timeout_none_waits_for_slow_reply(self):
        # ``timeout=None`` is "wait forever", not "wait zero": a reply
        # that takes real time must still arrive.
        async def go():
            async with _serve() as (_, client):
                client.timeout = None
                assert await client.ping()

        asyncio.run(go())


# ----------------------------------------------------------------------
# server ops
# ----------------------------------------------------------------------
class TestServerOps:
    def test_build_is_idempotent_and_pool_backed(self):
        async def go():
            async with _serve() as (server, client):
                first = await client.build(SPEC)
                again = await client.build(SPEC)
                assert again["net"] == first["net"]
                assert len(server.pool) == 1
                # The fingerprint shortcut skips the rebuild entirely.
                short = await client.build({"fingerprint": first["net"]})
                assert short["net"] == first["net"]
                return first

        built = asyncio.run(go())
        assert built["n"] == SPEC["args"]["n"]
        assert built["resident_bytes"] > 0

    def test_unknown_network_and_op_are_clean_errors(self):
        async def go():
            async with _serve() as (_, client):
                with pytest.raises(ServiceError, match="no resident"):
                    await client.sinr("f" * 64, [0])
                with pytest.raises(ServiceError, match="unknown op"):
                    await client.request("frobnicate")
                # The connection survives both errors.
                assert await client.ping()

        asyncio.run(go())

    def test_non_string_op_is_an_unknown_op(self):
        # A list or object op cannot name a handler; it gets the usual
        # error reply rather than leaving the caller to time out.
        async def go():
            async with _serve() as (_, client):
                for op in (["sinr"], {"a": 1}):
                    with pytest.raises(ServiceError, match="unknown op") as err:
                        await client.request(op, timeout=5)
                    assert not isinstance(err.value, ServiceTimeout)
                assert await client.ping()

        asyncio.run(go())

    @pytest.mark.parametrize("data, error", [
        # A peer speaking the newline-JSON framing: its first four
        # bytes read as a header length of 1,684,611,707.
        (b'{"id":1,"op":"ping"}\n', "MAX_FRAME_BYTES"),
        (_frame(b"[" * 100_000), "undecodable frame"),
        (_frame(b'{"id": ' + b"7" * 5000 + b"}"), "undecodable frame"),
        (_frame(b'{"id": "\xff"}'), "undecodable frame"),
    ])
    def test_unreadable_frame_gets_error_reply_and_drop(self, data, error):
        async def go():
            async with _serve() as (server, client):
                host, port = server.tcp_address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(data)
                    await writer.drain()
                    reply = await asyncio.wait_for(read_frame(reader), 5)
                    after = await asyncio.wait_for(read_frame(reader), 5)
                finally:
                    writer.close()
                # The daemon serves its other connections on.
                return reply, after, await client.ping()

        reply, after, alive = asyncio.run(go())
        assert reply["ok"] is False and reply["kind"] == "ServiceError"
        assert error in reply["error"]
        assert after is None
        assert alive

    @pytest.mark.parametrize("data, error", [
        (_frame(b"[" * 100_000), "undecodable frame"),
        (_frame(b'{"id": 1, "ok": true, "n": ' + b"7" * 5000 + b"}"),
         "undecodable frame"),
        (_frame(b'{"id": 1, "buffers": [["heard", "<f8", [1]]]}'),
         "dtype"),
    ])
    def test_unreadable_reply_fails_the_pending_request(self, data, error):
        # The client's read loop turns a reply it cannot decode into
        # that error for every pending request, not into a bare
        # exception that ends the loop as "connection closed".
        async def go():
            async with _scripted_peer(data) as client:
                with pytest.raises(ServiceError, match=error):
                    await client.ping()

        asyncio.run(go())

    def test_reply_is_ok_only_when_ok_is_true(self):
        # A frame can carry an array where the client expects a flag;
        # anything but ``ok: true`` is a ServiceError, not numpy's
        # ambiguous-truth ValueError.
        reply = encode_frame({"id": 1, "ok": np.array([1, 1], dtype=np.intp)})

        async def go():
            async with _scripted_peer(reply) as client:
                with pytest.raises(ServiceError):
                    await client.ping()

        asyncio.run(go())

    def test_reply_with_foreign_id_is_ignored(self):
        replies = b"".join(
            encode_frame(message) for message in (
                {"id": [1], "ok": True},
                {"id": np.array([1], dtype=np.intp), "ok": True},
                {"id": 1, "ok": True, "pong": True},
            )
        )

        async def go():
            async with _scripted_peer(replies) as client:
                return await client.ping()

        assert asyncio.run(go())

    def test_ball_graph_connected_match_direct(self):
        async def go():
            async with _serve() as (_, client):
                built = await client.build(SPEC)
                ball = await client.ball(built["net"], 0, 0.75)
                graph = await client.graph(built["net"])
                connected = await client.is_connected(built["net"])
                return ball, graph, connected

        ball, graph, connected = asyncio.run(go())
        net = build_network(SPEC)
        assert ball == np.asarray(net.ball(0, 0.75)).tolist()
        assert graph["num_edges"] == net.graph.number_of_edges()
        assert sorted(map(tuple, graph["edges"])) == sorted(
            (int(u), int(v)) for u, v in net.graph.edges()
        )
        assert connected == net.is_connected

    @pytest.mark.parametrize("spec", [
        SPEC, {**SPEC, "backend": "sparse", "cutoff": 1.0},
    ])
    def test_graph_reply_from_radius_query(self, spec):
        # The reply is the networkx graph's (edges in its order,
        # max_degree its degree maximum), yet the resident network
        # never builds that graph, which no pool budget counts.
        async def go():
            async with _serve() as (server, client):
                built = await client.build(spec)
                full = await client.graph(built["net"])
                counts = await client.graph(built["net"], count_only=True)
                resident = server.pool.get(built["net"])
                return full, counts, resident._graph

        full, counts, resident_graph = asyncio.run(go())
        graph = build_network(spec).graph
        expected = {
            "n": graph.number_of_nodes(),
            "num_edges": graph.number_of_edges(),
            "max_degree": max(degree for _, degree in graph.degree()),
        }
        assert {key: full[key] for key in expected} == expected
        assert full["edges"] == [[u, v] for u, v in graph.edges()]
        assert {key: counts[key] for key in expected} == expected
        assert "edges" not in counts
        assert resident_graph is None

    def test_advance_admits_successor(self):
        async def go():
            async with _serve() as (server, client):
                built = await client.build(SPEC)
                n = built["n"]
                still = await client.advance(built["net"], np.zeros((n, 2)))
                assert still["advance_mode"] == "unmoved"
                assert still["net"] == built["net"]
                rng = np.random.default_rng(1)
                moved = await client.advance(
                    built["net"], rng.normal(0, 0.01, size=(n, 2))
                )
                assert moved["net"] != built["net"]
                assert moved["net"] in server.pool
                # The successor serves queries immediately.
                reply = await client.sinr(moved["net"], [0], full=True)
                assert len(reply["heard"]) == n

        asyncio.run(go())

    def test_pool_eviction_is_visible_to_clients(self):
        async def go():
            pool = NetworkPool(max_networks=1)
            async with _serve(pool=pool) as (_, client):
                first = await client.build(SPEC)
                second = await client.build(
                    {**SPEC, "seed": 8}
                )
                assert first["net"] in second["evicted"]
                with pytest.raises(ServiceError, match="evicted"):
                    await client.sinr(first["net"], [0])

        asyncio.run(go())

    def test_stats_op(self):
        async def go():
            async with _serve() as (_, client):
                built = await client.build(SPEC)
                await client.sinr(built["net"], [0, 1])
                stats = await client.stats()
                return stats

        stats = asyncio.run(go())
        assert stats["pool"]["networks"] == 1
        assert stats["requests_served"] >= 2
        assert stats["coalescers"]
        assert stats["peak_rss_bytes"] > 0

    def test_client_timeout_mid_batch_leaves_server_healthy(self):
        # A client that stops waiting (timeout/cancel) mid-coalesce must
        # not corrupt the batch its request rode in: later requests on
        # the same connection still answer correctly.
        async def go():
            async with _serve(window=0.05) as (_, client):
                built = await client.build(SPEC)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        client.sinr(built["net"], [0]), timeout=0.001
                    )
                reply = await client.sinr(built["net"], [0], full=True)
                return built, reply

        built, reply = asyncio.run(go())
        net = build_network(SPEC)
        direct = resolve_reception_many(
            net.gain_operator, [np.array([0])],
            net.params.noise, net.params.beta,
        )[0]
        assert reply["heard"] == direct.tolist()


# ----------------------------------------------------------------------
# sweeps, caching and the grid execution path
# ----------------------------------------------------------------------
def _grid_points():
    return [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=1.5, rng=rng
            ),
            n_replications=2,
            label=f"n={n}",
            constants=CONSTANTS,
            kwargs={"source": Derived(lambda net, rng: 0)},
        )
        for n in (10, 12)
    ] + [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng: uniform_square(n=14, side=1.5, rng=rng),
            n_replications=2,
            label=f"shared-{src}",
            constants=CONSTANTS,
            kwargs={"source": src},
            share_deployment="svc-shared",
            post=_degree_post,
        )
        for src in (0, 5)
    ]


def _degree_post(net, sweep):
    return {"max_degree": int(net.max_degree)}


def _spec():
    return GridSpec(points=_grid_points(), seed=2014, name="svc-grid")


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.sweep.rounds, rb.sweep.rounds, equal_nan=True
        )
        assert np.array_equal(ra.sweep.success, rb.sweep.success)
        assert ra.extras == rb.extras


class TestSweepAndGrid:
    def test_sweep_server_side_cache(self, tmp_path):
        async def go():
            async with _serve(cache_dir=str(tmp_path)) as (_, client):
                built = await client.build(SPEC)
                first = await client.sweep(
                    "spont_broadcast", 2, 11, net=built["net"],
                    constants=CONSTANTS, kwargs={"source": 0},
                    key="svc-sweep-key",
                )
                second = await client.sweep(
                    "spont_broadcast", 2, 11, net=built["net"],
                    constants=CONSTANTS, kwargs={"source": 0},
                    key="svc-sweep-key",
                )
                return first, second

        first, second = asyncio.run(go())
        assert not first["cached"] and second["cached"]
        assert np.array_equal(
            first["sweep"].rounds, second["sweep"].rounds, equal_nan=True
        )

    def test_grid_service_matches_fork_pool(self):
        forked = run_grid(_spec(), jobs=2)
        with _server_thread() as address:
            served = run_grid(_spec(), workers=[address])
        _assert_same_results(forked, served)
        assert not any(r.cached for r in served)

    def test_service_run_populates_cli_cache(self, tmp_path):
        # Client-side writes: a service-backed grid run fills the same
        # store a plain CLI run replays from.
        with _server_thread() as address:
            served = run_grid(
                _spec(), workers=[address], cache_dir=str(tmp_path)
            )
        replay = run_grid(_spec(), jobs=1, cache_dir=str(tmp_path))
        assert all(r.cached for r in replay)
        _assert_same_results(served, replay)

    def test_server_cache_replays_in_cli_run(self, tmp_path):
        # Server-side writes: the daemon's own cache entries are keyed by
        # the ordinary point_key, so a CLI run against the same directory
        # replays them without recomputing.
        with _server_thread(cache_dir=str(tmp_path)) as address:
            served = run_grid(_spec(), workers=[address], cache=False)
        hookless = [
            r for r in run_grid(_spec(), jobs=1, cache_dir=str(tmp_path))
            if r.point.post is None
        ]
        assert hookless and all(r.cached for r in hookless)
        by_label = {r.point.label: r for r in served}
        for r in hookless:
            assert np.array_equal(
                r.sweep.rounds, by_label[r.point.label].sweep.rounds,
                equal_nan=True,
            )

    def test_pool_hits_across_grid_runs(self):
        # The cross-run win: a second service-backed run of the same spec
        # finds every deployment already resident.
        with _server_thread() as address:
            run_grid(_spec(), workers=[address])
            run_grid(_spec(), workers=[address])

            async def poolstats():
                client = await connect(address)
                try:
                    return (await client.stats())["pool"]
                finally:
                    await client.aclose()

            stats = asyncio.run(poolstats())
        assert stats["networks"] == 3  # deployments deduped, resident
        assert stats["hits"] >= 3  # second run served from the pool
