"""Load harness for the resident-network query service (DESIGN.md §8).

Two acceptance criteria of the service layer, asserted directly:

* **Serving throughput** — serving concurrent SINR queries against a
  resident n = 20,000 sparse deployment through the batch coalescer is
  at least **5x** the throughput of the pre-coalescer serving model
  (one ``B = 1`` masked batched-resolver call per request, kept here as
  a bench-local server), with identical responses.  Most of that gain
  comes from the serving resolver (candidate listeners, direct far-field
  gather), not from batching.  The solo server — the same daemon at
  ``max_batch=1, window=0``, one query per serving-resolver call — is
  timed too; its req/s and the batching-only ratio (coalesced over solo)
  are recorded and printed but not gated.  Coalesced serving is
  additionally asserted bitwise identical to *sequential*
  single-request serving through the same server — the coalescing
  contract itself.
* **Concurrency soak** — 1,000 simultaneous client connections each
  issuing a query all receive bitwise-correct answers; requests/s and
  p50/p99 latency are recorded.

The server serializes kernel calls through a single worker
(`ServiceServer._kernel_executor`), so both numbers measure batch
efficiency rather than how many cores the host happens to have.

CI uploads the pytest-benchmark JSON as ``BENCH_service.json``
alongside the other ``BENCH_*`` artifacts; the headline numbers also
land in ``extra_info``, with the core count and resolved kernel, so the
artifact is self-describing (``tools/bench_report.py`` lifts both into
a trajectory snapshot's ``machine`` block).
"""

import asyncio
import functools
import math
import os
import time

import numpy as np
import pytest

from repro.network.network import Network
from repro.service import BatchCoalescer, NetworkPool, ServiceServer, connect
from repro.sinr.reception import (
    NO_SENDER,
    resolve_reception_batch,
    resolve_reception_many,
)
from repro.sysmem import available_memory_bytes

SEED = 2014
N = 20_000
DENSITY = 6.0   # sparse regime: masked per-request far-field setup dominates
CUTOFF = 1.0

REQUESTS = 256          # concurrent queries in the throughput shootout
TX_PER_REQUEST = 8
THROUGHPUT_FLOOR = 5.0  # coalesced rps >= 5x pre-coalescer rps
SOAK_CLIENTS = 1000     # simultaneous connections in the soak
SOAK_CONNECT_WAVE = 100  # connections established per setup wave

needs_memory = pytest.mark.skipif(
    available_memory_bytes() < 2 * 10**9,
    reason="needs ~2 GB available memory for the 20k sparse build",
)


@pytest.fixture(scope="module")
def resident_network():
    """One hot n=20k sparse deployment shared by every load scenario."""
    side = math.sqrt(N / DENSITY)
    coords = np.random.default_rng(SEED).uniform(0, side, size=(N, 2))
    net = Network(coords, name=f"svc-{N}", backend="sparse", cutoff=CUTOFF)
    net.gain_operator  # build outside every timed region
    return net


def _transmitter_sets(count, seed=SEED + 1):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(N, size=TX_PER_REQUEST, replace=False)
        for _ in range(count)
    ]


def _expected_receptions(net, sets):
    """Reference replies straight from the serving resolver."""
    heard = resolve_reception_many(
        net.gain_operator, sets, net.params.noise, net.params.beta
    )
    out = []
    for row in heard:
        receivers = np.flatnonzero(row != NO_SENDER)
        out.append([[int(u), int(row[u])] for u in receivers])
    return out


def _fold_masked(gain_operator, noise, beta, sets):
    """One ``(1, n)`` masked batched-resolver call per query.

    What serving looked like before the coalescer and the serving
    resolver existed: each query builds its own transmitter mask and
    pays one full batched-resolver call, per-request cell and far-field
    setup included.  Replies use the serving fold's ``(receivers,
    senders)`` shape.
    """
    n = gain_operator.n
    out = []
    for transmitters in sets:
        mask = np.zeros((1, n), dtype=bool)
        mask[0, np.asarray(transmitters, dtype=np.intp)] = True
        row = resolve_reception_batch(gain_operator, mask, noise, beta)[0]
        receivers = np.flatnonzero(row != NO_SENDER)
        out.append((receivers, row[receivers]))
    return out


class _PreCoalescerServer(ServiceServer):
    """The stock daemon serving every query through :func:`_fold_masked`,
    one query per kernel call in arrival order."""

    def _coalescer_for(self, fingerprint, net, noise, beta):
        key = (fingerprint, float(noise), float(beta))
        if key not in self._coalescers:
            self._coalescers[key] = BatchCoalescer(
                functools.partial(
                    _fold_masked, net.gain_operator, float(noise), float(beta)
                ),
                window=0,
                max_batch=1,
                executor=self._kernel_executor,
            )
        return self._coalescers[key]


def _serve_load(net, sets, *, server_cls=ServiceServer, sequential=False,
                window=0.002, max_batch=128):
    """Serve ``sets`` through one server; return (elapsed, lat, heard).

    ``sequential=True`` awaits each request before issuing the next —
    the one-at-a-time serving the coalescing contract is anchored to.
    Otherwise all requests are issued concurrently over one pipelined
    connection.
    """

    async def go():
        server = server_cls(
            pool=NetworkPool(), window=window, max_batch=max_batch,
        )
        fingerprint, _ = server.pool.add(net)
        await server.start_tcp("127.0.0.1", 0)
        host, port = server.tcp_address
        client = await connect(f"tcp:{host}:{port}")
        latencies = [0.0] * len(sets)
        heard = [None] * len(sets)

        async def one(i, tx):
            t0 = time.perf_counter()
            reply = await client.sinr(fingerprint, tx)
            latencies[i] = time.perf_counter() - t0
            heard[i] = reply["receptions"]

        try:
            t0 = time.perf_counter()
            if sequential:
                for i, tx in enumerate(sets):
                    await one(i, tx)
            else:
                await asyncio.gather(
                    *(one(i, tx) for i, tx in enumerate(sets))
                )
            elapsed = time.perf_counter() - t0
        finally:
            await client.aclose()
            await server.aclose()
        return elapsed, latencies, heard

    return asyncio.run(go())


def _percentile(latencies, q):
    return float(np.percentile(np.asarray(latencies), q))


@needs_memory
def test_coalesced_throughput_floor(resident_network, benchmark, capsys):
    """Acceptance: coalesced serving >= 5x pre-coalescer, same answers."""
    net = resident_network
    sets = _transmitter_sets(REQUESTS)

    co_elapsed, co_lat, co_heard = _serve_load(net, sets)
    pre_elapsed, pre_lat, pre_heard = _serve_load(
        net, sets, server_cls=_PreCoalescerServer
    )
    solo_elapsed, solo_lat, solo_heard = _serve_load(
        net, sets, window=0, max_batch=1
    )
    _, _, seq_heard = _serve_load(net, sets, sequential=True)

    # The coalescing contract: a coalesced batch is bitwise identical
    # to the same queries served one at a time through the same server.
    assert co_heard == seq_heard == solo_heard
    # The serving resolver is the reference arithmetic.
    assert co_heard == _expected_receptions(net, sets)
    # The pre-coalescer fold agrees decision-for-decision here (its far
    # term is a different rounding of the same certified sum).
    assert co_heard == pre_heard

    rps_coalesced = REQUESTS / co_elapsed
    rps_pre_coalescer = REQUESTS / pre_elapsed
    rps_solo = REQUESTS / solo_elapsed
    speedup = rps_coalesced / rps_pre_coalescer
    batching_only = rps_coalesced / rps_solo
    with capsys.disabled():
        print(
            f"\nservice n={N} sparse, {REQUESTS} concurrent queries: "
            f"coalesced {rps_coalesced:.0f} req/s "
            f"(p99 {_percentile(co_lat, 99) * 1e3:.0f} ms) vs "
            f"pre-coalescer {rps_pre_coalescer:.0f} req/s "
            f"(p99 {_percentile(pre_lat, 99) * 1e3:.0f} ms) "
            f"-> {speedup:.1f}x (floor {THROUGHPUT_FLOOR}x); "
            f"solo server (max_batch=1, window=0) "
            f"{rps_solo:.0f} req/s "
            f"(p99 {_percentile(solo_lat, 99) * 1e3:.0f} ms) "
            f"-> batching only {batching_only:.2f}x (not gated)"
        )
    benchmark.extra_info.update(
        n=N,
        nproc=os.cpu_count(),
        kernel_kind=net.kernel_kind,
        requests=REQUESTS,
        tx_per_request=TX_PER_REQUEST,
        rps_coalesced=rps_coalesced,
        rps_solo=rps_solo,
        rps_pre_coalescer=rps_pre_coalescer,
        speedup=speedup,
        batching_only_ratio=batching_only,
        p99_coalesced_s=_percentile(co_lat, 99),
        p99_solo_s=_percentile(solo_lat, 99),
        p99_pre_coalescer_s=_percentile(pre_lat, 99),
    )
    assert speedup >= THROUGHPUT_FLOOR, (
        f"coalesced serving only {speedup:.1f}x the pre-coalescer "
        f"throughput (floor {THROUGHPUT_FLOOR}x)"
    )
    benchmark.pedantic(
        lambda: _serve_load(net, sets[:64]),
        rounds=1, iterations=1,
    )


@needs_memory
def test_thousand_client_soak(resident_network, benchmark, capsys, tmp_path):
    """1k simultaneous connections, every answer bitwise correct."""
    resource = pytest.importorskip("resource")
    need = SOAK_CLIENTS * 2 + 256
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        if hard < need:
            pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {need}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))

    net = resident_network
    sets = _transmitter_sets(SOAK_CLIENTS, seed=SEED + 2)
    sock = str(tmp_path / "soak.sock")

    async def go():
        server = ServiceServer(pool=NetworkPool(), window=0.002,
                               max_batch=128)
        fingerprint, _ = server.pool.add(net)
        await server.start_unix(sock)
        latencies = [0.0] * SOAK_CLIENTS
        heard = [None] * SOAK_CLIENTS

        # Establish the thousand connections in waves so the connect
        # burst itself doesn't trip accept-queue / fd-rate limits; the
        # queries then all go out simultaneously.
        clients = []
        try:
            for base in range(0, SOAK_CLIENTS, SOAK_CONNECT_WAVE):
                clients.extend(await asyncio.gather(*(
                    connect(f"unix:{sock}")
                    for _ in range(
                        base, min(base + SOAK_CONNECT_WAVE, SOAK_CLIENTS)
                    )
                )))

            async def one_client(i, tx):
                t0 = time.perf_counter()
                reply = await clients[i].sinr(fingerprint, tx)
                latencies[i] = time.perf_counter() - t0
                heard[i] = reply["receptions"]

            t0 = time.perf_counter()
            await asyncio.gather(
                *(one_client(i, tx) for i, tx in enumerate(sets))
            )
            elapsed = time.perf_counter() - t0
        finally:
            for client in clients:
                await client.aclose()
            await server.aclose()
        return elapsed, latencies, heard, server

    elapsed, latencies, heard, server = asyncio.run(go())

    assert all(h is not None for h in heard)
    assert heard == _expected_receptions(net, sets)

    rps = SOAK_CLIENTS / elapsed
    p50 = _percentile(latencies, 50)
    p99 = _percentile(latencies, 99)
    batched = max(
        co.stats.max_batch for co in server._coalescers.values()
    )
    with capsys.disabled():
        print(
            f"\nsoak n={N} sparse, {SOAK_CLIENTS} concurrent clients: "
            f"{rps:.0f} req/s, p50 {p50 * 1e3:.0f} ms, "
            f"p99 {p99 * 1e3:.0f} ms, largest batch {batched}"
        )
    benchmark.extra_info.update(
        n=N, nproc=os.cpu_count(), kernel_kind=net.kernel_kind,
        clients=SOAK_CLIENTS, rps=rps, p50_s=p50, p99_s=p99,
        max_batch=batched,
    )
    assert batched > 1  # the soak actually exercised coalescing
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
