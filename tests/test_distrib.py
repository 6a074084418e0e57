"""Tests for multi-host sweep sharding over the cache result bus.

The load-bearing claims of DESIGN.md §9, each pinned here:

* **Leases are atomically exclusive** — of any number of concurrent
  claimants exactly one wins (``O_CREAT | O_EXCL`` arbitration), an
  expired lease is stolen with read-back confirmation, and only the
  holder can refresh or release.
* **The cache is a sound multi-writer bus** — concurrent ``put`` calls
  for one key never produce a torn read (readers see a complete old or
  complete new payload), and ``prune`` racing ``get`` degrades to a
  miss, never an error.
* **Sharding is invisible** — ``run_grid(workers=[a, b])`` is bitwise
  identical to ``jobs=1``, whatever the placement.
* **Failure is per point, not per run** — dead addresses, flaky
  servers, stalled servers and SIGKILLed daemons cost retries or a
  local fallback, never a lost result (the ``_run_service`` gather bug
  this PR fixes).

Server-failure injection subclasses :class:`ServiceServer` in-process
(background thread, own loop); the SIGKILL test uses real
``python -m repro.service`` subprocesses because only a separate
process can be killed mid-point.
"""

import asyncio
import contextlib
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.distrib import LeaseBoard, PointRequest, run_sharded
from repro.distrib.leases import LEASE_SUFFIX
from repro.fastsim.cache import ResultCache
from repro.fastsim.grid import Derived, GridPoint, GridSpec, run_grid
from repro.service import ServiceError, ServiceServer

CONSTANTS = ProtocolConstants.practical()

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# lease files
# ----------------------------------------------------------------------
class TestLeaseBoard:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, ttl=30.0)
        b = LeaseBoard(tmp_path, ttl=30.0)
        assert a.claim("k")
        assert not b.claim("k")
        assert b.contended == 1
        assert a.path("k").name == f"k{LEASE_SUFFIX}"

    def test_reclaim_by_owner_refreshes(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30.0)
        assert board.claim("k")
        first = board.read("k")
        time.sleep(0.05)
        assert board.claim("k")
        assert board.read("k").deadline > first.deadline
        # claimed_at survives the refresh — it names the original claim.
        assert board.read("k").claimed_at == pytest.approx(
            first.claimed_at
        )

    def test_release_then_reclaim(self, tmp_path):
        a = LeaseBoard(tmp_path, ttl=30.0)
        b = LeaseBoard(tmp_path, ttl=30.0)
        assert a.claim("k")
        assert a.release("k")
        assert b.claim("k")
        assert a.released == 1

    def test_release_foreign_fails(self, tmp_path):
        a = LeaseBoard(tmp_path, ttl=30.0)
        b = LeaseBoard(tmp_path, ttl=30.0)
        assert a.claim("k")
        assert not b.release("k")
        assert a.read("k") is not None

    def test_expired_lease_is_stolen(self, tmp_path):
        dead = LeaseBoard(tmp_path, ttl=0.05)
        live = LeaseBoard(tmp_path, ttl=30.0)
        assert dead.claim("k")
        time.sleep(0.1)
        assert live.claim("k")
        assert live.stolen == 1
        assert live.read("k").owner == live.owner

    def test_refresh_extends_and_respects_ownership(self, tmp_path):
        a = LeaseBoard(tmp_path, ttl=1.0)
        b = LeaseBoard(tmp_path, ttl=1.0)
        assert a.claim("k")
        before = a.read("k").deadline
        time.sleep(0.05)
        assert a.refresh("k")
        assert a.read("k").deadline > before
        assert not b.refresh("k")
        assert not b.refresh("missing")

    def test_unreadable_lease_degrades_to_mtime_deadline(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.2)
        path = board.path("k")
        path.write_text("not json {")
        state = board.read("k")
        assert state.owner == "<unreadable>"
        assert not board.claim("k")  # fresh garbage gets its grace
        old = time.time() - 1.0
        os.utime(path, (old, old))
        assert board.claim("k")  # ...then becomes stealable
        assert json.loads(path.read_text())["owner"] == board.owner

    def test_read_missing_is_none(self, tmp_path):
        assert LeaseBoard(tmp_path).read("missing") is None

    def test_concurrent_claims_have_one_winner(self, tmp_path):
        boards = [LeaseBoard(tmp_path, ttl=30.0) for _ in range(4)]
        for round_no in range(5):
            key = f"k{round_no}"
            barrier = threading.Barrier(len(boards))
            wins: list = []

            def race(board):
                barrier.wait()
                if board.claim(key):
                    wins.append(board.owner)

            threads = [
                threading.Thread(target=race, args=(b,)) for b in boards
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(wins) == 1

    def test_stats_shape(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=2.0)
        board.claim("k")
        board.release("k")
        stats = board.stats()
        assert stats["claimed"] == 1 and stats["released"] == 1
        assert stats["ttl_s"] == 2.0 and stats["owner"] == board.owner


# ----------------------------------------------------------------------
# the cache as a multi-writer result bus
# ----------------------------------------------------------------------
def _hammer_put(root, key, n, rounds):
    """Subprocess body: repeatedly publish the deterministic payload."""
    cache = ResultCache(root)
    payload = (np.arange(n, dtype=np.float64), {"n": n})
    for _ in range(rounds):
        cache.put(key, payload)


class TestCacheBus:
    def test_concurrent_put_never_torn(self, tmp_path):
        # Two writer processes publish the same (deterministic) payload
        # for one key while this process reads in a loop: every read is
        # either a miss (nothing published yet) or the complete payload
        # — never a torn pickle, which would surface as a miss *after*
        # a hit or as a corrupted array.
        key, n = "bus-key", 50_000
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_hammer_put, args=(str(tmp_path), key, n, 40)
            )
            for _ in range(2)
        ]
        for w in writers:
            w.start()
        cache = ResultCache(tmp_path)
        seen = False
        try:
            while any(w.is_alive() for w in writers):
                hit = cache.get(key)
                if hit is None:
                    assert not seen, "hit regressed to miss (torn write)"
                    continue
                seen = True
                arr, extras = hit
                assert extras == {"n": n}
                assert arr.shape == (n,) and arr[-1] == n - 1
        finally:
            for w in writers:
                w.join(30)
        assert seen
        assert all(w.exitcode == 0 for w in writers)
        final = cache.get(key)
        assert final is not None and final[0].shape == (n,)

    def test_prune_racing_get_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(30):
            cache.put(f"k{i}", (np.arange(100), {}))
        stop = threading.Event()
        errors: list = []

        def pruner():
            try:
                while not stop.is_set():
                    cache.prune(max_entries=5)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        thread = threading.Thread(target=pruner)
        thread.start()
        try:
            deadline = time.time() + 1.0
            while time.time() < deadline:
                for i in range(30):
                    hit = cache.get(f"k{i}")
                    if hit is not None:
                        assert hit[0].shape == (100,)
        finally:
            stop.set()
            thread.join(10)
        assert not errors
        # The bus stays writable after any amount of pruning.
        cache.put("fresh", (np.arange(3), {}))
        assert cache.get("fresh") is not None


# ----------------------------------------------------------------------
# grid helpers shared by the sharding tests
# ----------------------------------------------------------------------
def _grid_points(hooked=True):
    points = [
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
        for n in (10, 11, 12, 13)
    ]
    if hooked:
        points += [
            GridPoint(
                kind="spont_broadcast",
                deployment=lambda rng: uniform_square(
                    n=14, side=1.5, rng=rng
                ),
                n_replications=2,
                label=f"shared-{src}",
                constants=CONSTANTS,
                kwargs={"source": src},
                share_deployment="distrib-shared",
                post=_degree_post,
            )
            for src in (0, 5)
        ]
    return points


def _degree_post(net, sweep):
    return {"max_degree": int(net.max_degree)}


def _spec(hooked=True):
    return GridSpec(
        points=_grid_points(hooked), seed=2014, name="distrib-grid"
    )


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.sweep.rounds, rb.sweep.rounds, equal_nan=True
        )
        assert np.array_equal(ra.sweep.success, rb.sweep.success)
        assert ra.extras == rb.extras


class _ServerThread:
    """An in-process daemon on a background thread (its own loop)."""

    def __init__(self, factory=ServiceServer, **server_kwargs):
        self.address = None
        self._ready = threading.Event()
        self._loop = None
        self._server = None
        self._thread = threading.Thread(
            target=self._run, args=(factory,), kwargs=server_kwargs,
            daemon=True,
        )
        self._thread.start()
        assert self._ready.wait(20), "service thread failed to start"

    def _run(self, factory, **server_kwargs):
        async def main():
            self._server = factory(**server_kwargs)
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
def _server_thread(factory=ServiceServer, **server_kwargs):
    thread = _ServerThread(factory, **server_kwargs)
    try:
        yield thread.address
    finally:
        thread.stop()


class _FlakyServer(ServiceServer):
    """Fails the first ``fail_first`` sweep requests, then behaves."""

    fail_first = 0

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sweep_calls = 0

    async def _op_sweep(self, request):
        self.sweep_calls += 1
        if self.sweep_calls <= self.fail_first:
            raise ServiceError("injected flake")
        return await super()._op_sweep(request)


class _FlakyOnce(_FlakyServer):
    """One injected failure — the single-retry path."""

    fail_first = 1


class _AlwaysFails(_FlakyServer):
    """Every sweep fails — forces the local-fallback path."""

    fail_first = 10**9


class _StalledServer(ServiceServer):
    """Accepts sweeps and never answers them (dead-but-connected peer)."""

    async def _op_sweep(self, request):
        await asyncio.sleep(3600)


# ----------------------------------------------------------------------
# sharded run_grid
# ----------------------------------------------------------------------
class TestShardedGrid:
    def test_two_workers_bitwise_identical_to_serial(self, tmp_path):
        serial = run_grid(_spec(), jobs=1)
        with _server_thread() as a, _server_thread() as b:
            sharded = run_grid(
                _spec(), workers=[a, b], cache_dir=str(tmp_path)
            )
        _assert_same_results(serial, sharded)
        assert not any(r.cached for r in sharded)
        # ...and the shard run's publishes replay in a plain CLI run.
        replay = run_grid(_spec(), jobs=1, cache_dir=str(tmp_path))
        assert all(r.cached for r in replay)
        _assert_same_results(serial, replay)

    def test_dead_address_among_workers_is_survived(self):
        serial = run_grid(_spec(), jobs=1)
        with _server_thread() as alive:
            # Port 9 (discard) on loopback: connection refused, fast.
            sharded = run_grid(
                _spec(), workers=[alive, "tcp:127.0.0.1:9"]
            )
        _assert_same_results(serial, sharded)

    def test_all_workers_dead_falls_back_to_local(self):
        serial = run_grid(_spec(), jobs=1)
        with pytest.warns(RuntimeWarning, match="fall back to local"):
            sharded = run_grid(
                _spec(), workers=["tcp:127.0.0.1:9"]
            )
        _assert_same_results(serial, sharded)

    def test_flaky_server_point_is_retried(self):
        # One injected failure: the point is retried (same worker — the
        # server is healthy, the *point* failed) and the run completes
        # remotely, with no fallback warning.
        serial = run_grid(_spec(), jobs=1)
        with _server_thread(factory=_FlakyOnce) as address:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                served = run_grid(_spec(), workers=[address])
        _assert_same_results(serial, served)

    def test_persistent_server_failure_falls_back_locally(self):
        serial = run_grid(_spec(), jobs=1)
        with _server_thread(factory=_AlwaysFails) as address:
            with pytest.warns(
                RuntimeWarning, match="injected flake"
            ):
                served = run_grid(_spec(), workers=[address])
        _assert_same_results(serial, served)

    def test_stalled_worker_points_are_redispatched(self):
        # The straggler path: a worker that accepts requests and never
        # answers must not hang the sweep — its points time out and are
        # re-dispatched (to the healthy worker or the local fallback).
        serial = run_grid(_spec(hooked=False), jobs=1)
        with _server_thread(factory=_StalledServer) as stalled, \
                _server_thread() as healthy:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                served = run_grid(
                    _spec(hooked=False),
                    workers=[stalled, healthy],
                    request_timeout=0.5,
                )
        _assert_same_results(serial, served)


# ----------------------------------------------------------------------
# run_sharded unit level
# ----------------------------------------------------------------------
class TestRunSharded:
    def test_empty_addresses_leaves_everything(self):
        req = PointRequest(
            index=0, kind="spont_broadcast", n_replications=1, seed=1,
            constants=None, kwargs={},
            fingerprint="fp", descriptor={},
        )
        stats = run_sharded([req], [], on_sweep=lambda i, s: None)
        assert stats.leftover == [0]
        assert stats.delivered == 0

    def test_bus_recovery_skips_dispatch(self, tmp_path):
        # A point already on the bus (published by anyone) is delivered
        # without a working connection: only dead addresses are given.
        cache = ResultCache(tmp_path)
        cache.put("k0", ("payload", {}))
        req = PointRequest(
            index=0, kind="spont_broadcast", n_replications=1, seed=1,
            constants=None, kwargs={},
            fingerprint="fp", descriptor={}, key="k0",
        )
        got: dict = {}
        with _server_thread() as address:
            stats = run_sharded(
                [req], [address],
                on_sweep=lambda i, s: got.update({i: s}),
                store=cache,
            )
        assert got == {0: "payload"}
        assert stats.recovered == 1 and stats.leftover == []

    def test_request_timeout_none_keeps_client_default(self, monkeypatch):
        # ``request_timeout=None`` means "the client default", never
        # "wait forever": a worker that accepts a sweep and then stalls
        # must hand the point back as a leftover.
        from repro.service import client as client_module

        monkeypatch.setattr(client_module, "DEFAULT_REQUEST_TIMEOUT", 0.2)
        req = PointRequest(
            index=0, kind="spont_broadcast", n_replications=1, seed=1,
            constants=None, kwargs={},
            fingerprint="fp", descriptor={},
        )
        outcome: dict = {}
        with _server_thread(factory=_StalledServer) as address:
            runner = threading.Thread(
                target=lambda: outcome.update(stats=run_sharded(
                    [req], [address], on_sweep=lambda i, s: None,
                    request_timeout=None,
                )),
                daemon=True,
            )
            runner.start()
            runner.join(20)
            stalled = runner.is_alive()
        runner.join(20)
        assert not stalled, "run_sharded waited forever on a stalled worker"
        assert outcome["stats"].leftover == [0]
        assert outcome["stats"].delivered == 0


# ----------------------------------------------------------------------
# real daemons, real SIGKILL
# ----------------------------------------------------------------------
def _spawn_daemon(cache_dir=None, lease_ttl=None):
    """Launch ``python -m repro.service`` and wait for its address."""
    cmd = [sys.executable, "-m", "repro.service", "--tcp", "127.0.0.1:0"]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if lease_ttl is not None:
        cmd += ["--lease-ttl", str(lease_ttl)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on "), line
    return proc, line[len("serving on "):]


class TestDaemonKill:
    def test_sigkill_mid_sweep_loses_no_results(self, tmp_path):
        serial = run_grid(_spec(hooked=False), jobs=1)
        victim, victim_addr = _spawn_daemon(
            cache_dir=tmp_path, lease_ttl=1.0
        )
        survivor, survivor_addr = _spawn_daemon(
            cache_dir=tmp_path, lease_ttl=1.0
        )
        try:
            # SIGKILL the victim shortly into the sweep: in-flight
            # requests die with the socket; their points re-dispatch to
            # the survivor (the victim's leases expire within a ttl) or
            # to the local fallback.  Every result must still arrive.
            killer = threading.Timer(
                0.3, lambda: victim.kill()
            )
            killer.start()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sharded = run_grid(
                    _spec(hooked=False),
                    workers=[victim_addr, survivor_addr],
                    cache_dir=str(tmp_path),
                    request_timeout=15.0,
                )
            killer.cancel()
        finally:
            victim.kill()
            if survivor.poll() is None:
                survivor.send_signal(signal.SIGTERM)
            victim.wait(10)
            survivor.wait(10)
        assert all(r is not None for r in sharded)
        _assert_same_results(serial, sharded)
        # Whatever the kill timing, no lease survives the run long-term
        # accounting: the bus holds every point's entry.
        replay = run_grid(
            _spec(hooked=False), jobs=1, cache_dir=str(tmp_path)
        )
        assert all(r.cached for r in replay)
        _assert_same_results(serial, replay)
