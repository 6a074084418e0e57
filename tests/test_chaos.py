"""Chaos tests: the crash-safety layer under deterministic faults.

The crash-safe sweep machinery (DESIGN.md §10) makes three promises,
each provoked and pinned here with the seeded fault-injection layer
(:mod:`repro.faults`):

* **No lost results.**  Every completed point is durably journaled
  after its cache ``put`` lands; a coordinator killed mid-sweep —
  ``KeyboardInterrupt``, SIGTERM, SIGKILL — is simply rerun: the rerun
  replays the completed points from the cache, counts the journaled
  ones, recomputes only the rest, and produces results bitwise
  identical to an uninterrupted run.
* **No corrupt replays.**  A torn or bit-rotted cache entry fails its
  checksum, is quarantined, and degrades to a miss; a mangled service
  reply fails its payload checksum and is re-dispatched — damaged
  bytes are never consumed, anywhere.
* **No leaked resources.**  An interrupted fork-pool grid tears its
  pool down and leaves nothing in ``/dev/shm`` (its workers share the
  parent's networks through ``fork``), and SIGTERM drains exactly like
  Ctrl-C.

The failure-matrix rows (DESIGN.md §9.3/§10.4) that need a live server
use an in-process :class:`ServiceServer` on a background thread with a
:func:`repro.faults.active` plan — the *stock* server, faulted at its
instrumented sites, not a subclass with rigged methods.  The tests
that need a real corpse (SIGKILL, signal drains) re-execute this file
as a subprocess (see the ``__main__`` block at the bottom).
"""

import asyncio
import contextlib
import errno
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import faults
from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.faults import FaultPlan, FaultRule
from repro.fastsim.cache import QUARANTINE_SUFFIX, ResultCache
from repro.fastsim.grid import (
    GridPoint,
    GridSpec,
    last_grid_stats,
    run_grid,
)
from repro.fastsim.journal import JOURNAL_SUFFIX, SweepJournal, sweep_key
from repro.service import ServiceServer

CONSTANTS = ProtocolConstants.practical()

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test starts and ends fault-free (plans are process-global)."""
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# grid fixtures
# ----------------------------------------------------------------------
#: Knobs for :func:`_bomb_post`, the interrupting post-hook: ``armed``
#: turns the bomb on, ``after`` is how many calls survive first.  A
#: module global (not a closure) so the hook's identity — and with it
#: the cache keys — is the same in reference and interrupted runs.
_BOMB = {"armed": False, "after": 0, "calls": 0}


def _bomb_post(net, sweep):
    _BOMB["calls"] += 1
    if _BOMB["armed"] and _BOMB["calls"] > _BOMB["after"]:
        raise KeyboardInterrupt("chaos bomb")
    return {"deg": int(net.max_degree)}


def _disarm_bomb():
    _BOMB.update(armed=False, after=0, calls=0)


def _arm_bomb(after):
    _BOMB.update(armed=True, after=after, calls=0)


def _sleepy_post(net, sweep):
    """Deterministic extras, tunable wall-clock cost (``__main__`` modes).

    The sleep comes from the environment, not an argument, so the
    function's identity — part of the cache key — is the same whether
    the run is slow (so a signal can land mid-sweep) or fast (the
    rerun / reference runs).
    """
    time.sleep(float(os.environ.get("REPRO_TEST_POINT_SLEEP", "0")))
    return {"deg": int(net.max_degree)}


def _chaos_spec(post=None, name="chaos-grid", sizes=(10, 11, 12, 13)):
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=1.5, rng=rng
            ),
            n_replications=2,
            label=f"n={n}",
            constants=CONSTANTS,
            kwargs={"source": 0},
            post=post,
        )
        for n in sizes
    ]
    return GridSpec(points=points, seed=2014, name=name)


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.sweep.rounds, rb.sweep.rounds, equal_nan=True
        )
        assert np.array_equal(ra.sweep.success, rb.sweep.success)
        assert ra.extras == rb.extras


class _ServerThread:
    """A stock in-process daemon on a background thread (its own loop)."""

    def __init__(self, **server_kwargs):
        self.address = None
        self.server = None
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(
            target=self._run, kwargs=server_kwargs, daemon=True
        )
        self._thread.start()
        assert self._ready.wait(20), "service thread failed to start"

    def _run(self, **server_kwargs):
        async def main():
            self.server = ServiceServer(**server_kwargs)
            await self.server.start_tcp("127.0.0.1", 0)
            host, port = self.server.tcp_address
            self.address = f"tcp:{host}:{port}"
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def stop(self):
        self._loop.call_soon_threadsafe(self.server.shutdown)
        self._thread.join(20)


@contextlib.contextmanager
def _server_thread(**server_kwargs):
    thread = _ServerThread(**server_kwargs)
    try:
        yield thread
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# the plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_no_plan_means_no_faults(self):
        assert faults.current() is None
        assert faults.maybe_fire("cache.put.torn") is None

    def test_unruled_site_never_fires(self):
        with faults.active(FaultPlan([FaultRule("a.site")])):
            assert faults.maybe_fire("another.site") is None
            assert faults.maybe_fire("a.site") is not None

    def test_decisions_are_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan([FaultRule("s", p=0.5)], seed=seed)
            return [plan.fires("s") is not None for _ in range(200)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_after_and_max_fires(self):
        plan = FaultPlan([FaultRule("s", after=2, max_fires=1)])
        assert plan.fires("s") is None
        assert plan.fires("s") is None
        event = plan.fires("s")
        assert event is not None
        assert event.call == 3 and event.fire == 1
        assert plan.fires("s") is None  # budget spent
        assert plan.stats() == {"s": {"calls": 4, "fires": 1}}
        assert [e.call for e in plan.record] == [3]

    def test_one_rule_per_site(self):
        with pytest.raises(ValueError, match="one FaultRule per site"):
            FaultPlan([FaultRule("s"), FaultRule("s", p=0.5)])

    def test_spec_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("a", p=0.25, max_fires=3, after=1, delay_s=0.5),
             FaultRule("b")],
            seed=42,
            kills=[{"delay_s": 1.0, "target": "victim"}],
        )
        rebuilt = FaultPlan.from_spec(plan.to_spec())
        assert rebuilt.rules == plan.rules
        assert rebuilt.seed == plan.seed and rebuilt.kills == plan.kills
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.to_spec() == plan.to_spec()
        # Counters are not part of the spec: a rebuilt plan starts fresh.
        plan.fires("b")
        assert FaultPlan.from_spec(plan.to_spec()).stats()["b"]["calls"] == 0

    def test_active_restores_previous_plan(self):
        outer = FaultPlan([FaultRule("x")])
        inner = FaultPlan([FaultRule("y")])
        with faults.active(outer):
            with faults.active(inner):
                assert faults.current() is inner
            assert faults.current() is outer
        assert faults.current() is None

    def test_env_var_installs_plan_at_import(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultRule("cache.put.torn")], seed=99).save(plan_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env[faults.PLAN_ENV_VAR] = str(plan_path)
        out = subprocess.run(
            [sys.executable, "-c",
             "import json\n"
             "from repro import faults\n"
             "print(json.dumps(faults.current().to_spec()))"],
            env=env, capture_output=True, text=True, check=True,
        )
        spec = json.loads(out.stdout)
        assert spec["seed"] == 99
        assert spec["rules"][0]["site"] == "cache.put.torn"


# ----------------------------------------------------------------------
# cache integrity under injected faults
# ----------------------------------------------------------------------
class TestCacheFaults:
    def test_torn_put_quarantined_never_consumed(self, tmp_path):
        cache = ResultCache(tmp_path)
        with faults.active(
            FaultPlan([FaultRule("cache.put.torn", max_fires=1)])
        ):
            cache.put("k", (np.arange(500), {"n": 500}))
            # The entry on disk is truncated mid-payload; its checksum
            # header promises the full blob, so the read must refuse it.
            assert cache.get("k") is None
        assert cache.quarantined == 1
        quarantines = list(tmp_path.glob("*" + QUARANTINE_SUFFIX))
        assert len(quarantines) == 1
        # The slot is free again: a clean rewrite round-trips.
        cache.put("k", (np.arange(500), {"n": 500}))
        hit = cache.get("k")
        assert hit is not None and hit[0].shape == (500,)

    def test_enospc_surfaces_as_oserror(self, tmp_path):
        cache = ResultCache(tmp_path)
        with faults.active(
            FaultPlan([FaultRule("cache.put.enospc", max_fires=1)])
        ):
            with pytest.raises(OSError) as exc_info:
                cache.put("k", ("payload", {}))
            assert exc_info.value.errno == errno.ENOSPC
            # No half-written entry or temp debris survives the failure.
            assert cache.get("k") is None
            assert list(tmp_path.glob(".*.tmp")) == []
            cache.put("k", ("payload", {}))  # budget spent: succeeds
            assert cache.get("k") == ("payload", {})

    def test_bit_rot_on_read_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", (np.arange(100), {}))
        with faults.active(
            FaultPlan([FaultRule("cache.get.corrupt", max_fires=1)])
        ):
            assert cache.get("k") is None  # byte flipped on disk
        assert cache.quarantined == 1
        assert cache.get("k") is None  # quarantined, stays a miss

    def test_verify_distinguishes_corrupt_from_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("good", ("v", {}))
        cache.put("bad", ("v", {}))
        path = cache._path("bad")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        report = cache.verify()
        assert report["verified"] == 1 and report["corrupt"] == 1
        assert report["corrupt_keys"] == ["bad"]
        assert path.exists()  # verify is read-only
        assert cache.get("bad") is None  # ...but a real read quarantines
        report = cache.verify()
        assert report["corrupt"] == 0 and report["quarantined"] == 1


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_load_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path, "abc123")
        assert journal.load() == {} and not journal.path.exists()
        journal.append("k1")
        journal.append("k2", {"index": 7})
        assert journal.path.exists()
        assert journal.path.name == "abc123" + JOURNAL_SUFFIX
        done = journal.load()
        assert done == {"k1": {"key": "k1"},
                        "k2": {"index": 7, "key": "k2"}}
        assert journal.torn == 0

    def test_torn_tail_is_discarded_not_fatal(self, tmp_path):
        journal = SweepJournal(tmp_path, "abc123")
        journal.append("k1")
        journal.append("k2")
        # A crash mid-append leaves a partial trailing line.
        with open(journal.path, "ab") as handle:
            handle.write(b'{"key": "k3"')
        done = journal.load()
        assert set(done) == {"k1", "k2"}
        assert journal.torn == 1
        # The journal stays appendable after the damage.
        journal.append("k4")
        assert set(journal.load()) == {"k1", "k2", "k4"}

    def test_meta_cannot_override_key(self, tmp_path):
        journal = SweepJournal(tmp_path, "abc123")
        with pytest.raises(ValueError, match="override"):
            journal.append("k1", {"key": "impostor"})

    def test_complete_removes_and_tolerates_missing(self, tmp_path):
        journal = SweepJournal(tmp_path, "abc123")
        journal.complete()  # nothing to remove: fine
        journal.append("k1")
        journal.complete()
        assert not journal.path.exists() and journal.load() == {}

    def test_sweep_key_is_order_free_and_input_bound(self):
        base = sweep_key("grid", 2014, ["a", "b", "c"])
        assert sweep_key("grid", 2014, ["c", "a", "b"]) == base
        assert sweep_key("grid", 2015, ["a", "b", "c"]) != base
        assert sweep_key("other", 2014, ["a", "b", "c"]) != base
        assert sweep_key("grid", 2014, ["a", "b"]) != base


# ----------------------------------------------------------------------
# interrupt + rerun, in process
# ----------------------------------------------------------------------
class TestResume:
    def test_interrupt_then_resume_is_bitwise_identical(self, tmp_path):
        spec = _chaos_spec(post=_bomb_post)
        _disarm_bomb()
        reference = run_grid(
            spec, jobs=1, cache_dir=str(tmp_path / "ref")
        )

        work = tmp_path / "work"
        _arm_bomb(after=2)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_grid(spec, jobs=1, cache_dir=str(work))
        finally:
            _disarm_bomb()
        journals = list(work.glob("*" + JOURNAL_SUFFIX))
        assert len(journals) == 1, "interrupt must leave the journal"
        assert len(journals[0].read_text().splitlines()) == 2

        resumed = run_grid(spec, jobs=1, cache_dir=str(work))
        stats = last_grid_stats()
        # Exactly the journaled points replayed; only the rest recomputed.
        assert stats["journal_replays"] == 2
        assert stats["cached"] == 2
        assert stats["journaled"] == len(spec.points) - 2
        assert not list(work.glob("*" + JOURNAL_SUFFIX)), (
            "clean finish must remove the journal"
        )
        _assert_same_results(reference, resumed)
        for ra, rb in zip(reference, resumed):
            assert pickle.dumps(ra.sweep) == pickle.dumps(rb.sweep)

    def test_rerun_counts_the_interrupted_runs_journal(self, tmp_path):
        spec = _chaos_spec(post=_bomb_post)
        _arm_bomb(after=1)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_grid(spec, jobs=1, cache_dir=str(tmp_path))
        finally:
            _disarm_bomb()
        assert list(tmp_path.glob("*" + JOURNAL_SUFFIX))
        # A plain rerun replays the journaled point, counts it, completes
        # the rest and removes the journal.
        results = run_grid(spec, jobs=1, cache_dir=str(tmp_path))
        stats = last_grid_stats()
        assert stats["journal_replays"] == 1
        assert stats["cached"] == 1
        assert all(r is not None for r in results)
        assert not list(tmp_path.glob("*" + JOURNAL_SUFFIX))

    def test_clean_finish_leaves_no_journal(self, tmp_path):
        run_grid(_chaos_spec(), jobs=1, cache_dir=str(tmp_path))
        assert last_grid_stats()["journaled"] == len(_chaos_spec().points)
        assert not list(tmp_path.glob("*" + JOURNAL_SUFFIX))

    def test_resume_of_finished_sweep_is_plain_replay(self, tmp_path):
        spec = _chaos_spec()
        first = run_grid(spec, jobs=1, cache_dir=str(tmp_path))
        again = run_grid(spec, jobs=1, cache_dir=str(tmp_path))
        stats = last_grid_stats()
        assert stats["cached"] == len(spec.points)
        assert stats["journal_replays"] == 0  # no journal: clean finish
        _assert_same_results(first, again)


# ----------------------------------------------------------------------
# the failure matrix, driven by the plan through a stock server
# ----------------------------------------------------------------------
class TestFailureMatrix:
    """DESIGN.md §10.4: every row provoked at its instrumented site.

    The server is the *stock* :class:`ServiceServer`; the faults come
    from the plan, exactly as a chaos benchmark would install them.
    The invariant is always the same: the sweep completes and is
    bitwise identical to the serial run — faults cost retries, never
    results.
    """

    def _run_with_plan(self, plan, **grid_kwargs):
        serial = run_grid(_chaos_spec(), jobs=1)
        with _server_thread() as server:
            with faults.active(plan):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    served = run_grid(
                        _chaos_spec(), workers=[server.address],
                        **grid_kwargs,
                    )
        _assert_same_results(serial, served)
        return plan

    def test_client_side_connection_drop(self):
        plan = self._run_with_plan(
            FaultPlan([FaultRule("client.send.drop", max_fires=1)])
        )
        assert plan.stats()["client.send.drop"]["fires"] == 1

    def test_server_side_connection_drop(self):
        plan = self._run_with_plan(
            FaultPlan([FaultRule("service.conn.drop", max_fires=1)])
        )
        assert plan.stats()["service.conn.drop"]["fires"] == 1

    def test_stalled_reply_times_out_and_redispatches(self):
        plan = self._run_with_plan(
            FaultPlan(
                [FaultRule(
                    "service.reply.stall", max_fires=1, delay_s=2.0
                )]
            ),
            request_timeout=0.5,
        )
        assert plan.stats()["service.reply.stall"]["fires"] == 1

    def test_corrupt_reply_rejected_and_retried(self):
        # The mangled payload fails its checksum client-side
        # (ServiceCorruptPayload); the point is re-dispatched and the
        # damaged bytes are never consumed — hence bitwise identity.
        plan = self._run_with_plan(
            FaultPlan([FaultRule("service.reply.corrupt", max_fires=1)])
        )
        assert plan.stats()["service.reply.corrupt"]["fires"] == 1

    def test_server_side_sweep_error_bounded_retry(self):
        serial = run_grid(_chaos_spec(), jobs=1)
        plan = FaultPlan([FaultRule("service.sweep.error", max_fires=1)])
        with _server_thread() as server:
            with faults.active(plan):
                with warnings.catch_warnings():
                    # One failure stays remote: no fallback warning.
                    warnings.simplefilter("error", RuntimeWarning)
                    served = run_grid(
                        _chaos_spec(), workers=[server.address]
                    )
        _assert_same_results(serial, served)
        assert plan.stats()["service.sweep.error"]["fires"] == 1

    def test_server_enospc_still_serves_results(self, tmp_path):
        # The worker's disk fills: its cache publishes fail, but the
        # reply path is independent — every result is still delivered.
        serial = run_grid(_chaos_spec(), jobs=1)
        plan = FaultPlan([FaultRule("cache.put.enospc")])
        with _server_thread(cache_dir=str(tmp_path)) as server:
            with faults.active(plan):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    served = run_grid(
                        _chaos_spec(), workers=[server.address]
                    )
            assert server.server.put_failures > 0
        _assert_same_results(serial, served)


# ----------------------------------------------------------------------
# prune vs put races under torn writes (multi-writer bus, PR 8 + chaos)
# ----------------------------------------------------------------------
def _torn_hammer(root, key, n, rounds, plan_spec):
    """Writer-process body: hammer one key under an injected-torn plan.

    Installed in-process (not via the env var) because ``fork`` children
    inherit the parent's already-imported, plan-free module state.
    ``put`` may raise ``OSError`` when the racing pruner sweeps the
    in-flight temp file out from under the rename — the same loss the
    daemon's publish path tolerates (``ServiceServer.put_failures``),
    so the writer shrugs it off too.
    """
    faults.install(FaultPlan.from_spec(plan_spec))
    cache = ResultCache(root)
    payload = (np.arange(n), {"n": n})
    for _ in range(rounds):
        try:
            cache.put(key, payload)
        except OSError:
            pass


class TestTornWriteRace:
    def test_prune_and_get_racing_torn_puts(self, tmp_path):
        # Two writers publish the same key; the plan tears every put
        # after the first half.  Readers may see hits regress to
        # misses (quarantine) — but never a torn payload — and prune
        # racing the whole mess stays an LRU sweep, not a crash.
        key, n, rounds = "bus-key", 10_000, 40
        plan_spec = FaultPlan(
            [FaultRule("cache.put.torn", after=rounds // 2)]
        ).to_spec()
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_torn_hammer,
                args=(str(tmp_path), key, n, rounds, plan_spec),
            )
            for _ in range(2)
        ]
        for w in writers:
            w.start()
        cache = ResultCache(tmp_path)
        seen_hit = False
        tick = 0
        try:
            while any(w.is_alive() for w in writers):
                hit = cache.get(key)
                if hit is not None:
                    seen_hit = True
                    arr, extras = hit
                    assert extras == {"n": n}
                    assert arr.shape == (n,) and arr[-1] == n - 1
                tick += 1
                if tick % 10 == 0:
                    report = cache.prune(
                        max_entries=5, tmp_grace_s=0.0
                    )
                    assert report["evicted"] == 0  # one key only
        finally:
            for w in writers:
                w.join(30)
        assert all(w.exitcode == 0 for w in writers)
        assert seen_hit, "the first-half clean puts must be readable"
        # Whatever survived the torn-put/prune crossfire, a read is a
        # complete payload or a miss (torn survivors get quarantined on
        # this very read) — never damaged bytes.
        final = cache.get(key)
        assert final is None or (
            final[0].shape == (n,) and final[0][-1] == n - 1
        )
        # The bus stays writable and a clean put round-trips.
        cache.put(key, (np.arange(3), {}))
        hit = cache.get(key)
        assert hit is not None and hit[0].shape == (3,)


# ----------------------------------------------------------------------
# signal drains and real corpses (subprocess modes at the bottom)
# ----------------------------------------------------------------------
def _spawn_child(mode, *args, sleep="0"):
    """Re-execute this file in a child with a ``__main__`` mode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TEST_POINT_SLEEP"] = sleep
    return subprocess.Popen(
        [sys.executable, __file__, mode, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )


def _wait_for_line(proc, prefix, timeout=60):
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            assert proc.poll() is None, (
                f"child exited (rc={proc.poll()}) before {prefix!r}"
            )
            continue
        if line.startswith(prefix):
            return line.strip()
    raise AssertionError(f"no {prefix!r} line within {timeout}s")


class TestSignalDrain:
    """The shm-leak satellite: an interrupted fork-pool grid must not
    leave segments in ``/dev/shm`` (one leaked gain matrix per crashed
    sweep used to accumulate until the host ran out of shared memory)."""

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_interrupted_grid_leaks_no_shm_segments(self, tmp_path, sig):
        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir(shm_dir))
        proc = _spawn_child("drain", tmp_path, sleep="0.5")
        try:
            _wait_for_line(proc, "running")
            time.sleep(1.5)  # let the pool spin up and map segments
            proc.send_signal(sig)
            rc = proc.wait(60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
        output = proc.stdout.read()
        assert rc == 0, output
        assert "drained" in output, output
        leaked = set(os.listdir(shm_dir)) - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"


class TestKillResume:
    """The e2e acceptance row: SIGKILL the coordinator mid-sweep, then
    a plain rerun completes bitwise identical to ``jobs=1``, replaying
    the journaled points and recomputing only the rest."""

    def _parse_result(self, proc):
        line = _wait_for_line(proc, "RESULT ")
        assert proc.wait(60) == 0
        return json.loads(line[len("RESULT "):])

    def test_sigkilled_coordinator_resumes_exactly(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()

        # Phase 1: a slow run, SIGKILLed once ≥2 points are journaled.
        victim = _spawn_child("grid", work, sleep="0.5")
        try:
            _wait_for_line(victim, "running")
            deadline = time.time() + 60
            journal_path = None
            while time.time() < deadline:
                journals = list(work.glob("*" + JOURNAL_SUFFIX))
                if journals:
                    lines = journals[0].read_text().splitlines()
                    if len(lines) >= 2:
                        journal_path = journals[0]
                        break
                time.sleep(0.05)
            assert journal_path is not None, "no journal grew in time"
            victim.kill()  # SIGKILL: no handler, no cleanup, a corpse
            victim.wait(30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(10)
        assert victim.returncode == -signal.SIGKILL
        assert journal_path.exists(), "SIGKILL must not eat the journal"
        journaled_at_kill = len(
            journal_path.read_text().splitlines()
        )
        assert journaled_at_kill >= 2

        # Phase 2: rerun in a fresh process against the same cache.
        resumer = _spawn_child("grid", work, sleep="0")
        resumed = self._parse_result(resumer)
        stats = resumed["stats"]
        # Every point journaled before the kill was skipped, none were
        # recomputed (journal_replays can exceed the count we read —
        # more appends may have landed between our poll and the kill;
        # cached can exceed journal_replays — a put can land without
        # its journal record when the kill hits between the two).
        assert stats["journal_replays"] >= 2
        assert stats["journal_replays"] <= stats["cached"]
        assert stats["journaled"] == stats["points"] - stats["cached"]
        assert not list(work.glob("*" + JOURNAL_SUFFIX)), (
            "clean resume must remove the journal"
        )

        # Phase 3: a fresh uninterrupted run is the reference.
        fresh = _spawn_child("grid", tmp_path / "ref", sleep="0")
        reference = self._parse_result(fresh)
        assert resumed["digests"] == reference["digests"], (
            "resumed run must be bitwise identical to an uninterrupted one"
        )
        assert resumed["extras"] == reference["extras"]


# ----------------------------------------------------------------------
# child modes (re-executed by the tests above; not run under pytest)
# ----------------------------------------------------------------------
def _kill_spec():
    """The kill/drain grid: 8 points, sleepy deterministic post-hook."""
    return _chaos_spec(
        post=_sleepy_post, name="chaos-kill",
        sizes=(10, 11, 12, 13, 14, 15, 16, 17),
    )


def _child_drain(cache_dir):
    print("running", flush=True)
    try:
        run_grid(_kill_spec(), jobs=2, cache_dir=cache_dir)
    except KeyboardInterrupt:
        print("drained", flush=True)
        return 0
    print("completed", flush=True)
    return 0


def _child_grid(cache_dir):
    print("running", flush=True)
    results = run_grid(_kill_spec(), jobs=1, cache_dir=cache_dir)
    payload = {
        "stats": last_grid_stats(),
        "digests": [
            hashlib.sha256(pickle.dumps(r.sweep)).hexdigest()
            for r in results
        ],
        "extras": [r.extras for r in results],
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    _mode, *_args = sys.argv[1:]
    sys.exit({"drain": _child_drain, "grid": _child_grid}[_mode](*_args))
