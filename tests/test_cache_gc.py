"""Tests for result-cache LRU pruning and the cache_gc tool."""

import os
import pickle
import sys
import time

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)
import cache_gc  # noqa: E402  (tools/ is not a package)

from repro.fastsim.cache import ResultCache  # noqa: E402


def _fill(cache, keys, size=1000):
    for i, key in enumerate(keys):
        cache.put(key, (b"x" * size, {"i": i}))
        # distinct mtimes so LRU order is deterministic
        past = time.time() - 1000 + i
        os.utime(cache._path(key), (past, past))


class TestPrune:
    def test_report_only_without_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b", "c"])
        report = cache.prune()
        assert report["entries"] == 3
        assert report["evicted"] == 0
        assert len(cache) == 3

    def test_max_entries_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["old", "mid", "new"])
        report = cache.prune(max_entries=2)
        assert report["evicted"] == 1
        assert cache.get("old") is None
        assert cache.get("mid") is not None
        assert cache.get("new") is not None

    def test_max_bytes_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b", "c", "d"], size=1000)
        _, total = cache.usage()
        report = cache.prune(max_bytes=total // 2)
        assert report["kept_bytes"] <= total // 2
        assert report["evicted"] >= 2

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["stale", "hot"])
        # "stale" is newer on disk, but a hit on "hot" must protect it
        past = time.time() - 10
        os.utime(cache._path("stale"), (past, past))
        assert cache.get("hot") is not None  # refreshes mtime to now
        cache.prune(max_entries=1)
        assert cache.get("hot") is not None
        assert cache.get("stale") is None

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b"])
        report = cache.prune(max_entries=0, dry_run=True)
        assert report["evicted"] == 2
        assert len(cache) == 2

    def test_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        report = cache.prune(max_entries=1)
        assert report["entries"] == 0
        assert report["evicted"] == 0


class TestTmpSweep:
    """Regression: a crashed ``put`` leaks a ``.{key}.tmp`` that the
    ``*.pkl`` accounting never saw and nothing ever deleted.  ``prune``
    now sweeps such debris (and stale ``*.lease`` files) past a grace
    window."""

    @staticmethod
    def _debris(tmp_path, name, age_s):
        path = tmp_path / name
        path.write_bytes(b"orphan")
        old = time.time() - age_s
        os.utime(path, (old, old))
        return path

    def test_stale_tmp_and_lease_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a"])
        stale_tmp = self._debris(tmp_path, ".abcd1234.x7.tmp", 7200)
        stale_lease = self._debris(tmp_path, "deadbeef.lease", 7200)
        report = cache.prune()
        assert report["tmp_swept"] == 2
        assert not stale_tmp.exists() and not stale_lease.exists()
        assert cache.get("a") is not None  # entries untouched

    def test_fresh_debris_gets_grace(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh_tmp = self._debris(tmp_path, ".abcd1234.x7.tmp", 0)
        fresh_lease = self._debris(tmp_path, "deadbeef.lease", 0)
        report = cache.prune()
        assert report["tmp_swept"] == 0
        assert fresh_tmp.exists() and fresh_lease.exists()
        # A tighter grace collects them; None skips the sweep entirely.
        assert cache.prune(tmp_grace_s=None)["tmp_swept"] == 0
        report = cache.prune(tmp_grace_s=0.0)
        assert report["tmp_swept"] == 2

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = self._debris(tmp_path, ".abcd1234.x7.tmp", 7200)
        report = cache.prune(dry_run=True)
        assert report["tmp_swept"] == 1
        assert stale.exists()

    def test_debris_invisible_to_entry_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b"])
        self._debris(tmp_path, ".abcd1234.x7.tmp", 7200)
        assert len(cache) == 2
        entries, _size = cache.usage()
        assert entries == 2

    def test_cli_reports_sweep(self, tmp_path, capsys):
        self._debris(tmp_path, "deadbeef.lease", 7200)
        assert cache_gc.main(["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 1 stale debris file(s)" in out


class TestClockSkew:
    """Regression (PR 9 satellite): future file mtimes — a skewed NFS
    client, a container with a broken clock — must not pin entries in
    the cache as 'freshest forever' or make debris unsweepable."""

    @staticmethod
    def _future(path, ahead_s):
        future = time.time() + ahead_s
        os.utime(path, (future, future))

    def test_future_entry_ranks_oldest_not_freshest(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["honest_old", "honest_new"])
        cache.put("skewed", (b"x" * 1000, {}))
        self._future(cache._path("skewed"), 86400)
        cache.prune(max_entries=2, tmp_grace_s=None)
        # The skewed entry is evicted first; honestly-dated entries
        # keep their LRU order.
        assert cache.get("skewed") is None
        assert cache.get("honest_old") is not None
        assert cache.get("honest_new") is not None

    def test_mild_skew_within_tolerance_is_freshest(self, tmp_path):
        from repro.fastsim.cache import CLOCK_SKEW_TOLERANCE_S

        cache = ResultCache(tmp_path)
        _fill(cache, ["old", "new"])
        cache.put("slightly_ahead", (b"x" * 1000, {}))
        self._future(
            cache._path("slightly_ahead"), CLOCK_SKEW_TOLERANCE_S / 2
        )
        cache.prune(max_entries=2, tmp_grace_s=None)
        # Sub-tolerance skew (mtime granularity, small drift) still
        # ranks by mtime: the genuinely old entry goes first.
        assert cache.get("old") is None
        assert cache.get("slightly_ahead") is not None

    def test_far_future_debris_swept_immediately(self, tmp_path):
        cache = ResultCache(tmp_path)
        debris = tmp_path / ".abcd1234.x7.tmp"
        debris.write_bytes(b"orphan")
        self._future(debris, 86400)
        # Never ages into the grace horizon by waiting — the skew
        # tolerance catches it on the next sweep.
        report = cache.prune()
        assert report["tmp_swept"] == 1
        assert not debris.exists()


class TestQuarantineSweep:
    """Quarantined entries are preserved for inspection, surfaced in
    prune() stats, and aged out like other debris."""

    def test_prune_counts_and_ages_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, ["good"])
        bad = tmp_path / "bad.quarantine"
        bad.write_bytes(b"preserved corpse")
        report = cache.prune()
        assert report["quarantined"] == 1
        assert bad.exists()  # younger than the grace window
        old = time.time() - 7200
        os.utime(bad, (old, old))
        report = cache.prune()
        assert report["tmp_swept"] == 1
        assert not bad.exists()
        assert cache.get("good") is not None


class TestVerifyCli:
    """``cache_gc.py --verify``: read-only audit, nonzero exit on
    corruption (the fleet-cron alerting contract)."""

    def test_clean_cache_exits_zero(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b"])
        assert cache_gc.main(
            ["--cache-dir", str(tmp_path), "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 verified" in out and "0 corrupt" in out

    def test_corrupt_entry_exits_nonzero(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b"])
        path = cache._path("b")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache_gc.main(
            ["--cache-dir", str(tmp_path), "--verify"]
        ) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "b" in out
        # Read-only: the corrupt entry is reported, not renamed.
        assert path.exists()

    def test_quarantine_exits_nonzero(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a"])
        (tmp_path / "dead.quarantine").write_bytes(b"x")
        assert cache_gc.main(
            ["--cache-dir", str(tmp_path), "--verify"]
        ) == 1
        assert "1 quarantined" in capsys.readouterr().out

    def test_headerless_entry_is_corruption(self, tmp_path, capsys):
        # An entry without the checksum header has nothing to verify
        # against: the audit counts it corrupt and alerts.
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(("v", {})))
        assert cache_gc.main(
            ["--cache-dir", str(tmp_path), "--verify"]
        ) == 1
        out = capsys.readouterr().out
        assert "0 verified" in out and "1 corrupt" in out


def test_headerless_entry_is_quarantined_on_read(tmp_path):
    cache = ResultCache(tmp_path)
    (tmp_path / "old.pkl").write_bytes(pickle.dumps(("v", {})))
    assert cache.get("old") is None
    assert (tmp_path / "old.quarantine").exists()
    assert not (tmp_path / "old.pkl").exists()
    assert cache.quarantined == 1 and cache.misses == 1


class TestCacheGcCli:
    def test_reports_and_prunes(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b", "c"])
        assert cache_gc.main(
            ["--cache-dir", str(tmp_path), "--max-entries", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 2" in out
        assert len(cache) == 1

    def test_dry_run_flag(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, ["a", "b"])
        cache_gc.main(
            ["--cache-dir", str(tmp_path), "--max-entries", "0",
             "--dry-run"]
        )
        assert "would evict 2" in capsys.readouterr().out
        assert len(cache) == 2

    def test_format_report(self):
        text = cache_gc.format_report(
            {
                "root": "/x", "entries": 5, "bytes": 2e6, "evicted": 1,
                "kept_entries": 4, "kept_bytes": 1.5e6, "dry_run": False,
            }
        )
        assert "5 entries" in text and "evicted 1" in text


@pytest.mark.parametrize("flag", [[], ["--no-cache"]])
def test_cli_cache_prune_flag(tmp_path, capsys, flag, monkeypatch):
    """--cache-prune runs after the experiments, even with --no-cache
    (that flag only disables the cache during the run)."""
    from repro.experiments.__main__ import main

    monkeypatch.chdir(tmp_path)
    cache_dir = tmp_path / "cache"
    rc = main(
        ["E01", "--scale", "quick", "--cache-dir", str(cache_dir),
         "--cache-prune", "0"] + flag
    )
    assert rc == 0
    assert "cache prune" in capsys.readouterr().out
    assert len(ResultCache(cache_dir)) == 0
