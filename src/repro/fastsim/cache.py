"""Content-addressed on-disk cache for grid-sweep results.

A grid point is fully determined by *(protocol kind, deployment
fingerprint, constants, seed, kwargs)* — see :func:`point_key` — so its
:class:`~repro.fastsim.sweep.SweepResult` can be stored once and replayed
on every re-run.  This is what makes ``python -m repro.experiments all``
incremental: upgrading ``--scale quick`` to ``--scale full`` re-uses every
point the quick sweep already computed, and repeated full runs are pure
cache replays.

Keys are SHA-256 digests of a canonical byte encoding
(:func:`fingerprint_bytes`) of everything that determines a point's
result.  Numpy arrays contribute shape + dtype + raw bytes; dataclasses
contribute their type name and field values; generic objects (wake-up
schedules, ...) contribute their type name and ``__dict__``.  Anything
that changes the simulation — constants, deployment coordinates, SINR
parameters, seeds, per-protocol kwargs — therefore changes the key, and
stale entries are simply never addressed again (no invalidation protocol
is needed for *input* changes; prune the directory to reclaim space).

**Keys cover inputs, not code.**  Editing a simulation kernel or a
``post`` hook's body does not change any key, so a populated cache will
replay pre-change results.  The CLI surfaces every replay ("N/M grid
points from cache") exactly so this is visible; after changing
simulation code, pass ``--no-cache`` or clear the directory.  Bump
:data:`CACHE_SCHEMA_VERSION` when the stored payload layout changes.

Storage is one pickle file per key, written atomically (temp file +
fsync + ``os.replace``) so a crashed run never leaves a truncated entry
a later run would trip over.  Every entry additionally carries a
**content checksum header** (:data:`ENTRY_MAGIC` + SHA-256 of the
payload bytes): :meth:`ResultCache.get` verifies it end-to-end, so a
torn, truncated or bit-flipped entry — however it got that way — is
detected, moved aside as ``<key>.quarantine`` for inspection, and
served as a *miss*; never a crash, and never a silently wrong replay
(DESIGN.md §10.2).  ``tools/cache_gc.py --verify`` runs the same check
over a whole directory for fleet cron jobs.  Temp files orphaned by a
crash (plus stale ``*.lease`` markers from :mod:`repro.distrib.leases`
and aged ``*.quarantine`` files) are swept by
:meth:`ResultCache.prune` after a grace window.

That atomicity is also what lets many *hosts* treat one cache directory
as a **result bus** (DESIGN.md §9): concurrent ``put`` calls for the
same key are last-write-wins of identical deterministic bytes, readers
see either nothing or a complete entry — never a torn one — and
``run_grid(workers=[...])`` coordinates whole sweeps through it.

**Shared with the query service.**  A :mod:`repro.service` daemon given
``--cache-dir`` stores its ``sweep`` results under the same
:func:`point_key` a CLI grid run computes — the key is derived purely
from the point's inputs, never from *how* it was executed — so a
directory populated by a service run replays in CLI runs and vice
versa.  This sharing is by construction, not by convention, and is
pinned down in ``tests/test_service.py``.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro import faults

#: Bump when the stored payload layout changes; old entries become
#: unaddressable rather than mis-read.
CACHE_SCHEMA_VERSION = 2

#: Age (seconds since last mtime) past which :meth:`ResultCache.prune`
#: sweeps orphaned write temporaries (``.*.tmp``), lease files
#: (``*.lease``) and quarantined entries (``*.quarantine``).  Generous:
#: a live writer finishes its ``os.replace`` in milliseconds and a live
#: lease holder refreshes its file every few seconds, so anything this
#: old belongs to a crashed process.
TMP_GRACE_S = 3600.0

#: Leading bytes of a checksummed cache entry: the magic, one space,
#: 64 hex chars of SHA-256 over the payload, one newline, then the
#: pickled payload.  A file without the magic has nothing to verify
#: against and reads as corrupt.
ENTRY_MAGIC = b"repro-cache-v2"

#: Clock-skew tolerance for mtime-based decisions in
#: :meth:`ResultCache.prune`.  An mtime further in the future than this
#: cannot come from a live writer on any sanely synchronized host: the
#: entry's recency is unknowable, so it ranks *oldest* for LRU (the
#: safe direction — entries are recomputable, and treating skew as
#: freshness would pin the entry forever), and debris so dated is
#: sweepable immediately.
CLOCK_SKEW_TOLERANCE_S = 900.0

#: Suffix of quarantined entries: a ``<key>.pkl`` whose checksum or
#: unpickling failed is atomically renamed ``<key>.quarantine`` — out
#: of the addressable namespace (the next ``get`` is a clean miss and
#: the recompute's ``put`` does not resurrect it), kept on disk for
#: inspection until :meth:`ResultCache.prune` ages it out.
QUARANTINE_SUFFIX = ".quarantine"


def fingerprint_bytes(obj) -> bytes:
    """Canonical byte encoding of ``obj`` for cache-key hashing.

    Deterministic across processes and sessions (no ``id()``, no salted
    hashes, no pickle memo effects) for the value types that appear in
    grid points; unknown objects fall back to type name + ``__dict__``.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return f"{type(obj).__name__}:{obj!r};".encode()
    if isinstance(obj, float):
        # repr round-trips doubles exactly in python >= 3.1.
        return f"float:{obj!r};".encode()
    if isinstance(obj, np.generic):
        return fingerprint_bytes(obj.item())
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        head = f"ndarray:{arr.shape}:{arr.dtype.str};".encode()
        return head + arr.tobytes()
    if isinstance(obj, np.random.SeedSequence):
        return (
            f"seedseq:{obj.entropy!r}:{tuple(obj.spawn_key)!r};".encode()
        )
    if isinstance(obj, (tuple, list)):
        parts = b"".join(fingerprint_bytes(v) for v in obj)
        return f"{type(obj).__name__}[".encode() + parts + b"];"
    if isinstance(obj, dict):
        parts = b"".join(
            fingerprint_bytes(k) + fingerprint_bytes(v)
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return b"dict{" + parts + b"};"
    fp = getattr(obj, "fingerprint", None)
    if callable(fp):
        return f"fp:{type(obj).__name__}:{fp()};".encode()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        parts = b"".join(
            fingerprint_bytes(f.name)
            + fingerprint_bytes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        )
        return f"dc:{type(obj).__name__}(".encode() + parts + b");"
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return f"obj:{type(obj).__name__}(".encode() + fingerprint_bytes(
            dict(state)
        ) + b");"
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r} for the result cache"
    )


def digest(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(fingerprint_bytes(obj)).hexdigest()


def point_key(
    kind: str,
    network_fingerprint: str,
    constants,
    seed,
    n_replications: int,
    kwargs: dict,
    post_name: str = "",
) -> str:
    """Cache key of one grid point: *(kind, deployment fingerprint,
    constants, seed, kwargs)*, plus the replication count and the
    identity of the point's post-processing hook (its extras are stored
    alongside the sweep, so a renamed hook must not replay stale
    extras).

    Which kernel implementation ran (:data:`repro.kernels.COMPILED`) is
    deliberately absent, here and in the network fingerprint the key
    embeds: compiled and numpy kernels are bitwise identical
    (DESIGN.md §2.3, enforced by ``tests/test_kernel_differential.py``),
    so a host with numba replaying an entry computed without it — or
    vice versa — returns exactly the bytes it would have computed.
    """
    return digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "network": network_fingerprint,
            "constants": constants,
            "seed": seed,
            "n_replications": n_replications,
            "kwargs": kwargs,
            "post": post_name,
        }
    )


def _flip_byte_on_disk(path: Path) -> None:
    """Invert the last byte of ``path`` in place (chaos helper).

    Implements the ``cache.get.corrupt`` site: bit-rot injected just
    before a read, so the reader's checksum pass — not the writer's
    good intentions — is what the test exercises.  Missing files are
    ignored (the site may fire on a miss).
    """
    try:
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes((byte[0] ^ 0xFF,)))
    except (OSError, IndexError):
        pass


class ResultCache:
    """One directory of content-addressed grid-point results.

    Mobility sweeps are keyed like everything else — through their
    inputs: a dynamic grid point carries its
    :class:`~repro.deploy.mobility.MobilityModel` in the kwargs, and
    :func:`fingerprint_bytes` hashes the model via its
    ``fingerprint()`` — a digest of ``identity()`` (model type, every
    physical knob, the trajectory seed).  A static run and a dynamic
    run of the same deployment therefore have different keys by
    construction, as do runs under different mobility models or seeds;
    dynamic and static results can never replay each other
    (DESIGN.md §7).

    :param root: cache directory (created on first write).
    """

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the addressable namespace.

        Atomic rename to ``<key>.quarantine``: concurrent readers see
        either the (corrupt) entry — and quarantine it themselves, the
        second rename failing harmlessly — or a clean miss.  The file
        is preserved for inspection (``tools/cache_gc.py --verify``
        reports it) and aged out by :meth:`prune`.
        """
        target = path.with_suffix(QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1

    @staticmethod
    def _decode(data: bytes):
        """Verify and unpickle one entry's raw bytes.

        :raises ValueError: on a missing or malformed header, or a
            checksum mismatch (torn / truncated / bit-flipped entry).
        :raises pickle.UnpicklingError: (and friends) when a verified
            payload still does not unpickle.
        """
        if not data.startswith(ENTRY_MAGIC):
            raise ValueError(f"no {ENTRY_MAGIC.decode()} checksum header")
        header_end = data.index(b"\n", 0, len(ENTRY_MAGIC) + 80)
        stored = data[len(ENTRY_MAGIC) + 1:header_end]
        body = memoryview(data)[header_end + 1:]
        actual = hashlib.sha256(body).hexdigest().encode("ascii")
        if actual != stored:
            raise ValueError(
                f"checksum mismatch: header {stored!r:.74}, "
                f"payload {actual!r}"
            )
        return pickle.loads(body)

    def get(self, key: str) -> Optional[tuple]:
        """Stored ``(sweep, extras)`` payload, or ``None`` on a miss.

        Integrity is verified end-to-end: the payload's SHA-256 must
        match the entry's header.  A torn, truncated or bit-flipped
        entry — or one without a header, or whose pickle does not
        load — is **quarantined**
        (renamed ``<key>.quarantine``, counted in :attr:`quarantined`)
        and served as a miss, so the caller recomputes; corruption can
        never crash a sweep or replay as a wrong result.  This is also
        the contract the distributed result bus leans on: a shard
        coordinator's bus-recovery probe goes through this method, so a
        foreign daemon's torn publish degrades to a re-dispatch, never
        a consumed corruption (DESIGN.md §10.2).
        """
        path = self._path(key)
        if faults.maybe_fire("cache.get.corrupt") is not None:
            _flip_byte_on_disk(path)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = self._decode(data)
        except (ValueError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, KeyError,
                MemoryError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Refresh recency so LRU pruning (:meth:`prune`) evicts the
            # entries that stopped being replayed, not the ones in
            # active service.
            os.utime(path)
        except OSError:
            pass
        return payload

    def put(self, key: str, payload: tuple) -> None:
        """Atomically store ``(sweep, extras)`` under ``key``.

        The payload is pickled once, its SHA-256 recorded in the entry
        header, and the bytes fsynced before the atomic ``os.replace``
        — a host crash leaves either no entry or a complete, verified
        one, and anything in between (torn by a dying kernel, truncated
        by ``ENOSPC`` cleanup) fails :meth:`get`'s checksum and is
        quarantined rather than replayed.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if faults.maybe_fire("cache.put.enospc") is not None:
            raise OSError(
                errno.ENOSPC, "injected ENOSPC (chaos plan)",
                str(self._path(key)),
            )
        header = (
            ENTRY_MAGIC + b" "
            + hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n"
        )
        if faults.maybe_fire("cache.put.torn") is not None:
            # A write cut mid-payload: the header promises the full
            # blob, the body stops halfway — get() must quarantine it.
            blob = blob[: max(1, len(blob) // 2)]
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` currently stored."""
        entries = size = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return entries, size

    def verify(self) -> dict:
        """Integrity scan of every stored entry, without side effects.

        Reads each ``*.pkl`` and checks its checksum header (an entry
        without one is corrupt), and counts quarantined files already on
        disk.  Nothing is renamed, deleted or recomputed: this is the
        read-only audit behind ``tools/cache_gc.py --verify``, safe to
        run against a cache a fleet is actively using.

        :returns: report dict with ``entries``, ``verified``,
            ``corrupt`` (missing headers, checksum or unpickle failures,
            with the offending keys in ``corrupt_keys``) and
            ``quarantined`` (files a previous reader already pulled from
            the namespace).
        """
        entries = 0
        corrupt_keys = []
        quarantined = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.pkl")):
                entries += 1
                try:
                    self._decode(path.read_bytes())
                except (OSError, ValueError, pickle.UnpicklingError,
                        EOFError, AttributeError, ImportError,
                        IndexError, KeyError, MemoryError):
                    corrupt_keys.append(path.stem)
            quarantined = sum(
                1 for _ in self.root.glob(f"*{QUARANTINE_SUFFIX}")
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "verified": entries - len(corrupt_keys),
            "corrupt": len(corrupt_keys),
            "corrupt_keys": corrupt_keys,
            "quarantined": quarantined,
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        dry_run: bool = False,
        tmp_grace_s: float = TMP_GRACE_S,
    ) -> dict:
        """Evict least-recently-used entries until within the budgets.

        Content-addressed keys never go stale on input changes, so the
        directory only ever grows — this is the reclamation path
        (``tools/cache_gc.py`` and the CLI's ``--cache-prune``).
        Recency is file mtime, refreshed on every :meth:`get` hit; the
        oldest entries go first.  Nothing is evicted when no budget is
        given (pure report).

        Mtimes are advisory, not trusted: an entry dated more than
        :data:`CLOCK_SKEW_TOLERANCE_S` into the future (written through
        a skewed NFS client, a container with a broken clock, a badly
        restored backup) ranks *oldest*, not freshest — otherwise one
        skewed writer would pin its entries in the cache forever while
        honestly-dated neighbours are evicted around them.  Eviction is
        the safe direction: entries are recomputable by construction.

        Every call additionally sweeps the directory's *debris*: write
        temporaries (``.*.tmp`` — a :meth:`put` killed between
        ``mkstemp`` and ``os.replace`` leaks one, invisible to the
        ``*.pkl`` accounting), lease files (``*.lease``, left by
        SIGKILLed workers — :mod:`repro.distrib.leases`) and
        quarantined entries (``*.quarantine``, preserved long enough to
        inspect) whose mtime is older than ``tmp_grace_s`` **or**
        beyond the future-skew tolerance (far-future debris would
        otherwise never age into the horizon).  Live writers and lease
        holders touch their files far more often than the grace window,
        so the sweep only ever collects orphans.

        :param max_bytes: target total payload size.
        :param max_entries: target entry count.
        :param dry_run: report what would be evicted without deleting.
        :param tmp_grace_s: minimum age of swept debris files (pass
            ``None`` to skip the sweep entirely).
        :returns: report dict with ``entries``/``bytes`` before and
            after, the number of entries (to be) ``evicted``, the
            number of debris files (to be) swept as ``tmp_swept``, and
            the number of quarantined files present before the sweep
            as ``quarantined``.
        """
        now = time.time()
        skew_horizon = now + CLOCK_SKEW_TOLERANCE_S

        def lru_rank(mtime: float) -> float:
            # Future-skewed entries rank before (older than) everything
            # honestly dated; among themselves, most-skewed goes first.
            if mtime > skew_horizon:
                return skew_horizon - mtime  # negative, monotone in skew
            return mtime

        records = []
        debris = []
        quarantined = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                records.append(
                    (lru_rank(stat.st_mtime), stat.st_size, path)
                )
            quarantined = sum(
                1 for _ in self.root.glob(f"*{QUARANTINE_SUFFIX}")
            )
            if tmp_grace_s is not None:
                horizon = now - tmp_grace_s
                patterns = (".*.tmp", "*.lease", f"*{QUARANTINE_SUFFIX}")
                for pattern in patterns:
                    for path in self.root.glob(pattern):
                        try:
                            mtime = path.stat().st_mtime
                        except OSError:
                            continue
                        if mtime <= horizon or mtime > skew_horizon:
                            debris.append(path)
        if not dry_run:
            for path in debris:
                try:
                    path.unlink()
                except OSError:
                    pass
        records.sort()  # oldest effective mtime first
        total_entries = len(records)
        total_bytes = sum(size for _, size, _ in records)
        keep_entries, keep_bytes = total_entries, total_bytes
        evict = []
        for _rank, size, path in records:
            over_bytes = max_bytes is not None and keep_bytes > max_bytes
            over_entries = (
                max_entries is not None and keep_entries > max_entries
            )
            if not (over_bytes or over_entries):
                break
            evict.append(path)
            keep_entries -= 1
            keep_bytes -= size
        if not dry_run:
            for path in evict:
                try:
                    path.unlink()
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "evicted": len(evict),
            "kept_entries": keep_entries,
            "kept_bytes": keep_bytes,
            "tmp_swept": len(debris),
            "quarantined": quarantined,
            "dry_run": dry_run,
        }
