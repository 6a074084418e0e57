"""Crash-safe per-sweep progress journal: what an interrupted sweep completed.

A multi-hour grid sweep (DESIGN.md §10.1) must survive its coordinator
dying — SIGKILL from the OOM killer, a lost SSH session, a preempted
node.  The result cache already makes every *completed point* durable,
but it cannot say which points belong to *this sweep* or prove that a
replayed entry was computed rather than inherited; the journal does.

One sweep gets one journal file, ``<sweep_key>.journal``, next to the
cache it rides on.  The sweep key is content-addressed from the same
material as the point keys (:func:`sweep_key`), so a rerun — the same
spec, seed and grid — finds its own journal by construction, and a
*different* sweep can never consume it.

Format: one JSON record per line, appended with a single
``O_APPEND`` write and fsynced before the append returns, so the file
is a prefix-closed log — a crash mid-append leaves at most one torn
tail line, which :meth:`SweepJournal.load` detects (it fails to parse)
and discards.  A journaled point is therefore a *hard* guarantee: its
``put`` into the result cache completed **and** reached disk before
the journal record did (callers append only after a successful store).

Lifecycle: created lazily on the first append, read by every
``run_grid`` call with a cache to count which of its cache hits an
interrupted earlier run completed (``journal_replays``), and deleted by
:meth:`SweepJournal.complete` when the sweep finishes cleanly — a
journal on disk always means an interrupted sweep.  The journal skips
no work: every ``run_grid`` call with a cache replays each point the
cache holds, journaled or not.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Optional

#: Journal filename suffix (``<sweep_key>.journal`` in the cache dir).
JOURNAL_SUFFIX = ".journal"


def sweep_key(name: str, seed, point_keys: Iterable[str]) -> str:
    """Content-addressed identity of one sweep.

    Digest of the spec name, the master seed and the *sorted* point
    keys — the same key material the cache addresses points by — so
    two runs of the same grid share a journal and any change to the
    grid (a point added, a constant tweaked, a different seed) yields
    a different journal that cannot shadow the old one.  Sorting makes
    the key independent of point enumeration order.
    """
    h = hashlib.sha256()
    h.update(f"sweep:{name}:{seed!r}:".encode())
    for key in sorted(point_keys):
        h.update(key.encode())
        h.update(b";")
    return h.hexdigest()


class SweepJournal:
    """Append-only completion log for one sweep's points.

    :param root: directory the journal lives in (normally the sweep's
        cache dir; created on first append).
    :param key: the sweep's :func:`sweep_key`.
    """

    def __init__(self, root: "str | os.PathLike", key: str):
        self.root = Path(root)
        self.key = key
        #: Number of records discarded as torn by the last :meth:`load`
        #: (0 or 1 after a single crash; the log is prefix-closed).
        self.torn = 0

    @property
    def path(self) -> Path:
        """The journal file (``<root>/<sweep_key>.journal``)."""
        return self.root / f"{self.key}{JOURNAL_SUFFIX}"

    def load(self) -> "dict[str, dict]":
        """Replay the journal: ``{point_key: record}`` for every intact
        line.

        Torn tail lines (a crash mid-append) and any other unparsable
        line are discarded and counted in :attr:`torn` — never raised:
        a damaged journal degrades to recomputing more points, which is
        always correct (the cache still deduplicates the work).
        """
        self.torn = 0
        done: dict[str, dict] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return done
        for line in raw.split(b"\n"):
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
            except (ValueError, KeyError, TypeError):
                self.torn += 1
                continue
            done[key] = record
        return done

    def append(self, key: str, meta: Optional[dict] = None) -> None:
        """Durably record ``key`` as completed.

        One JSON line in a single ``O_APPEND`` write (atomic with
        respect to concurrent appenders for records far below
        ``PIPE_BUF``), fsynced before returning — after this call the
        record survives power loss.  Callers append only *after* the
        point's result is safely in the cache, preserving the
        journaled ⊆ cached invariant the replay count relies on.

        A torn tail (the file not ending in a newline — the previous
        writer crashed mid-append) is healed by prefixing the record
        with a newline, so the new record starts on a fresh line
        instead of merging into the damaged one and being lost with it.

        :param key: the completed point's cache key.
        :param meta: optional extra fields merged into the record
            (e.g. ``{"source": "bus"}``); must be JSON-able and must
            not include ``"key"``.
        """
        record = {"key": key}
        if meta:
            record.update(meta)
            if record["key"] != key:
                raise ValueError("meta must not override the point key")
        line = json.dumps(record, sort_keys=True) + "\n"
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = "\n" + line
            os.write(fd, line.encode())
            os.fsync(fd)
        finally:
            os.close(fd)

    def complete(self) -> None:
        """Delete the journal after a clean finish.

        A journal on disk is the durable marker of an *interrupted*
        sweep; removing it on success keeps the cache dir free of
        stale journals (and makes a rerun of a finished sweep a
        fully-cached run that counts no journal replays).  Missing
        file is fine — a fully-cached rerun never created one.
        """
        try:
            self.path.unlink()
        except OSError:
            pass
