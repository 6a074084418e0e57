"""Atomic lease files over the shared result-cache directory.

A lease marks one grid point as *being computed* by one worker.  The
file lives next to the point's future cache entry — ``<key>.lease``
beside ``<key>.pkl`` — so any process that can see the result bus can
see the leases, with no coordination service beyond the filesystem:

* **claim** is ``O_CREAT | O_EXCL``: the filesystem arbitrates, exactly
  one concurrent claimant wins (the guarantee POSIX gives for local
  filesystems, and NFSv3+ gives for exclusive create);
* **expiry** bounds the damage of a worker killed mid-point: a lease
  carries a deadline (refreshed while its holder is alive), and once it
  passes any other worker may **steal** the lease and re-run the point;
* **release** deletes the file on completion, normally right after the
  result is published under the ordinary cache key.

Leases are a *work-saving* layer, not a correctness layer.  The steal
path (atomic ``os.replace`` + read-back confirmation) makes duplicate
execution rare, but a pathological interleaving can still let two
workers compute the same point — and that is fine by construction:
point results are deterministic functions of their preparation-time
seeds, and the cache publish is an atomic last-write-wins replace of
*identical bytes* (DESIGN.md §9.2).  Nothing downstream can observe who
won.

Stale lease files (a worker SIGKILLed before release) stay inert once
expired and are swept by :meth:`repro.fastsim.cache.ResultCache.prune`
alongside orphaned ``.tmp`` files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Optional

#: Suffix of lease files, next to the ``.pkl`` entries they guard.
LEASE_SUFFIX = ".lease"

#: Default time-to-live of a claim before anyone may steal it.  Holders
#: refresh at a fraction of this, so only a dead holder ever expires.
DEFAULT_TTL_S = 30.0


@dataclasses.dataclass(frozen=True)
class LeaseState:
    """One lease file's decoded content.

    :param owner: the claimant's identity string (``host:pid`` plus a
        per-board nonce — distinct across processes *and* across two
        boards in one process).
    :param claimed_at: unix time of the original claim.
    :param deadline: unix time after which the lease may be stolen.
    """

    owner: str
    claimed_at: float
    deadline: float

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the lease may be stolen (deadline passed)."""
        return (time.time() if now is None else now) >= self.deadline


class LeaseBoard:
    """Claim / refresh / release / steal leases in one directory.

    One board per worker process; its identity (``host:pid:nonce``) is
    stable for the board's lifetime, so a claim can be confirmed by
    read-back.

    :param root: the shared directory (normally the result-cache root;
        created on first claim).
    :param ttl: seconds a claim stays valid without a refresh.
    """

    def __init__(self, root: "str | os.PathLike", ttl: float = DEFAULT_TTL_S):
        self.root = Path(root)
        self.ttl = float(ttl)
        self.owner = (
            f"{socket.gethostname()}:{os.getpid()}:{os.urandom(4).hex()}"
        )
        self.claimed = 0
        self.stolen = 0
        self.contended = 0
        self.released = 0

    def path(self, key: str) -> Path:
        """The lease file guarding cache entry ``key``."""
        return self.root / f"{key}{LEASE_SUFFIX}"

    def read(self, key: str) -> Optional[LeaseState]:
        """Decode ``key``'s lease; ``None`` when no lease exists.

        An unreadable or partially written file (a claimant crashed
        between create and write) degrades to a lease whose deadline is
        the file's mtime plus the ttl — unknown holders still get their
        full grace period, then become stealable.
        """
        path = self.path(key)
        try:
            raw = path.read_text()
            state = json.loads(raw)
            return LeaseState(
                owner=str(state["owner"]),
                claimed_at=float(state["claimed_at"]),
                deadline=float(state["deadline"]),
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                return None
            return LeaseState(
                owner="<unreadable>", claimed_at=mtime,
                deadline=mtime + self.ttl,
            )

    def _payload(self, claimed_at: float) -> bytes:
        return json.dumps(
            {
                "owner": self.owner,
                "claimed_at": claimed_at,
                "deadline": time.time() + self.ttl,
            }
        ).encode()

    def claim(self, key: str) -> bool:
        """Try to take the lease on ``key``; ``True`` when this board
        now holds it.

        Re-claiming a lease this board already holds refreshes it and
        succeeds.  A live lease held elsewhere fails; an expired one is
        stolen (see :meth:`_steal`).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        try:
            fd = os.open(
                path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            current = self.read(key)
            if current is None:
                # Released between our open and read; retry the fast path.
                return self.claim(key)
            if current.owner == self.owner:
                self.refresh(key)
                return True
            if not current.expired():
                self.contended += 1
                return False
            return self._steal(key, current)
        with os.fdopen(fd, "wb") as handle:
            handle.write(self._payload(time.time()))
        self.claimed += 1
        return True

    def _steal(self, key: str, expired: LeaseState) -> bool:
        """Replace an expired lease atomically and confirm ownership.

        ``os.replace`` makes the overwrite atomic; the read-back makes
        the outcome unambiguous when several stealers race — the last
        replacer owns the lease, everyone else sees a foreign owner and
        reports failure.  (A loser that *briefly* held the file cannot
        corrupt anything: see the module docstring's duplicate-work
        argument.)
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.steal.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._payload(time.time()))
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        confirmed = self.read(key)
        if confirmed is not None and confirmed.owner == self.owner:
            self.claimed += 1
            self.stolen += 1
            return True
        self.contended += 1
        return False

    def refresh(self, key: str) -> bool:
        """Extend a held lease's deadline; ``False`` if no longer held.

        Holders call this at a fraction of the ttl while computing, so
        a lease only ever expires when its holder actually died.
        """
        current = self.read(key)
        if current is None or current.owner != self.owner:
            return False
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.refresh.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._payload(current.claimed_at))
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def release(self, key: str) -> bool:
        """Drop a held lease; ``False`` when it was not ours to drop."""
        current = self.read(key)
        if current is None or current.owner != self.owner:
            return False
        try:
            os.unlink(self.path(key))
        except OSError:
            return False
        self.released += 1
        return True

    def stats(self) -> dict:
        """Counters for the service ``stats`` op and the shard report."""
        return {
            "owner": self.owner,
            "ttl_s": self.ttl,
            "claimed": self.claimed,
            "stolen": self.stolen,
            "contended": self.contended,
            "released": self.released,
        }
