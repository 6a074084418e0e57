"""Deterministic fault injection for the sweep/service/cache stack.

Distributed-systems code earns its failure matrix (DESIGN.md §9.3,
§10) only if every row can be *provoked on demand, reproducibly*.  This
module is that provocation layer: a :class:`FaultPlan` is a seeded,
serializable schedule of faults — connection drops, stalled replies,
corrupt payloads, torn cache writes, ``ENOSPC``, scheduled process
kills — that the instrumented layers consult at named **sites**.

Design constraints, in order:

* **Zero overhead when off.**  Every site reduces to one module-global
  read and a ``None`` check (:func:`maybe_fire`); no plan installed
  means no rng draw, no dict lookup, no allocation.  Sites live on
  per-request / per-cache-op paths, never inside numeric kernels.
* **Deterministic and shrinkable.**  A plan is spawned from a
  :class:`numpy.random.SeedSequence`: each rule gets its own child
  stream, so decisions depend only on ``(seed, site, call ordinal)`` —
  never on wall clock or interleaving.  Re-running a failing schedule
  reproduces it; deleting rules or lowering ``max_fires`` shrinks it.
* **Plans decide, sites act.**  The plan answers "does fault X fire on
  this call?"; the *site* implements the fault (truncate the write,
  raise ``ENOSPC``, close the socket).  The catalogue of sites is part
  of the failure-model documentation (DESIGN.md §10.3).

Plans serialize to JSON (:meth:`FaultPlan.to_spec` /
:meth:`FaultPlan.from_spec`), so one schedule can drive a whole fleet:
``python -m repro.service --fault-plan plan.json`` installs it in a
daemon, and the ``REPRO_FAULT_PLAN`` environment variable installs it
in any process at import time (fork-pool workers, coordinator
subprocesses, benchmark children).

Site catalogue (the instrumented layers; DESIGN.md §10.3):

========================  ====================================================
site                      effect when fired
========================  ====================================================
``cache.put.torn``        the entry's payload is truncated mid-write (the
                          checksum layer must quarantine it on read)
``cache.put.enospc``      ``OSError(ENOSPC)`` raised from ``ResultCache.put``
``cache.get.corrupt``     one payload byte is flipped on disk before the read
``client.send.drop``      ``ServiceConnectionError`` before the request is
                          written (client-side connection drop)
``service.conn.drop``     the server closes the connection instead of
                          replying (server-side drop mid-request)
``service.reply.stall``   the reply is delayed by ``delay_s`` (per-request
                          timeouts must fire and re-dispatch)
``service.reply.corrupt`` the reply's pickle payload is mangled (the
                          payload checksum must reject it client-side)
``service.sweep.error``   the sweep handler fails with ``ServiceError``
                          (server-side point failure, bounded retries)
========================  ====================================================

Scheduled kills (``FaultPlan.kills``) are data, not sites: the plan
carries ``{"delay_s": ..., "target": ...}`` records and the test
harness applies them to real subprocesses (only a separate process can
be SIGKILLed mid-point).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.identity import checked_seed

#: Environment variable naming a JSON plan file to install at import
#: time — the cross-process wiring for daemons, fork workers and
#: coordinator subprocesses spawned by the chaos tests/benchmarks.
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One site's firing schedule inside a :class:`FaultPlan`.

    :param site: the site name this rule arms (see the module
        docstring's catalogue).
    :param p: per-call firing probability once eligible (``1.0`` =
        every eligible call fires).
    :param max_fires: total firing budget (``None`` = unbounded).
    :param after: number of eligible calls to let pass before the rule
        arms — "fail the third request" is ``after=2, max_fires=1``.
    :param delay_s: stall duration for delay-type sites
        (``service.reply.stall``).
    """

    site: str
    p: float = 1.0
    max_fires: Optional[int] = None
    after: int = 0
    delay_s: float = 0.0

    def to_spec(self) -> dict:
        """JSON-able form (inverse of :meth:`from_spec`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultRule":
        """Rebuild a rule from :meth:`to_spec` output."""
        return cls(**spec)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fired fault — returned by :meth:`FaultPlan.fires` so the
    site can parameterize its action (and tests can audit the record).

    :param site: the site that fired.
    :param call: 1-based ordinal of the call at that site.
    :param fire: 1-based ordinal among the site's *fired* calls.
    :param delay_s: the rule's stall duration (delay-type sites).
    """

    site: str
    call: int
    fire: int
    delay_s: float = 0.0


class FaultPlan:
    """A seeded, serializable fault schedule over named sites.

    Decisions are deterministic: rule ``i`` draws from its own
    ``SeedSequence(seed).spawn()`` child stream, so whether call ``k``
    at a site fires depends only on the plan's seed and ``k`` — never
    on timing.  Thread-safe: sites fire from executor threads and
    event-loop callbacks concurrently.

    :param rules: the per-site schedules (at most one rule per site).
    :param seed: entropy for the per-rule decision streams, a
        non-negative integer.
    :param kills: scheduled process kills — JSON records
        (``{"delay_s": float, "target": int | str}``) the chaos harness
        applies to real subprocesses; opaque to :meth:`fires`.
    """

    def __init__(
        self,
        rules: "list[FaultRule] | tuple[FaultRule, ...]" = (),
        seed: int = 0,
        kills: Optional[list] = None,
    ):
        self.rules = {rule.site: rule for rule in rules}
        if len(self.rules) != len(tuple(rules)):
            raise ValueError("at most one FaultRule per site")
        self.seed = checked_seed(seed, ValueError)
        self.kills = list(kills or [])
        streams = np.random.SeedSequence(self.seed).spawn(
            max(1, len(self.rules))
        )
        self._rng = {
            site: np.random.default_rng(stream)
            for site, stream in zip(sorted(self.rules), streams)
        }
        self._calls: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every fired :class:`FaultEvent`, in firing order (audit log).
        self.record: list[FaultEvent] = []

    def fires(self, site: str) -> Optional[FaultEvent]:
        """Whether this call at ``site`` faults; the event if so.

        Counts the call either way (``after`` offsets are in eligible
        calls), draws the rule's stream only when armed, and respects
        the ``max_fires`` budget.
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            if call <= rule.after:
                return None
            fired = self._fires.get(site, 0)
            if rule.max_fires is not None and fired >= rule.max_fires:
                return None
            if rule.p < 1.0 and self._rng[site].random() >= rule.p:
                return None
            self._fires[site] = fired + 1
            event = FaultEvent(
                site=site, call=call, fire=fired + 1,
                delay_s=rule.delay_s,
            )
            self.record.append(event)
            return event

    def stats(self) -> dict:
        """Per-site ``{calls, fires}`` counters (for reports/asserts)."""
        with self._lock:
            return {
                site: {
                    "calls": self._calls.get(site, 0),
                    "fires": self._fires.get(site, 0),
                }
                for site in self.rules
            }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_spec(self) -> dict:
        """JSON-able description (seed + rules + kills); counters are
        not part of the spec — a rebuilt plan starts fresh."""
        return {
            "seed": self.seed,
            "rules": [
                rule.to_spec() for _, rule in sorted(self.rules.items())
            ],
            "kills": list(self.kills),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_spec` output."""
        return cls(
            rules=[FaultRule.from_spec(r) for r in spec.get("rules", [])],
            seed=spec.get("seed", 0),
            kills=spec.get("kills"),
        )

    def save(self, path: "str | os.PathLike") -> None:
        """Write the plan spec as JSON (for ``--fault-plan`` /
        :data:`PLAN_ENV_VAR`)."""
        Path(path).write_text(json.dumps(self.to_spec(), indent=2))

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "FaultPlan":
        """Read a plan saved by :meth:`save`."""
        return cls.from_spec(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# process-wide installation
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears it).

    Instrumented sites start consulting it immediately; there is at
    most one active plan per process.
    """
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove the active plan (sites return to zero-overhead no-ops)."""
    install(None)


def current() -> Optional[FaultPlan]:
    """The active plan, or ``None`` (the production default)."""
    return _PLAN


def maybe_fire(site: str) -> Optional[FaultEvent]:
    """The site-side entry point: ``None`` unless a plan is installed
    *and* its rule for ``site`` fires on this call.

    This is the only call on production paths; with no plan installed
    it is one global read and a comparison.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.fires(site)


@contextlib.contextmanager
def active(plan: FaultPlan):
    """Context manager: install ``plan`` for the block, then restore
    whatever was active before (tests' bread and butter)."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def _install_from_env() -> None:
    """Install the plan named by :data:`PLAN_ENV_VAR`, if any.

    Runs once at import.  A missing or unreadable file is a hard error:
    a chaos run that silently proceeds fault-free would report
    robustness nobody tested.
    """
    path = os.environ.get(PLAN_ENV_VAR)
    if path:
        install(FaultPlan.load(path))


_install_from_env()
