"""The batch coalescer: concurrent queries share one kernel call.

Queries arriving within a short window — or, the common case under
load, *while a previous kernel call is still in flight* — are folded
into a single invocation of the serving resolver, so per-call Python
dispatch is paid once per batch instead of once per request.  With
the serving resolver's query-proportional cost that sharing is a small
gain (``benchmarks/bench_service.py`` records the batching-only ratio,
about 1x at n = 20k sparse on 2 cores); ``max_batch=1, window=0``
serves one query per call.

Coalescing is **semantically invisible** by construction: the fold runs
through :func:`repro.sinr.reception.resolve_reception_many`, whose
exact-zero-neutral fold contract (DESIGN.md §6.2) makes every row of a
batch bitwise identical to the same query served alone.  The
equivalence is tested, not assumed (``tests/test_service.py``), and it
is why a coalescing server needs no opt-in from clients.

The class is generic over its ``fold`` callable so the policy
(window, max batch, in-flight accumulation, cancellation) is testable
without a network stack; the server instantiates one coalescer per
(network, noise, beta) signature — only queries against the same
resolver arguments may share a kernel call.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class CoalescerStats:
    """Observable batching behaviour (the ``stats`` op reports these).

    :param requests: queries submitted.
    :param batches: kernel calls issued.
    :param max_batch: largest batch folded into one call.
    :param folded: requests that shared their call with at least one
        other request — the coalescing win counter.
    """

    requests: int = 0
    batches: int = 0
    max_batch: int = 0
    folded: int = 0
    _sizes: list = field(default_factory=list, repr=False)

    def record(self, batch_size: int) -> None:
        """Account one issued kernel call of ``batch_size`` requests."""
        self.batches += 1
        self.max_batch = max(self.max_batch, batch_size)
        if batch_size > 1:
            self.folded += batch_size

    def mean_batch(self) -> float:
        """Mean requests per kernel call."""
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """JSON-ready view for the ``stats`` op."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "folded": self.folded,
            "mean_batch": self.mean_batch(),
        }


class BatchCoalescer:
    """Fold concurrently submitted items into batched ``fold`` calls.

    :param fold: ``fold(items) -> results`` (one result per item, in
        order), executed on a worker thread so the event loop keeps
        accepting — and coalescing — new submissions while a fold is in
        flight.  For the SINR service this is a partial application of
        :func:`repro.sinr.reception.resolve_reception_many`.
    :param window: seconds the drainer waits after the first pending
        item before issuing a call, letting near-simultaneous arrivals
        join.  ``0`` still coalesces under load (arrivals during an
        in-flight fold pile up for the next one); it just issues the
        first call immediately.
    :param max_batch: largest batch per call — bounds the ``(B, n)``
        mask a burst can materialize.  Excess items wait for the next
        call, in arrival order; ``max_batch=1, window=0`` serves one
        item per fold call, first in first out.
    :param executor: optional ``concurrent.futures`` executor the fold
        runs on.  The server passes a single worker so kernel calls are
        serialized — throughput then measures batch efficiency, not how
        many cores happen to contend over one resolver.  ``None`` uses
        ``asyncio.to_thread``'s default pool.
    """

    def __init__(
        self,
        fold: Callable[[Sequence], list],
        *,
        window: float = 0.002,
        max_batch: int = 128,
        executor=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._fold = fold
        self.window = window
        self.max_batch = max_batch
        self.executor = executor
        self.stats = CoalescerStats()
        self._pending: list[tuple[object, asyncio.Future]] = []
        self._drainer: Optional[asyncio.Task] = None

    async def _run_fold(self, items: list) -> list:
        """Run one fold call off the event loop (see ``executor``)."""
        if self.executor is None:
            return await asyncio.to_thread(self._fold, items)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.executor, self._fold, items
        )

    async def submit(self, item):
        """Serve ``item`` through a (possibly shared) fold call.

        Cancellation-safe mid-batch: cancelling the awaiting task
        cancels only this item's future — the fold still runs (or
        completes) for the other items in the batch, whose results are
        delivered normally.
        """
        self.stats.requests += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((item, future))
        if self._drainer is None or self._drainer.done():
            self._drainer = loop.create_task(self._drain())
        return await future

    async def _drain(self) -> None:
        """Issue fold calls until the pending queue is empty.

        One drainer exists at a time; it snapshots up to ``max_batch``
        pending entries per iteration, runs the fold on a worker thread
        and distributes results.  Items submitted while the fold runs
        land in ``self._pending`` and are picked up by the next
        iteration — that in-flight accumulation is where coalescing
        comes from under sustained load.
        """
        while self._pending:
            if self.window > 0:
                await asyncio.sleep(self.window)
            else:
                # Yield once so submissions queued in the same event-loop
                # tick can still join this batch.
                await asyncio.sleep(0)
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            if not batch:  # pragma: no cover - pending drained elsewhere
                continue
            live = [(item, fut) for item, fut in batch if not fut.done()]
            if not live:
                continue
            self.stats.record(len(live))
            try:
                results = await self._run_fold(
                    [item for item, _ in live]
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded per future
                for _, fut in live:
                    if not fut.done():
                        fut.set_exception(exc)
                if not isinstance(exc, Exception):
                    raise  # propagate cancellations / SystemExit
                continue
            for (_, fut), result in zip(live, results):
                if not fut.done():
                    fut.set_result(result)
