"""Small statistics helpers shared by the workloads and the compare tool."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[dict]:
    """The ``q``-th percentile of ``samples`` with its sample count.

    Nearest-rank definition: the smallest sample with at least ``q``%
    of the samples at or below it.  Returns ``None`` unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond the reported rank —
    a tail percentile estimated from fewer points is mostly noise.

    :returns: ``{"value", "samples", "beyond"}`` or ``None``.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return {
        "value": sorted(samples)[rank - 1], "samples": n, "beyond": beyond,
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class OpenLoopSchedule:
    """Due times of an open-loop generator and the latency they imply.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests.  Its latency runs from that due time, not from
    when the generator got round to sending it, so a stall in the
    generator or the system is charged to every request it delayed;
    the generator's own lateness (send minus due) is kept apart.
    """

    def __init__(self, rate: float, start: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate
        self.start = start
        self.latencies: list[float] = []
        self.lateness: list[float] = []

    def due(self, i: int) -> float:
        """When request ``i`` should be sent."""
        return self.start + i / self.rate

    def count_due(self, now: float) -> int:
        """How many requests are due at or before ``now``."""
        if now < self.start:
            return 0
        return math.floor((now - self.start) * self.rate) + 1

    def sent(self, i: int, at: float) -> None:
        """Record that request ``i`` left at ``at``."""
        self.lateness.append(max(0.0, at - self.due(i)))

    def done(self, i: int, at: float) -> None:
        """Record that request ``i``'s reply arrived at ``at``."""
        self.latencies.append(at - self.due(i))
