"""Seeded arrival processes for the traffic engine.

Each process maps ``(rng, rounds)`` to a per-round packet count vector.
Processes are :class:`~repro.identity.Identified` values, so flows
carrying them contribute their full identity to grid cache keys, and
every process consumes a
*fixed* amount of randomness given ``rounds`` — independent of the
counts it produces — so arrival streams replay bit-for-bit across
``jobs=1`` / ``jobs=N`` and the service path (DESIGN.md §11.6).
"""

from __future__ import annotations

import math
from abc import abstractmethod

import numpy as np

from repro.errors import ProtocolError
from repro.identity import Identified


def _checked_rate(rate: float) -> float:
    """``rate`` as a float; ProtocolError unless it is finite and > 0."""
    if not 0 < rate < math.inf:
        raise ProtocolError(f"arrival rate must be finite and > 0, got {rate}")
    return float(rate)


class ArrivalProcess(Identified):
    """Strategy mapping ``(rng, rounds)`` to per-round packet counts."""

    @abstractmethod
    def draw(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        """Per-round packet counts, ``(rounds,)`` int64.

        Implementations must consume an amount of the generator's
        stream that depends only on ``rounds`` (never on the drawn
        values), so multi-flow draws stay aligned whatever each flow
        produces.
        """


class Poisson(ArrivalProcess):
    """Memoryless arrivals: ``count_t ~ Poisson(rate)`` i.i.d. per round.

    :param rate: mean packets injected per round (finite, ``> 0``).
    """

    def __init__(self, rate: float):
        self.rate = _checked_rate(rate)

    def identity(self) -> tuple:
        return ("poisson", self.rate)

    def draw(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        """One Poisson variate per round (fixed stream consumption)."""
        return rng.poisson(self.rate, size=rounds).astype(np.int64)


class CBR(ArrivalProcess):
    """Constant bit rate: deterministic ``rate`` packets per round.

    Fractional rates spread evenly — round ``t`` injects
    ``floor((t+1) rate) - floor(t rate)`` packets — and the draw
    consumes **no** randomness, so CBR flows never shift other flows'
    streams.

    :param rate: packets per round (finite, ``> 0``, may be fractional).
    """

    def __init__(self, rate: float):
        self.rate = _checked_rate(rate)

    def identity(self) -> tuple:
        return ("cbr", self.rate)

    def draw(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        """Deterministic evenly-spread counts (no stream consumption)."""
        t = np.arange(rounds + 1, dtype=np.float64)
        marks = np.floor(t * self.rate).astype(np.int64)
        return np.diff(marks)


class OnOff(ArrivalProcess):
    """Bursty two-state arrivals (a Markov-modulated Poisson process).

    A seeded on/off chain — switching on with probability ``p_on`` per
    off-round and off with ``p_off`` per on-round — gates Poisson
    arrivals at ``rate``.  Both the state walk and the Poisson counts
    are drawn for *every* round up front (off-round counts are masked
    to zero, not skipped), so stream consumption is fixed at
    ``2 * rounds`` variates regardless of the state trajectory.

    :param rate: mean packets per *on* round (finite, ``> 0``).
    :param p_on: off → on switch probability per round.
    :param p_off: on → off switch probability per round.
    :param start_on: whether round 0 starts in the on state.
    """

    def __init__(
        self,
        rate: float,
        p_on: float = 0.1,
        p_off: float = 0.1,
        *,
        start_on: bool = True,
    ):
        self.rate = _checked_rate(rate)
        if not 0.0 < p_on <= 1.0 or not 0.0 < p_off <= 1.0:
            raise ProtocolError(
                "switch probabilities must be in (0, 1], got "
                f"p_on={p_on} p_off={p_off}"
            )
        self.p_on = float(p_on)
        self.p_off = float(p_off)
        self.start_on = bool(start_on)

    def identity(self) -> tuple:
        return ("on-off", self.rate, self.p_on, self.p_off, self.start_on)

    def draw(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        """Poisson counts masked by the seeded on/off state walk."""
        switches = rng.random(rounds)
        counts = rng.poisson(self.rate, size=rounds).astype(np.int64)
        on = self.start_on
        for t in range(rounds):
            if on:
                if switches[t] < self.p_off:
                    on = False
            else:
                if switches[t] < self.p_on:
                    on = True
            if not on:
                counts[t] = 0
        return counts
