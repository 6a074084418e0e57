"""Adversarial wake-up schedules (paper Sect. 5, "Adhoc wake-up").

In the wake-up problem an adversary decides when each station wakes
spontaneously (possibly never — stations can instead be woken by receiving
a message).  A :class:`WakeupSchedule` maps stations to spontaneous wake
rounds; several canonical adversaries are provided as constructors.
"""

from __future__ import annotations



import numpy as np

from repro.errors import SimulationError


class WakeupSchedule:
    """Spontaneous wake-up times for each station.

    :param wake_rounds: length-``n`` integer array; ``wake_rounds[i]`` is
        the round at which station ``i`` wakes spontaneously, or a negative
        value if it never does (it can still be woken by a message).
        Float and boolean arrays are rejected, not truncated.
    """

    NEVER = -1

    def __init__(self, wake_rounds: np.ndarray):
        wake_rounds = np.asarray(wake_rounds)
        if wake_rounds.dtype.kind not in "iu":
            raise SimulationError(
                f"wake rounds must be integers, got dtype {wake_rounds.dtype}"
            )
        wake_rounds = wake_rounds.astype(int, copy=False)
        if wake_rounds.ndim != 1:
            raise SimulationError("wake schedule must be one-dimensional")
        finite = wake_rounds[wake_rounds >= 0]
        if finite.size == 0:
            raise SimulationError(
                "at least one station must wake spontaneously"
            )
        self.wake_rounds = wake_rounds

    @property
    def size(self) -> int:
        """Number of stations the schedule covers."""
        return self.wake_rounds.shape[0]

    @property
    def first_wake(self) -> int:
        """Round of the earliest spontaneous wake-up.

        Protocol running time is counted from this round (Sect. 5).
        """
        finite = self.wake_rounds[self.wake_rounds >= 0]
        return int(finite.min())

    def is_awake(self, station: int, round_no: int) -> bool:
        """Whether ``station`` has spontaneously woken by ``round_no``."""
        wake = int(self.wake_rounds[station])
        return wake >= 0 and wake <= round_no

    # ------------------------------------------------------------------
    # canonical adversaries
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, n: int, station: int, round_no: int = 0) -> "WakeupSchedule":
        """Only one station ever wakes spontaneously (broadcast-like).

        ``station`` must be an integer in ``[0, n)`` and ``round_no`` an
        integer (a negative one leaves no station to wake and is
        refused like any such schedule); bools and floats are refused,
        not truncated.
        """
        for name, value in (("station", station), ("round_no", round_no)):
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                raise SimulationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if not 0 <= station < n:
            raise SimulationError(
                f"station must be in [0, {n}), got {station}"
            )
        rounds = np.full(n, cls.NEVER)
        rounds[station] = round_no
        return cls(rounds)

    @classmethod
    def all_at(cls, n: int, round_no: int = 0) -> "WakeupSchedule":
        """Every station wakes at the same round (spontaneous setting)."""
        return cls(np.full(n, round_no))

    @classmethod
    def staggered(
        cls,
        n: int,
        spread: int,
        rng: np.random.Generator,
        fraction: float = 1.0,
    ) -> "WakeupSchedule":
        """Random wake rounds uniform in ``[0, spread]``.

        :param fraction: fraction of stations that wake spontaneously at
            all; the rest wait for a message.  At least one station always
            wakes.
        """
        if spread < 0:
            raise SimulationError(f"spread must be >= 0, got {spread}")
        if not 0 < fraction <= 1:
            raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
        rounds = rng.integers(0, spread + 1, size=n)
        if fraction < 1.0:
            sleepy = rng.random(n) >= fraction
            rounds = np.where(sleepy, cls.NEVER, rounds)
            if np.all(rounds < 0):
                rounds[int(rng.integers(0, n))] = int(
                    rng.integers(0, spread + 1)
                )
        return cls(rounds)

    @classmethod
    def adversarial_far_last(
        cls, n: int, spread: int, order: np.ndarray
    ) -> "WakeupSchedule":
        """Wake stations in a fixed order spread over ``spread`` rounds.

        ``order`` ranks stations (e.g. by distance from a corner); the
        adversary wakes the "far" end last, maximizing the time until the
        wake-up wave meets the stragglers.
        """
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(n)):
            raise SimulationError("order must be a permutation of 0..n-1")
        rounds = np.empty(n, dtype=int)
        ranks = np.empty(n, dtype=int)
        ranks[order] = np.arange(n)
        if n == 1:
            rounds[:] = 0
        else:
            rounds = (ranks * spread) // (n - 1)
        return cls(rounds)
