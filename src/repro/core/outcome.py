"""Shared result record and source check for dissemination protocols.

Every broadcast-style run (the paper's two algorithms, the baselines, and
the wake-up variants) reports the same measurements, collected here so the
experiment harness can compare algorithms uniformly; every broadcast
runner, reference and fast, refuses a bad source with the same check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProtocolError


#: Marker in ``informed_round`` for stations never informed.
NEVER_INFORMED: int = -1


def check_source(n: int, source) -> None:
    """Refuse a broadcast ``source`` that is not a station of ``n``.

    The source must be an integer (Python or numpy) in ``[0, n)``.  A
    bool passes ``0 <= source < n`` but indexes as a mask, not a
    station (``informed[:, True]`` marks every station), and a float is
    no index at all, so both are refused with the out-of-range ones.

    :raises ProtocolError: for any other ``source``.
    """
    if (
        isinstance(source, (bool, np.bool_))
        or not isinstance(source, (int, np.integer))
        or not 0 <= source < n
    ):
        raise ProtocolError(
            f"source must be an integer station index in [0, {n}), "
            f"got {source!r}"
        )


@dataclass
class BroadcastOutcome:
    """Result of one dissemination run.

    :param success: every station was informed within the round budget.
    :param completion_round: round (0-based, inclusive) at which the last
        station became informed; meaningful only when ``success``.
    :param total_rounds: rounds actually executed by the simulator.
    :param informed_round: per-station round of first information
        (:data:`NEVER_INFORMED` if never), with the source at its wake
        round.
    :param algorithm: label for reports.
    :param extras: free-form per-algorithm measurements (e.g. number of
        phases, coloring rounds).
    """

    success: bool
    completion_round: int
    total_rounds: int
    informed_round: np.ndarray
    algorithm: str
    extras: dict = field(default_factory=dict)

    @property
    def num_informed(self) -> int:
        """How many stations were informed."""
        return int(np.sum(self.informed_round >= 0))

    def progress_curve(self) -> np.ndarray:
        """Cumulative informed count by round (length ``total_rounds+1``).

        ``curve[t]`` is the number of stations informed at or before round
        ``t``; useful for plotting/pipelining analysis.
        """
        n_rounds = self.total_rounds + 1
        curve = np.zeros(n_rounds, dtype=int)
        for r in self.informed_round:
            if 0 <= r < n_rounds:
                curve[int(r)] += 1
        return np.cumsum(curve)
