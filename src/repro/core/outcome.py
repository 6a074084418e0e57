"""Shared result record and station checks for dissemination protocols.

Every broadcast-style run (the paper's two algorithms, the baselines, and
the wake-up variants) reports the same measurements, collected here so the
experiment harness can compare algorithms uniformly, and every run, reference
and fast, builds its record with :meth:`BroadcastOutcome.of`; every runner
that takes stations (a source, initiators, participants, flow endpoints)
refuses a bad one with the same check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ProtocolError


#: Marker in ``informed_round`` for stations never informed.
NEVER_INFORMED: int = -1


def check_stations(n: int, stations, name: str = "stations") -> list[int]:
    """The station indices ``stations`` names, sorted and without repeats.

    Every entry must be an integer (Python or numpy) in ``[0, n)``.  A
    bool passes ``0 <= v < n`` but names a mask entry, not a station
    (``[True, False]`` would read as stations 1 and 0), and a float is
    no index at all (``1.9`` would truncate to station 1), so both are
    refused with the out-of-range ones.  ``name`` names the input in
    the error.

    :raises ProtocolError: for the first entry that is not a station.
    """
    stations = list(stations)  # one pass, also over an iterator
    for v in stations:
        if (
            isinstance(v, (bool, np.bool_))
            or not isinstance(v, (int, np.integer))
            or not 0 <= v < n
        ):
            raise ProtocolError(
                f"{name}: {v!r} is not an integer station index in [0, {n})"
            )
    return sorted({int(v) for v in stations})


def check_source(n: int, source) -> None:
    """Refuse a broadcast ``source`` that is not a station of ``n``.

    The one-station case of :func:`check_stations` (a bool source would
    index as a mask: ``informed[:, True]`` marks every station).

    :raises ProtocolError: for any other ``source``.
    """
    check_stations(n, [source], "source")


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

    @classmethod
    def of(
        cls, informed_round: np.ndarray, total_rounds: int, algorithm: str,
        extras: Optional[dict] = None,
    ) -> "BroadcastOutcome":
        """The record of a run from its per-station round stamps.

        The one success/completion rule of every runner, reference and
        fast: the run succeeded when every station holds a stamp, and
        then completed at the last one.
        """
        success = bool(np.all(informed_round != NEVER_INFORMED))
        completion = int(informed_round.max()) if success else NEVER_INFORMED
        return cls(
            success, completion, int(total_rounds), informed_round,
            algorithm, {} if extras is None else extras,
        )

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
