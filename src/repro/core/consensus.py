"""Bitwise min-consensus (paper Sect. 5).

Stations hold values from ``{0, ..., x}`` and must all agree on the
lexicographically smallest (as ``ceil(log2(x+1))``-bit strings, i.e. the
minimum value).  The protocol:

1. one global ``StabilizeProbability`` establishes backbone colors;
2. for each bit position (most significant first), stations whose value
   matches the agreed prefix extended by ``0`` *initiate* a bounded-time
   wake-up with established coloring; every station that hears (or
   initiates) the signal within the time box records bit ``0``, silence
   records bit ``1``.

A round of wake-up succeeds network-wide whp, so all stations append the
same bit and agreement follows by induction; total time is
``O(D log n log x + log^2 n log x)``.

Each engine execution is one time-boxed signal; between boxes stations
carry only their own local state (their value and the prefix they
learned), so the composition is still a distributed protocol — the driver
merely sequences the time boxes, which the shared global clock (Sect. 5
assumption) lets real stations do on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.coloring import run_coloring
from repro.core.constants import ProtocolConstants, dissemination_budget
from repro.core.wakeup import run_colored_wakeup
from repro.errors import ProtocolError
from repro.network.network import Network


def bits_for_range(x_max: int) -> int:
    """Number of bits in the message space ``{0..x_max}``."""
    if isinstance(x_max, bool) or not isinstance(x_max, (int, np.integer)):
        raise ProtocolError(f"x_max must be an integer, got {x_max!r}")
    x_max = int(x_max)  # a fixed-width x_max + 1 could wrap
    if x_max < 0:
        raise ProtocolError(f"x_max must be >= 0, got {x_max}")
    if x_max == 0:
        return 1
    return max(1, math.ceil(math.log2(x_max + 1)))


def integer_values(values) -> np.ndarray:
    """``values`` as an int64 array; bool and non-integer dtypes raise.

    Truncating ``2.7`` to ``2`` (or ``True`` to ``1``) would let a run
    decide a value no station holds and still report it correct.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ProtocolError(
            f"consensus values must be integers, got dtype {values.dtype}"
        )
    return values.astype(np.int64, copy=False)


def value_bits(value: int, width: int) -> str:
    """MSB-first fixed-width binary representation."""
    if value < 0:
        raise ProtocolError(f"consensus values must be >= 0, got {value}")
    if value >= 2 ** width:
        raise ProtocolError(
            f"value {value} does not fit in {width} bits"
        )
    return format(value, f"0{width}b")


@dataclass
class ConsensusResult:
    """Outcome of one consensus execution.

    :param decided: per-station decided value.
    :param agreed: all stations decided the same value.
    :param correct: the common decision equals the true minimum.
    :param total_rounds: end-to-end rounds (backbone coloring + all boxes).
    :param rounds_per_bit: rounds consumed by each bit's time box.
    """

    decided: np.ndarray
    agreed: bool
    correct: bool
    total_rounds: int
    rounds_per_bit: list[int]
    bits: int

    @classmethod
    def of(
        cls, decided: np.ndarray, values, total_rounds: int, rounds_per_bit,
        bits: int,
    ) -> "ConsensusResult":
        """The record of a run from its decisions and initial ``values``.

        The one agreement rule of the reference and the fast runs:
        ``agreed`` when every station decided alike, ``correct`` when
        that common decision is the minimum of ``values``.
        """
        agreed = bool(np.all(decided == decided[0]))
        correct = agreed and int(decided[0]) == int(np.min(values))
        return cls(
            decided, agreed, correct, int(total_rounds),
            [int(r) for r in rounds_per_bit], bits,
        )


def bit_box_rounds(
    network: Network, constants: ProtocolConstants, box_budget=None
) -> tuple[int, int]:
    """One bit box's dissemination budget and a silent box's length.

    :returns: ``(box_budget, silent_box)``.  ``box_budget`` defaults to
        :func:`~repro.core.constants.dissemination_budget` of the
        diameter; a box nobody initiates lasts the auxiliary coloring
        plus that whole budget, as long as any box may, so silence is
        meaningful.
    """
    n = network.size
    if box_budget is None:
        box_budget = dissemination_budget(n, network.diameter)
    return box_budget, box_budget + constants.coloring_total_rounds(n)


def run_consensus(
    network: Network,
    values: Sequence[int],
    x_max: int,
    constants: Optional[ProtocolConstants] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    box_budget: Optional[int] = None,
) -> ConsensusResult:
    """Agree on the minimum of ``values`` over the network.

    :param values: per-station initial values in ``{0..x_max}``.
    :param box_budget: rounds per bit time box; defaults to the wake-up
        budget (:func:`bit_box_rounds`) — every box must use the *same*
        fixed length so silence is meaningful.
    """
    if constants is None:
        constants = ProtocolConstants.practical()
    if rng is None:
        rng = np.random.default_rng(0)
    n = network.size
    values = integer_values(values).tolist()
    if len(values) != n:
        raise ProtocolError(
            f"need one value per station: got {len(values)} for n={n}"
        )
    width = bits_for_range(x_max)
    strings = [value_bits(v, width) for v in values]

    backbone = run_coloring(network, constants, rng)
    base_colors = np.where(np.isnan(backbone.colors), 0.0, backbone.colors)
    total_rounds = backbone.rounds
    box_budget, silent_box = bit_box_rounds(network, constants, box_budget)

    prefixes = [""] * n
    rounds_per_bit: list[int] = []
    for bit_pos in range(width):
        # Stations whose value extends the learned prefix with a 0 initiate.
        initiators = [
            v
            for v in range(n)
            if strings[v].startswith(prefixes[v] + "0")
        ]
        if initiators:
            outcome = run_colored_wakeup(
                network,
                initiators,
                base_colors,
                constants,
                rng,
                payload=("bit", bit_pos),
                round_budget=box_budget,
            )
            heard = outcome.informed_round >= 0
            box_rounds = outcome.total_rounds
        else:
            # Nobody transmits: the box is silent for its full length.
            heard = np.zeros(n, dtype=bool)
            box_rounds = silent_box
        rounds_per_bit.append(box_rounds)
        total_rounds += box_rounds
        for v in range(n):
            prefixes[v] += "0" if heard[v] else "1"

    return ConsensusResult.of(
        np.array([int(p, 2) for p in prefixes]), values, total_rounds,
        rounds_per_bit, width,
    )
