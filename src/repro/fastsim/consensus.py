"""Vectorized bitwise min-consensus (paper Sect. 5).

Mirrors :mod:`repro.core.consensus`: one global ``StabilizeProbability``
establishes backbone colors, then one time-boxed colored wake-up per bit
of the message space — stations whose value extends the learned prefix
with ``0`` initiate, hearing (or initiating) within the box records bit
``0``, silence records bit ``1``.  Prefix bookkeeping is integer-valued
here (``prefix*2 + bit``) instead of the reference's bit strings, which
is the same induction vectorized.

:func:`fast_consensus_batch` runs ``B`` replications (independent value
vectors and random streams) through every bit box at once; replications
whose initiator set is empty sit out the box silently without consuming
randomness, exactly like the reference's no-transmitter branch.  Results
reuse :class:`repro.core.consensus.ConsensusResult` so the experiment
harness and tests treat reference and fast runs uniformly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.consensus import (
    ConsensusResult,
    bit_box_rounds,
    bits_for_range,
    integer_values,
)
from repro.core.constants import ProtocolConstants
from repro.errors import ProtocolError
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import Medium
from repro.fastsim.wakeup import fast_colored_wakeup_batch
from repro.network.network import Network

Rngs = Sequence[np.random.Generator]


def fast_consensus_batch(
    network: Network,
    values: np.ndarray,
    x_max: int,
    constants: ProtocolConstants,
    rngs: Rngs,
    *,
    box_budget: Optional[int] = None,
    medium: Optional[Medium] = None,
) -> list[ConsensusResult]:
    """Agree on the minimum of each replication's values, batched.

    :param values: per-station initial values in ``{0..x_max}`` —
        ``(n,)`` shared across replications or ``(B, n)`` per replication.
    :param box_budget: rounds per bit time box; defaults to the wake-up
        budget (:func:`~repro.core.consensus.bit_box_rounds`) — every
        box must use the *same* fixed length so silence is meaningful.
    :param medium: optional :class:`~repro.fastsim.engine.Medium`
        (default: the static ``network``, no MAC) shared by the backbone
        coloring and every bit box, so all stages ride one trajectory
        and one MAC session (round-keyed arbitration makes the skipped
        silent boxes stream-neutral).
    """
    n = network.size
    B = len(rngs)
    values = integer_values(values)
    if values.shape == (n,):
        values = np.broadcast_to(values, (B, n)).copy()
    elif values.shape != (B, n):
        raise ProtocolError(
            f"need one value per station: values must have shape ({n},) "
            f"or ({B}, {n}), got {values.shape}"
        )
    if (values < 0).any():
        raise ProtocolError("consensus values must be >= 0")
    width = bits_for_range(x_max)
    if (values >= 2 ** width).any():
        raise ProtocolError(f"some value does not fit in {width} bits")

    if medium is None:
        medium = Medium(network)
    backbone = fast_coloring_batch(network, constants, rngs, medium=medium)
    base_colors = np.where(np.isnan(backbone.colors), 0.0, backbone.colors)
    total_rounds = np.full(B, backbone.rounds, dtype=int)
    box_budget, silent_box = bit_box_rounds(network, constants, box_budget)

    prefix = np.zeros((B, n), dtype=np.int64)
    # Whether each station's own value still extends its learned prefix.
    matches = np.ones((B, n), dtype=bool)
    rounds_per_bit = np.zeros((B, width), dtype=int)
    for bit_pos in range(width):
        bits = (values >> (width - 1 - bit_pos)) & 1
        initiators = matches & (bits == 0)
        live = initiators.any(axis=1)
        if live.any():
            outcomes = fast_colored_wakeup_batch(
                network,
                initiators,
                base_colors,
                constants,
                rngs,
                round_budget=box_budget,
                enabled=live,
                medium=medium,
            )
            heard = np.stack(
                [out.informed_round >= 0 for out in outcomes]
            )
            box_rounds = np.array(
                [out.total_rounds for out in outcomes], dtype=int
            )
        else:
            heard = np.zeros((B, n), dtype=bool)
            box_rounds = np.zeros(B, dtype=int)
        # Nobody transmits: the box is silent for its full length.
        heard[~live] = False
        box_rounds[~live] = silent_box
        rounds_per_bit[:, bit_pos] = box_rounds
        total_rounds += box_rounds
        decided_bit = np.where(heard, 0, 1)
        prefix = prefix * 2 + decided_bit
        matches &= bits == decided_bit

    return [
        ConsensusResult.of(
            prefix[b].copy(), values[b], total_rounds[b], rounds_per_bit[b],
            width,
        )
        for b in range(B)
    ]

