"""Protocol constants and the deterministic coloring schedule.

The paper leaves the constants ``c0, c1, c2, c3, c', c_eps, C1, C2,
p_start, p_max`` to the analysis (Sect. 3), where they are chosen to make
union bounds close — i.e. they are *proof artifacts*, far larger than any
simulation needs.  This module provides both:

* :meth:`ProtocolConstants.theoretical` — a faithful transcription of the
  paper's formulas (Fact 6, Proposition 1, Lemmas 5–7), used to document
  and unit-test the derivations; and
* :meth:`ProtocolConstants.practical` — small calibrated values with the
  *same asymptotic structure* (``Theta(log n)`` test lengths,
  ``Theta(1/n)`` start probability, a doubling ladder of ``O(log n)``
  colors), which make the algorithms run at simulation scale.  All
  experiments measure scaling, which the constants do not affect.

The *schedule* of ``StabilizeProbability`` is deterministic once ``n`` is
fixed: every station doubles its probability at the same global rounds, so
all active stations share the same ``p_v`` at all times and colors are
identified with *quit levels*.  :class:`ColoringSchedule` centralizes that
round arithmetic; the node state machines and the vectorized fastsim both
consume it, which keeps the two implementations in lockstep by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.errors import ProtocolError
from repro.sinr.params import SINRParameters


def log2ceil(n: int) -> int:
    """``max(1, ceil(log2 n))`` — the paper's ``log n`` round unit."""
    if n < 1:
        raise ProtocolError(f"log2ceil needs n >= 1, got {n}")
    if n == 1:
        return 1
    return max(1, math.ceil(math.log2(n)))


def phase_length(n: int, max_degree: int) -> int:
    """Local-broadcast phase length ``Theta((Delta + log n) log n)``.

    The one formula behind the reference local-broadcast composition
    (:mod:`repro.baselines.local_broadcast`) and its fast kernel.
    """
    logn = log2ceil(n)
    return max(1, int(2.0 * (max_degree + logn) * logn))


def dissemination_budget(n: int, depth: int) -> int:
    """Default dissemination budget ``16 (depth log n + log^2 n)``.

    The ``O(D log n + log^2 n)`` shape of Theorem 2 with generous slack,
    for a message ``depth`` hops from its farthest station: the budget
    of ``SBroadcast``'s dissemination stage, of a colored wake-up, of
    one consensus bit box and (with a hop estimate for ``depth``) of
    the scale experiments' sweeps.
    """
    logn = log2ceil(n)
    return 16 * (depth * logn + logn * logn)


def phase_budget(depth: int) -> int:
    """Default phase cap ``2 depth + 8``.

    One phase advances the message at least one hop whp (Lemma 8), so
    ``O(D)`` phases suffice: the cap of ``NoSBroadcast``, of ad hoc
    wake-up and of the local-broadcast composition.
    """
    return 2 * depth + 8


def uniform_flood_q(max_degree: int) -> float:
    """Uniform flooding's default probability ``1 / Delta``."""
    return 1.0 / max(1, max_degree)


def uniform_flood_budget(depth: int, q: float) -> int:
    """Uniform flooding's default budget, ``64 (depth + 1) floor(1/q)``.

    At least 64 rounds.
    """
    return max(64, 64 * (depth + 1) * max(1, int(1.0 / q)))


def decay_ladder_len(n: int) -> int:
    """Decay sweep's default ladder: ``log n + 1`` rungs."""
    return log2ceil(n) + 1


def decay_budget(depth: int, ladder_len: int) -> int:
    """Decay sweep's default budget: ``96 (depth + 1)`` sweeps, at least 8."""
    return max(8 * ladder_len, 96 * (depth + 1) * ladder_len)


def local_broadcast_q(max_degree: int) -> float:
    """Local-broadcast transmit probability ``1 / (2 Delta)``."""
    return 1.0 / (2.0 * max_degree)


def converging_zeta(exponent: float, terms: int = 100000) -> float:
    """``sum_{i >= 1} i^-exponent`` for ``exponent > 1``.

    The paper's interference sums reduce to this series (it calls out the
    Riemann zeta connection in Claim 3); we evaluate it by direct summation
    plus an integral tail bound, which is accurate to ~1e-9 for the
    exponents in play (``alpha - gamma + 1 > 1``).
    """
    if exponent <= 1:
        raise ProtocolError(
            f"series sum_i i^-s diverges for s <= 1, got s={exponent}"
        )
    head = sum(i ** -exponent for i in range(1, terms + 1))
    # integral tail: sum_{i > T} i^-s <= T^(1-s) / (s - 1)
    tail = terms ** (1 - exponent) / (exponent - 1)
    return head + tail


@dataclass(frozen=True)
class ProtocolConstants:
    """Tunable constants of ``StabilizeProbability`` and the broadcasts.

    Field names map to the paper as follows:

    ==================== =====================================================
    field                paper symbol / role
    ==================== =====================================================
    ``start_scale``      ``p_start = start_scale / n`` (paper: ``C1 / (2n)``)
    ``pmax``             ``p_max`` — top of the probability ladder
    ``ceps``             ``c_eps`` — Playoff scale-up factor
    ``density_rounds``   ``c0`` — DensityTest lasts ``c0 log n`` rounds
    ``density_frac``     ``c1 / c0`` — success fraction for DensityTest=True
    ``playoff_rds``      ``c2`` — Playoff lasts ``c2 log n`` rounds
    ``playoff_frac``     ``c3 / c2`` — success fraction for Playoff=True
    ``repeats``          ``c'`` — DensityTest+Playoff repetitions per level
    ``dissemination``    ``c`` — part-2 probability is ``p_v * c / log n``
    ``part2_scale``      ``a`` — part 2 lasts ``a log^2 n`` rounds
    ==================== =====================================================

    **Playoff success semantics.** The paper counts a station's own
    transmissions as Playoff successes ("a station hears a message
    transmitted by itself", Lemma 6); its proof constants keep
    ``p_max * c_eps`` far below ``c3/c2`` (Sect. 3.4 forces
    ``C2' <= c3/(8 c2)``), so self-transmissions can never push a sparse
    station over the threshold.  At simulation scale the ladder must reach
    ``p_max * c_eps = Theta(1)`` within ``~log2 n`` doublings, which would
    let *any* station pass Playoff by merely transmitting — inverting the
    test's meaning.  The practical default therefore counts **receptions
    only** in Playoff (``playoff_counts_self = False``), preserving the
    paper's invariant (Playoff passes only where the *local* mass is
    large); set ``playoff_counts_self=True`` to restore the paper's exact
    bookkeeping (used by the calibration ablation and the theoretical
    constants, which satisfy the paper's constant inequalities).

    **Calibration of the defaults** (``tools/calibrate.py``; DESIGN.md
    §4.3).  The discriminating mechanism of ``Playoff`` is
    interference: scaled-up transmissions must bury receptions from
    outside the close neighbourhood while the capture effect (path loss
    ``alpha > gamma``) keeps genuinely close transmitters decodable.
    Measured on the SINR channel, receptions from beyond ~0.4 die once the
    expected number of simultaneous transmitters per unit ball exceeds ~6,
    which with unit-ball masses around ``C1/2 ~ 0.25`` requires
    ``ceps ~ 32``; ``pmax = 0.9/ceps`` keeps Playoff probabilities below
    1.  Test lengths of ``12 log n`` with thresholds of 18% / 22% push the
    probability that a *lonely* station passes both gates by Poisson noise
    below ~1e-3 per execution while dense cells pass within one or two
    levels — the practical analogue of the paper's whp calibration.
    """

    start_scale: float = 0.25
    pmax: float = 0.9 / 32.0
    ceps: float = 32.0
    density_rounds: float = 12.0
    density_frac: float = 0.18
    playoff_rds: float = 12.0
    playoff_frac: float = 0.22
    repeats: int = 2
    dissemination: float = 6.0
    part2_scale: float = 1.5
    playoff_counts_self: bool = False

    def __post_init__(self) -> None:
        if self.start_scale <= 0:
            raise ProtocolError("start_scale must be positive")
        if not 0 < self.pmax <= 0.5:
            raise ProtocolError(
                f"pmax must be in (0, 1/2] (Fact 4/5 need sums <= 1/2), "
                f"got {self.pmax}"
            )
        if self.ceps < 1:
            raise ProtocolError(f"ceps must be >= 1, got {self.ceps}")
        if self.pmax * self.ceps > 1.0:
            raise ProtocolError(
                f"pmax * ceps = {self.pmax * self.ceps} > 1: Playoff "
                "transmission probability would exceed 1"
            )
        if self.density_rounds <= 0 or self.playoff_rds <= 0:
            raise ProtocolError("test lengths must be positive")
        if not 0 < self.density_frac < 1 or not 0 < self.playoff_frac < 1:
            raise ProtocolError("test thresholds must be fractions in (0,1)")
        if self.repeats < 1:
            raise ProtocolError(f"repeats must be >= 1, got {self.repeats}")
        if self.dissemination <= 0 or self.part2_scale <= 0:
            raise ProtocolError("dissemination constants must be positive")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def practical(cls, **overrides) -> "ProtocolConstants":
        """Calibrated defaults used by all simulations (see module doc)."""
        return cls(**overrides)

    @classmethod
    def theoretical(
        cls,
        params: SINRParameters,
        gamma: float = 2.0,
    ) -> "ProtocolConstants":
        """Transcription of the paper's constant derivations.

        Follows Sect. 3 with the paper's own normalizations (the ``O``
        constant of the growth property set to 1, Sect. 2), ``z = 6`` and
        ``a = 2`` as fixed below Lemma 5/Claim 2:

        * ``q = 1 / (z^gamma 2^(alpha+4) beta sum_{i>=1} i^(gamma-alpha-1))``
          (end of Claim 4's proof);
        * ``C1 = N alpha / (6 C')`` with
          ``C' = (3/2)^alpha (beta) sum_{i>=1} i^(gamma-alpha-1)``
          (proof of Fact 6, using ``P = beta N``);
        * ``c1/c0 = C1 / (16 y)`` with ``y = chi(1, 1/6) = 6^gamma``
          (Proposition 1, where ``C1' = C1/(2y)`` and
          ``c1/c0 <= C1'/8``);
        * ``c3/c2 = q/16 * (1/4)^(a^gamma z^gamma q)`` (Lemma 6 sets
          ``2 c3/c2`` equal to the reception probability bound);
        * ``c_eps = 8 ln(4 c2/c3) / (eps^alpha C1 c_d)`` with
          ``c_d = 1/(16 y)`` (Sect. 3.4);
        * ``C2 = min(c3/(8 c2), C1 c_d / 2) / c_eps`` and
          ``p_max = C2`` (Sect. 3.4; the paper's ``p_max = C2'/c_eps``
          with ``C2' = C2 c_eps``).

        These values are astronomically conservative (that is the point of
        the exercise: they exist, they are constants, and they are
        enormous); they are exercised by unit tests but never used to
        drive a simulation.
        """
        alpha, beta = params.alpha, params.beta
        eps = params.eps
        if alpha <= gamma:
            raise ProtocolError(
                f"the model requires alpha > gamma, got alpha={alpha}, "
                f"gamma={gamma}"
            )
        z, a = 6.0, 2.0
        zeta = converging_zeta(alpha - gamma + 1)
        q = 1.0 / (z ** gamma * 2 ** (alpha + 4) * beta * zeta)
        c_prime_interference = (1.5 ** alpha) * beta * zeta
        big_c1 = params.alpha * params.noise / (6 * c_prime_interference)
        big_c1 = min(big_c1, 0.5)
        y = math.ceil(6.0) ** gamma
        density_ratio = big_c1 / (16.0 * y)          # c1 / c0
        playoff_ratio = (q / 16.0) * 0.25 ** (a ** gamma * z ** gamma * q)
        cd = 1.0 / (16.0 * y)
        ceps = 8.0 * math.log(4.0 / playoff_ratio) / (
            eps ** alpha * big_c1 * cd
        )
        big_c2 = min(playoff_ratio / 8.0, big_c1 * cd / 2.0) / ceps
        # c' = chi(1, 4/3)-cover constant * C1 * ceps / q (proof of Lemma 3)
        chi_43 = math.ceil(4.0 / 3.0) ** gamma
        repeats = max(1, math.ceil(chi_43 * big_c1 * ceps / q))
        return cls(
            start_scale=big_c1 / 2.0,
            pmax=min(big_c2, 0.5 / ceps),
            ceps=ceps,
            density_rounds=4.0,
            density_frac=density_ratio,
            playoff_rds=4.0,
            playoff_frac=playoff_ratio,
            repeats=repeats,
            dissemination=big_c2 / 4.0,
            part2_scale=4.0,
            playoff_counts_self=True,
        )

    # ------------------------------------------------------------------
    # derived schedule quantities
    # ------------------------------------------------------------------
    def pstart(self, n: int) -> float:
        """Initial probability ``p_start = start_scale / n``."""
        if n < 1:
            raise ProtocolError(f"network size must be >= 1, got {n}")
        return min(self.start_scale / n, self.pmax)

    def num_levels(self, n: int) -> int:
        """Number of doubling levels (``while p_v < p_max`` iterations)."""
        p0 = self.pstart(n)
        if p0 >= self.pmax:
            return 1
        return max(1, math.ceil(math.log2(self.pmax / p0)))

    def num_colors(self, n: int) -> int:
        """Distinct colors: one per level plus the survivor color."""
        return self.num_levels(n) + 1

    def color_of_level(self, level: int, n: int) -> float:
        """The color (probability) assigned when quitting at ``level``."""
        if level < 0:
            raise ProtocolError(f"level must be >= 0, got {level}")
        return min(self.pstart(n) * 2.0 ** level, self.pmax)

    @property
    def survivor_color(self) -> float:
        """Color of stations that never quit: ``2 p_max`` (Algorithm 1)."""
        return 2.0 * self.pmax

    def density_test_rounds(self, n: int) -> int:
        """DensityTest length ``c0 log n``."""
        return max(1, round(self.density_rounds * log2ceil(n)))

    def playoff_rounds(self, n: int) -> int:
        """Playoff length ``c2 log n``."""
        return max(1, round(self.playoff_rds * log2ceil(n)))

    def density_threshold(self, n: int) -> int:
        """Successes needed for DensityTest=True (``c1 log n``)."""
        return max(1, math.ceil(self.density_frac * self.density_test_rounds(n)))

    def playoff_threshold(self, n: int) -> int:
        """Successes needed for Playoff=True (``c3 log n``)."""
        return max(1, math.ceil(self.playoff_frac * self.playoff_rounds(n)))

    def coloring_total_rounds(self, n: int) -> int:
        """Total rounds of one ``StabilizeProbability`` execution.

        ``levels * repeats * (densitytest + playoff)`` — ``O(log^2 n)``
        (Fact 7), and *deterministic*, which is what keeps all stations in
        lockstep.
        """
        block = self.density_test_rounds(n) + self.playoff_rounds(n)
        return self.num_levels(n) * self.repeats * block

    def dissemination_prob(self, color, n: int):
        """Part-2 transmission probability ``min(1, p_v * c / log n)``.

        ``color`` is one station's color or an array of them (the fast
        kernels pass their ``(B, n)`` colors); the result has its shape.
        """
        if np.less(color, 0).any():
            raise ProtocolError(f"color must be >= 0, got {color}")
        return np.minimum(1.0, color * self.dissemination / log2ceil(n))

    def part2_rounds(self, n: int) -> int:
        """Length of a dissemination part: ``a log^2 n`` rounds."""
        return max(1, math.ceil(self.part2_scale * log2ceil(n) ** 2))

    def phase_rounds(self, n: int) -> int:
        """One NoSBroadcast phase: coloring + dissemination."""
        return self.coloring_total_rounds(n) + self.part2_rounds(n)

    def with_eps_prime(self) -> "ProtocolConstants":
        """Constants for the ``eps'' = eps/3`` variant used by SBroadcast.

        A smaller connectivity slack means Playoff must suppress longer
        links, which the paper achieves by enlarging ``c_eps``; the
        practical analogue bumps ``ceps`` while keeping ``pmax * ceps <= 1``.
        """
        new_ceps = min(self.ceps * 1.5, 1.0 / self.pmax)
        return replace(self, ceps=new_ceps)


@dataclass(frozen=True)
class ColoringSchedule:
    """Round arithmetic of one ``StabilizeProbability`` execution.

    Immutable and derived entirely from ``(constants, n)``; maps a round
    offset (rounds since the execution started) to its position in the
    level/repeat/test structure.  Both the per-node state machines and the
    vectorized fastsim use this class, so their phase boundaries cannot
    drift apart.  The six lengths are computed once per instance (the
    wake-up loops ask for a position every round).
    """

    constants: ProtocolConstants
    n: int

    @cached_property
    def density_len(self) -> int:
        """Rounds of one density test."""
        return self.constants.density_test_rounds(self.n)

    @cached_property
    def playoff_len(self) -> int:
        """Rounds of one playoff test."""
        return self.constants.playoff_rounds(self.n)

    @cached_property
    def block_len(self) -> int:
        """One DensityTest + Playoff block."""
        return self.density_len + self.playoff_len

    @cached_property
    def level_len(self) -> int:
        """Rounds spent at one probability level (``c'`` blocks)."""
        return self.constants.repeats * self.block_len

    @cached_property
    def levels(self) -> int:
        """Number of probability levels in the ladder."""
        return self.constants.num_levels(self.n)

    @cached_property
    def total_rounds(self) -> int:
        """Length of one full coloring execution in rounds."""
        return self.levels * self.level_len

    def position(self, offset: int) -> tuple[int, int, str, int]:
        """Decompose a round offset.

        :returns: ``(level, block_in_level, part, round_in_part)`` where
            ``part`` is ``"density"`` or ``"playoff"``.
        :raises ProtocolError: if ``offset`` is outside the execution.
        """
        if not 0 <= offset < self.total_rounds:
            raise ProtocolError(
                f"offset {offset} outside coloring execution of "
                f"{self.total_rounds} rounds"
            )
        level, rest = divmod(offset, self.level_len)
        block, in_block = divmod(rest, self.block_len)
        if in_block < self.density_len:
            return level, block, "density", in_block
        return level, block, "playoff", in_block - self.density_len

    def level_probability(self, level: int) -> float:
        """The shared ``p_v`` of all active stations at ``level``."""
        return self.constants.color_of_level(level, self.n)

    def test_probability(self, level: int, part: str) -> float:
        """Transmit probability of a station still in the ladder.

        ``p_v`` in a DensityTest round and ``min(1, p_v c_eps)`` in a
        Playoff round of ``level`` (``part`` as :meth:`position`
        reports it).
        """
        p_v = self.level_probability(level)
        if part == "density":
            return p_v
        return min(1.0, p_v * self.constants.ceps)

    def is_block_end(self, offset: int) -> bool:
        """Whether the round at ``offset`` closes a DensityTest+Playoff block."""
        return (offset + 1) % self.block_len == 0
