"""Verifiers for the coloring properties (Lemma 1 and Lemma 2).

Lemma 1 (upper density): after ``StabilizeProbability``, for every color
``p`` and every unit ball ``B``, the mass ``sum_{w in B, p_w = p} p_w`` is
below a constant ``C1``.

Lemma 2 (lower density): for every participant ``v`` there is a color
whose mass inside ``B(v, eps/2)`` is at least a constant ``C2``.

Over a finite station set we evaluate station-centered balls
(:meth:`~repro.network.network.Network.ball`): the extremal mass of
radius-``r`` station-centered balls lower-bounds the lemmas' maximum over
all unit balls, and radius ``2r`` upper-bounds it (any ball containing a
station lies inside a station-centered double ball).  The experiments
report the resulting extremal masses so the "constant, independent of n"
claims become measurable numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coloring import ColoringResult
from repro.errors import AnalysisError
from repro.network.network import Network


def _check(network: Network, result: ColoringResult) -> None:
    if len(result.colors) != network.size:
        raise AnalysisError(
            f"coloring covers {len(result.colors)} stations, network has "
            f"{network.size}"
        )
    if not result.participants.any():
        raise AnalysisError("coloring has no participants")


def lemma1_max_color_mass(
    network: Network,
    result: ColoringResult,
    radius: float = 1.0,
) -> float:
    """Extremal per-color ball mass (Lemma 1's bounded quantity).

    :returns: ``max_{color p} max_{station v} sum_{w in B(v, radius),
        p_w = p} p_w`` — Lemma 1 asserts this stays below a constant
        independent of ``n`` and of the geometry.
    """
    _check(network, result)
    # Centering at every station covers all extremal station-centered
    # balls.
    balls = [network.ball(v, radius) for v in range(network.size)]
    worst = 0.0
    for color in result.distinct_colors():
        mask = result.color_mask(color)
        for ball in balls:
            mass = float(np.sum(result.colors[ball[mask[ball]]]))
            worst = max(worst, mass)
    return worst


def lemma2_best_masses(
    network: Network,
    result: ColoringResult,
    radius: float | None = None,
) -> np.ndarray:
    """Per-participant best-color local mass (Lemma 2's quantity).

    :param radius: proximity radius; default ``eps/2`` as in the lemma.
    :returns: for each participant ``v`` (in index order),
        ``max_{color p} sum_{w in B(v, radius), p_w = p} p_w``.
    """
    _check(network, result)
    if radius is None:
        radius = network.params.eps / 2.0
    masks = [result.color_mask(color) for color in result.distinct_colors()]
    best_masses = []
    for v in np.flatnonzero(result.participants):
        ball = network.ball(v, radius)
        best = 0.0
        for mask in masks:
            best = max(best, float(np.sum(result.colors[ball[mask[ball]]])))
        best_masses.append(best)
    return np.asarray(best_masses)


def lemma2_min_best_mass(
    network: Network,
    result: ColoringResult,
    radius: float | None = None,
) -> float:
    """Extremal best-color local mass (Lemma 2's bounded quantity).

    :returns: ``min_{participant v} max_{color p} sum_{w in B(v, radius),
        p_w = p} p_w`` — Lemma 2 asserts this stays above a constant.
    """
    return float(lemma2_best_masses(network, result, radius).min())


@dataclass(frozen=True)
class ColoringReport:
    """Aggregate quality metrics of a coloring (used by E2/E3)."""

    n: int
    num_participants: int
    num_colors_used: int
    num_colors_available: int
    rounds: int
    lemma1_mass: float
    lemma2_mass: float
    all_colors_mass: float


def coloring_report(
    network: Network, result: ColoringResult
) -> ColoringReport:
    """Compute the full property report for one coloring."""
    _check(network, result)
    participants = result.participants
    all_mass = 0.0
    for v in range(network.size):
        ball = network.ball(v, 1.0)
        mass = float(np.sum(result.colors[ball[participants[ball]]]))
        all_mass = max(all_mass, mass)
    return ColoringReport(
        n=network.size,
        num_participants=int(participants.sum()),
        num_colors_used=len(result.distinct_colors()),
        num_colors_available=result.schedule.constants.num_colors(network.size),
        rounds=result.rounds,
        lemma1_mass=lemma1_max_color_mass(network, result),
        lemma2_mass=lemma2_min_best_mass(network, result),
        all_colors_mass=all_mass,
    )
