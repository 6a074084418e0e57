"""The uniform-power gain matrix.

Under uniform power the received power of transmitter ``v`` at listener
``u`` is ``g[v, u] = P * dist(v, u)^-alpha``.  The gain matrix is computed
once per network and reused by every round of every protocol, which is what
makes the round loop cheap: interference at every station from a
transmitter set ``T`` is a fold over the rows ``gain[T]``.  That fold —
signal, interference and SINR alike — lives in one place, the batched
resolver of :mod:`repro.sinr.reception`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.geometry.metric import MIN_DISTANCE


def gain_matrix(dist: np.ndarray, power: float, alpha: float) -> np.ndarray:
    """Received-power matrix ``g[v, u] = P * dist(v, u)^-alpha``.

    The diagonal is set to zero: a station never contributes interference
    to itself (it is either the sender or absent from ``T`` at its own
    location).  Distances are floored at ``MIN_DISTANCE`` defensively;
    deployments reject genuinely co-located stations.

    :param dist: ``(n, n)`` distance matrix.
    :param power: uniform transmission power ``P``.
    :param alpha: path-loss exponent.
    :returns: ``(n, n)`` float array.
    """
    if power <= 0 or alpha <= 0:
        raise SimulationError("power and alpha must be positive")
    safe = np.maximum(dist, MIN_DISTANCE)
    gain = power * safe ** (-alpha)
    np.fill_diagonal(gain, 0.0)
    return gain
