"""Line (chain) deployments, including the paper's hard instances.

Footnote 2 of the paper exhibits ``n`` stations on a line with
``dist(x_i, x_{i+1}) = 1/2^i`` — granularity ``Rs`` exponential in ``n``.
On such chains the Daum et al. [5] bound ``O(D log n log^{alpha+1} Rs)``
degrades badly while the paper's algorithms stay at
``O(D polylog n)``: these generators produce exactly that family, plus
tamer chains used for diameter sweeps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DeploymentError
from repro.geometry.metric import MIN_DISTANCE
from repro.network.network import Network
from repro.sinr.params import SINRParameters


def _chain_from_gaps(
    gaps: np.ndarray,
    params: Optional[SINRParameters],
    name: str,
) -> Network:
    if np.any(gaps <= 0):
        raise DeploymentError("all chain gaps must be positive")
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    coords = np.column_stack([positions, np.zeros_like(positions)])
    return Network(coords, params=params, name=name)


def uniform_chain(
    n: int,
    gap: float = 0.5,
    params: Optional[SINRParameters] = None,
) -> Network:
    """``n`` stations on a line with equal gaps — diameter ``~ n * gap``."""
    if n < 1:
        raise DeploymentError(f"need at least one station, got n={n}")
    if gap <= 0:
        raise DeploymentError(f"gap must be positive, got {gap}")
    gaps = np.full(n - 1, gap)
    return _chain_from_gaps(gaps, params, "uniform-chain")


def geometric_chain(
    n: int,
    ratio: float = 0.5,
    first_gap: float = 0.5,
    min_gap: float = 1e-9,
    params: Optional[SINRParameters] = None,
) -> Network:
    """Chain with geometrically shrinking gaps ``first_gap * ratio^i``.

    Gaps are floored at ``min_gap`` to stay within float64 resolution; the
    floor is what bounds the achievable granularity (``~ first_gap /
    min_gap``).  With ``ratio = 1/2`` and the default floor this reaches
    ``Rs ~ 5 * 10^8`` — deep inside the regime where the paper beats [5].
    """
    if n < 1:
        raise DeploymentError(f"need at least one station, got n={n}")
    if not 0 < ratio <= 1:
        raise DeploymentError(f"ratio must be in (0, 1], got {ratio}")
    if min_gap < MIN_DISTANCE * 10:
        raise DeploymentError(
            f"min_gap {min_gap} too small for float64 distance resolution"
        )
    gaps = first_gap * ratio ** np.arange(n - 1)
    gaps = np.maximum(gaps, min_gap)
    return _chain_from_gaps(gaps, params, "geometric-chain")


def exponential_chain(
    n: int,
    params: Optional[SINRParameters] = None,
    min_gap: float = 1e-9,
) -> Network:
    """The footnote-2 instance: ``dist(x_i, x_{i+1}) = 1/2^i``.

    Every consecutive pair is connected (all gaps ``<= 1/2 < (1-eps) r``),
    the diameter is moderate, but the granularity is ``2^(n-2)`` (up to the
    float64 floor) — the adversarial workload for granularity-dependent
    algorithms.
    """
    return geometric_chain(
        n, ratio=0.5, first_gap=0.5, min_gap=min_gap, params=params
    )


def clustered_chain(
    n_clusters: int,
    per_cluster: int,
    cluster_span: float,
    hop: float = 0.6,
    params: Optional[SINRParameters] = None,
    rng: Optional[np.random.Generator] = None,
) -> Network:
    """Chain of dense station clusters separated by single hops.

    Each cluster packs ``per_cluster`` stations into an interval of length
    ``cluster_span`` (uniformly at random), and consecutive clusters are
    ``hop`` apart.  This mixes the two densities the coloring must
    distinguish: huge mass inside ``B(v, eps/2)`` within clusters, tiny
    mass between them.
    """
    if n_clusters < 1 or per_cluster < 1:
        raise DeploymentError("need at least one cluster and one station")
    if cluster_span <= 0 or hop <= cluster_span:
        raise DeploymentError(
            "hop must exceed cluster_span so clusters stay separated"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    positions = []
    for k in range(n_clusters):
        start = k * hop
        offsets = np.sort(rng.uniform(0.0, cluster_span, size=per_cluster))
        # Enforce distinctness within the cluster.
        offsets += np.arange(per_cluster) * (10 * MIN_DISTANCE)
        positions.extend(start + offsets)
    coords = np.column_stack([positions, np.zeros(len(positions))])
    return Network(coords, params=params, name="clustered-chain")
