"""Metric-space substrate.

The paper deploys stations in a general metric space with the *bounded
growth* property of dimension ``gamma`` (Sect. 1.1).  This subpackage
provides the concrete metrics used by the simulator (Euclidean spaces of any
dimension and explicit distance matrices), together with the covering-number
machinery (``chi(a, b)``) that the paper's analysis relies on, and
estimators that verify the bounded-growth property of a point set.
Ball membership ``B(v, r)`` — the set Lemmas 1 and 2 sum masses over —
is a network question, answered by
:meth:`repro.network.network.Network.ball`.
"""

from repro.geometry.metric import (
    EuclideanMetric,
    MatrixMetric,
    Metric,
    pairwise_distances,
    validate_distance_matrix,
)
from repro.geometry.growth import (
    covering_number,
    greedy_cover,
    growth_dimension_estimate,
)

__all__ = [
    "Metric",
    "EuclideanMetric",
    "MatrixMetric",
    "pairwise_distances",
    "validate_distance_matrix",
    "covering_number",
    "greedy_cover",
    "growth_dimension_estimate",
]
