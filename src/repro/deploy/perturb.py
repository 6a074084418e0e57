"""Perturbations that preserve the communication graph.

The paper's headline claim (Sect. 1.3) is that broadcast cost depends only
on the communication graph, not on where stations sit *inside* their
reachability balls.  To test this (experiment E12) we need families of
deployments with the *same* communication graph but different geometry:
:func:`perturb_within_balls` jitters stations one at a time, accepting a
station's move only if its incident communication edges are unchanged
(per-station rejection sampling — whole-deployment rejection would almost
never accept once ``n`` exceeds a few dozen, since some edge always sits
near the threshold).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeploymentError
from repro.geometry.metric import MIN_DISTANCE
from repro.network.network import Network


def _edge_set(net: Network) -> frozenset:
    return frozenset(frozenset(e) for e in net.graph.edges)


def _sample_in_ball(
    rng: np.random.Generator, dim: int, radius: float
) -> np.ndarray:
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    if norm == 0:
        return np.zeros(dim)
    r = radius * rng.uniform(0.0, 1.0) ** (1.0 / dim)
    return direction / norm * r


def perturb_within_balls(
    net: Network,
    scale: float,
    rng: np.random.Generator,
    *,
    attempts_per_station: int = 25,
) -> Network:
    """Jitter stations by up to ``scale`` without changing the graph.

    Visits stations in random order; each station proposes up to
    ``attempts_per_station`` offsets uniform in the radius-``scale`` ball
    and keeps the first one that (a) preserves every incident
    communication edge / non-edge against the *current* positions of the
    other stations and (b) keeps all pairwise distances above the
    co-location floor.  Stations with no acceptable move stay put, so the
    result always shares the original communication graph.
    """
    if scale < 0:
        raise DeploymentError(f"perturbation scale must be >= 0, got {scale}")
    coords = np.array(net.coords, dtype=float)
    n, dim = coords.shape
    comm_r = net.params.comm_radius
    original_adjacency = net.distances <= comm_r
    np.fill_diagonal(original_adjacency, False)

    moved = 0
    if scale > 0 and n > 1:
        order = rng.permutation(n)
        others_mask = ~np.eye(n, dtype=bool)
        for i in order:
            target_row = original_adjacency[i]
            for _attempt in range(attempts_per_station):
                candidate = coords[i] + _sample_in_ball(rng, dim, scale)
                delta = coords - candidate
                dist_row = np.sqrt(np.einsum("ij,ij->i", delta, delta))
                dist_row[i] = np.inf
                if dist_row.min() < 10 * MIN_DISTANCE:
                    continue
                new_row = dist_row <= comm_r
                if np.array_equal(new_row[others_mask[i]],
                                  target_row[others_mask[i]]):
                    coords[i] = candidate
                    moved += 1
                    break

    perturbed = Network(
        coords, params=net.params, metric=net.metric,
        name=f"{net.name}-perturbed", channel=net.channel,
    )
    if _edge_set(perturbed) != _edge_set(net):
        raise DeploymentError(
            "internal error: perturbation changed the communication graph"
        )
    return perturbed


def same_graph_family(
    net: Network,
    scales: list[float],
    rng: np.random.Generator,
) -> list[Network]:
    """A family of deployments sharing ``net``'s communication graph.

    One perturbed copy per entry of ``scales`` (plus the original first).
    Used by E12: broadcast cost measured across the family should agree
    within sampling noise if the paper's claim holds.
    """
    family = [net]
    for scale in scales:
        family.append(perturb_within_balls(net, scale, rng))
    return family


def jitter_within_slack(
    net: Network,
    scale: float,
    rng: np.random.Generator,
    *,
    safety: float = 0.49,
) -> Network:
    """Graph-preserving jitter that scales to 100k stations (E14).

    :func:`perturb_within_balls` is O(n^2) per deployment — it checks
    every proposal against a dense distance row.  This variant moves
    *all* stations in one vectorized pass and preserves the
    communication graph *provably* instead of by rejection: station
    ``i``'s jitter radius is capped at ``safety`` times its minimum
    incident slack — ``comm_radius - d`` over incident edges, ``d -
    comm_radius`` over near non-edges, and ``cutoff - comm_radius``
    against all farther pairs — so no pair's distance can cross the
    threshold (two endpoints each move less than half their shared
    slack).  Stations with a tight incident pair barely move, which is
    the same behaviour the per-station rejection sampler converges to.

    Needs coordinate geometry; slacks come from the cell-indexed near
    field (:class:`repro.sinr.sparse.SparseGainBackend`), so no dense
    matrix is ever built.  The resulting network inherits ``net``'s
    backend selection and is verified edge-for-edge against the
    original.
    """
    from repro.geometry.metric import EuclideanMetric
    from repro.sinr.sparse import SparseGainBackend

    if scale < 0:
        raise DeploymentError(f"perturbation scale must be >= 0, got {scale}")
    if not 0 < safety < 0.5:
        raise DeploymentError(f"safety must be in (0, 0.5), got {safety}")
    if not isinstance(net.metric, EuclideanMetric):
        # Slack caps and the edge-set verification are both Euclidean;
        # a matrix metric would pass the check yet change the graph.
        raise DeploymentError(
            "jitter_within_slack needs coordinate geometry "
            f"(EuclideanMetric); got {type(net.metric).__name__}"
        )
    from repro.sinr.channel import UniformPower

    coords = np.array(net.coords, dtype=float)
    n, dim = coords.shape
    comm_r = net.params.comm_radius
    if scale == 0 or n == 1:
        moved = coords
    else:
        # Only distances are consumed here, so the helper index is
        # built under UniformPower — this keeps the jitter usable with
        # non-radial channels (shadowing, obstacles) whose gains the
        # sparse backend cannot evaluate pairwise.
        backend = (
            net.sparse_backend
            if net.backend_kind == "sparse"
            else SparseGainBackend(coords, net.params, UniformPower())
        )
        rows = np.repeat(np.arange(n), np.diff(backend.indptr))
        pair_slack = np.abs(backend.dists - comm_r)
        slack = np.full(n, backend.cutoff - comm_r)
        np.minimum.at(slack, rows, pair_slack)
        radius = np.minimum(scale, safety * slack)
        # Uniform draw in the per-station ball: direction from an
        # isotropic normal, length r * U^(1/dim).
        direction = rng.normal(size=(n, dim))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        length = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / dim)
        moved = coords + direction / norms * length[:, None]

    jittered = Network(**{
        **net.descriptor(), "coords": moved, "name": f"{net.name}-jittered",
    })
    if n > 1 and scale > 0:
        check = (
            jittered.sparse_backend
            if jittered.backend_kind == "sparse"
            else SparseGainBackend(moved, net.params, UniformPower())
        )
        # Equal symmetric CSRs with sorted rows <=> equal edge sets.
        before = backend.adjacency_within(comm_r)
        after = check.adjacency_within(comm_r)
        if not (
            np.array_equal(before[0], after[0])
            and np.array_equal(before[1], after[1])
        ):
            raise DeploymentError(
                "internal error: slack-bounded jitter changed the "
                "communication graph"
            )
    return jittered


def same_graph_family_sparse(
    net: Network,
    scales: list[float],
    rng: np.random.Generator,
) -> list[Network]:
    """:func:`same_graph_family` built with the O(n) jitter (E14)."""
    family = [net]
    for scale in scales:
        family.append(jitter_within_slack(net, scale, rng))
    return family
