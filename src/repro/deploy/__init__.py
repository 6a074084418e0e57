"""Workload / topology generators.

Each generator returns a :class:`repro.network.Network` with a *connected*
communication graph (or raises
:class:`repro.errors.DisconnectedNetworkError`).  All randomness flows
through an explicit ``numpy.random.Generator`` so every experiment is
reproducible from its seed.

The families mirror the situations the paper discusses:

* uniform random deployments — the "average" case;
* grids and grid chains — controlled diameter sweeps at fixed density;
* chains with geometric gaps — the footnote-2 instance with exponentially
  large granularity ``Rs`` that separates this paper from Daum et al. [5];
* clusters — high local density, small diameter (stress for Lemma 1);
* in-ball perturbations — families of deployments sharing one communication
  graph but differing in geometry (the paper's headline claim E12);
* geometry-diverse families for E13 — 3D cubes, fractal cluster
  hierarchies with tunable growth dimension, and corridors that pair
  with obstacle channel models;
* mobility models for E15 — seeded per-round displacement strategies
  (Brownian drift, random waypoint, group drift) that turn any static
  family into a moving deployment (DESIGN.md §7).
"""

from repro.deploy.uniform import uniform_square, uniform_disk, uniform_cube
from repro.deploy.grid import grid, grid_chain, jittered_grid
from repro.deploy.fractal import fractal_clusters, fractal_dimension
from repro.deploy.corridor import corridor
from repro.deploy.line import (
    uniform_chain,
    geometric_chain,
    exponential_chain,
    clustered_chain,
)
from repro.deploy.cluster import cluster_network, dumbbell
from repro.deploy.mobility import (
    BrownianDrift,
    GroupDrift,
    MobilityModel,
    RandomWaypoint,
)
from repro.deploy.perturb import perturb_within_balls, same_graph_family

__all__ = [
    "uniform_square",
    "uniform_disk",
    "uniform_cube",
    "fractal_clusters",
    "fractal_dimension",
    "corridor",
    "grid",
    "grid_chain",
    "jittered_grid",
    "uniform_chain",
    "geometric_chain",
    "exponential_chain",
    "clustered_chain",
    "cluster_network",
    "dumbbell",
    "perturb_within_balls",
    "same_graph_family",
    "MobilityModel",
    "BrownianDrift",
    "RandomWaypoint",
    "GroupDrift",
]
