"""Mobility models — moving deployments as a seeded strategy family.

Every experiment through E14 probes *frozen* deployments, yet the
paper's claims are about geometry, and real ad hoc networks move.  This
module supplies the temporal axis (DESIGN.md §7): a
:class:`MobilityModel` is a seeded :class:`~repro.identity.Identified`
value describing how a deployment drifts — construction takes every
physical knob plus ``seed``, and its ``identity()`` tuple pins the
trajectory, so the grid result cache keys dynamic runs on it (static
and dynamic results can never collide, :mod:`repro.fastsim.cache`).

The run-time half is the :class:`MobilitySession`: per-run mutable state
(waypoints, group velocities, the step counter) created by
:meth:`MobilityModel.session` from the initial coordinates.  Sessions
emit per-round ``(n, d)`` displacement arrays; stations that do not move
this round get an exact ``0.0`` row, which is what
:meth:`repro.network.network.Network.advance` keys its incremental
sparse update on.

A :class:`repro.fastsim.engine.Medium` runs a model in the
:mod:`repro.fastsim` kernels — one trajectory per medium, advanced once
per communication round in execution order, shared by every
replication of a batched sweep (the *environment* moves; replications
differ only in protocol randomness).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional

import numpy as np

from repro.errors import DeploymentError
from repro.identity import Identified, checked_seed


def _resolve_box(
    box, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis ``(lo, hi)`` reflection bounds.

    ``box=None`` defaults to the initial bounding box of the deployment,
    so trajectories stay inside the region the stations started in (and
    the sparse backend's cell grid stays patchable, DESIGN.md §7).
    """
    if box is None:
        return coords.min(axis=0), coords.max(axis=0)
    lo, hi = box
    lo = np.broadcast_to(
        np.asarray(lo, dtype=float), coords.shape[1:]
    ).astype(float)
    hi = np.broadcast_to(
        np.asarray(hi, dtype=float), coords.shape[1:]
    ).astype(float)
    if not np.all(lo < hi):
        raise DeploymentError(
            f"mobility box must satisfy lo < hi per axis, got {lo}, {hi}"
        )
    return lo, hi


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; floats (NaN included) and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DeploymentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _box_identity(box) -> Optional[tuple]:
    """Hashable form of a box argument for :meth:`MobilityModel.identity`."""
    if box is None:
        return None
    lo, hi = box
    return (
        tuple(np.atleast_1d(np.asarray(lo, dtype=float)).tolist()),
        tuple(np.atleast_1d(np.asarray(hi, dtype=float)).tolist()),
    )


def _reflect(
    proposed: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Reflect positions into ``[lo, hi]`` (one bounce, then clip)."""
    out = np.where(proposed < lo, 2.0 * lo - proposed, proposed)
    out = np.where(out > hi, 2.0 * hi - out, out)
    return np.clip(out, lo, hi)


class MobilitySession:
    """Per-run mutable trajectory state of one :class:`MobilityModel`.

    Created by :meth:`MobilityModel.session`; deterministic given the
    model (which owns the seed) and the initial coordinates.  Subclasses
    implement :meth:`_raw` — the unbounded per-round step — and the base
    class reflects proposals into the session's box so deployments never
    drift apart.
    """

    def __init__(self, model: "MobilityModel", coords: np.ndarray):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise DeploymentError(
                f"mobility needs (n, d) coordinates, got {coords.shape}"
            )
        self.model = model
        self.n, self.dim = coords.shape
        self.rng = np.random.default_rng(
            np.random.SeedSequence(model.seed)
        )
        self.lo, self.hi = _resolve_box(model.box, coords)

    def _raw(self, coords: np.ndarray, round_no: int) -> np.ndarray:
        """Unbounded ``(n, d)`` step proposal (overridden per model)."""
        raise NotImplementedError

    def displacements(
        self, coords: np.ndarray, round_no: int
    ) -> np.ndarray:
        """The round's ``(n, d)`` displacement array.

        Proposals are reflected into the session box; stations whose raw
        step is zero come back with an exact ``0.0`` row (stations
        already inside the box are fixed points of the reflection), so
        :meth:`~repro.network.network.Network.advance` sees precisely
        the moved set.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.n, self.dim):
            raise DeploymentError(
                f"coordinates drifted shape: expected {(self.n, self.dim)},"
                f" got {coords.shape}"
            )
        raw = self._raw(coords, round_no)
        moved = np.any(raw != 0.0, axis=1)
        if not moved.any():
            return np.zeros_like(coords)
        proposed = coords + raw
        reflected = _reflect(proposed, self.lo, self.hi)
        disp = np.zeros_like(coords)
        disp[moved] = reflected[moved] - coords[moved]
        return disp


class MobilityModel(Identified):
    """Seeded strategy describing how a deployment moves per round.

    An :class:`~repro.identity.Identified` value: :meth:`identity`
    pins the displacement stream (box and seed included), so a dynamic
    sweep never replays a static one, or a different mobility's; one
    model instance always produces one trajectory (fresh
    :class:`MobilitySession` per run).

    :param seed: trajectory seed, a non-negative integer; part of
        :meth:`identity`.
    :param box: optional per-axis ``(lo, hi)`` reflection bounds;
        ``None`` (default) bounds trajectories to the deployment's
        initial bounding box.
    """

    def __init__(self, *, seed: int = 0, box=None):
        self.seed = checked_seed(seed, DeploymentError)
        self.box = box

    @abstractmethod
    def session(self, coords: np.ndarray) -> MobilitySession:
        """Fresh per-run trajectory state over the initial ``coords``."""


# ----------------------------------------------------------------------
# the model family
# ----------------------------------------------------------------------
class _BrownianSession(MobilitySession):
    """Gaussian steps; a seeded coin per station gates who moves."""

    def _raw(self, coords: np.ndarray, round_no: int) -> np.ndarray:
        model: BrownianDrift = self.model  # type: ignore[assignment]
        step = model.sigma * self.rng.standard_normal(coords.shape)
        if model.move_prob < 1.0:
            moving = self.rng.random(self.n) < model.move_prob
            step[~moving] = 0.0
        return step


class BrownianDrift(MobilityModel):
    """Independent Gaussian drift, optionally on a sparse subset.

    Every round, each station moves with probability ``move_prob`` by a
    ``sigma``-scaled isotropic Gaussian step (reflected into the box).
    ``move_prob`` well below one is the regime the incremental sparse
    update is built for — only the moved rows of the near field are
    re-computed (DESIGN.md §7).

    :param sigma: per-round step scale (units of the coordinate space;
        the comm radius is 1 - eps under default parameters).
    :param move_prob: per-station per-round probability of moving.
    """

    def __init__(
        self,
        sigma: float,
        *,
        move_prob: float = 1.0,
        seed: int = 0,
        box=None,
    ):
        if not 0 <= sigma < np.inf:
            raise DeploymentError(
                f"sigma must be finite and >= 0, got {sigma}"
            )
        if not 0.0 <= move_prob <= 1.0:
            raise DeploymentError(
                f"move_prob must be in [0, 1], got {move_prob}"
            )
        super().__init__(seed=seed, box=box)
        self.sigma = float(sigma)
        self.move_prob = float(move_prob)

    def identity(self) -> tuple:
        return (
            "brownian-drift", self.sigma, self.move_prob,
            _box_identity(self.box), self.seed,
        )

    def session(self, coords: np.ndarray) -> MobilitySession:
        return _BrownianSession(self, coords)


class _WaypointSession(MobilitySession):
    """Classic random-waypoint state: target, residual pause, speed."""

    def __init__(self, model: "RandomWaypoint", coords: np.ndarray):
        super().__init__(model, coords)
        self.targets = self.rng.uniform(
            self.lo, self.hi, size=(self.n, self.dim)
        )
        self.pause_left = np.zeros(self.n, dtype=np.int64)

    def _raw(self, coords: np.ndarray, round_no: int) -> np.ndarray:
        model: RandomWaypoint = self.model  # type: ignore[assignment]
        to_target = self.targets - coords
        dist = np.linalg.norm(to_target, axis=1)
        step = np.zeros_like(coords)
        paused = self.pause_left > 0
        self.pause_left[paused] -= 1
        arriving = ~paused & (dist <= model.speed)
        step[arriving] = to_target[arriving]
        walking = ~paused & ~arriving & (dist > 0)
        step[walking] = (
            to_target[walking] / dist[walking, None] * model.speed
        )
        if arriving.any():
            # Arrived stations pause, then head for a fresh waypoint.
            self.pause_left[arriving] = model.pause
            self.targets[arriving] = self.rng.uniform(
                self.lo, self.hi, size=(int(arriving.sum()), self.dim)
            )
        return step


class RandomWaypoint(MobilityModel):
    """Random-waypoint mobility: walk to a uniform target, pause, repeat.

    The canonical ad hoc mobility benchmark.  Every non-paused station
    moves every round, so :meth:`~repro.network.network.Network.advance`
    typically rebuilds rather than patches — pair it with a large
    ``pause`` (or use :class:`BrownianDrift` with a small ``move_prob``
    / :class:`GroupDrift`) when incremental updates matter.

    :param speed: distance covered per round.
    :param pause: rounds a station rests after reaching its waypoint.
    """

    def __init__(
        self,
        speed: float,
        *,
        pause: int = 0,
        seed: int = 0,
        box=None,
    ):
        if not 0 < speed < np.inf:
            raise DeploymentError(
                f"speed must be finite and > 0, got {speed}"
            )
        pause = _integer("pause", pause)
        if pause < 0:
            raise DeploymentError(f"pause must be >= 0, got {pause}")
        super().__init__(seed=seed, box=box)
        self.speed = float(speed)
        self.pause = pause

    def identity(self) -> tuple:
        return (
            "random-waypoint", self.speed, self.pause,
            _box_identity(self.box), self.seed,
        )

    def session(self, coords: np.ndarray) -> MobilitySession:
        return _WaypointSession(self, coords)


class _GroupSession(MobilitySession):
    """Round-robin group steps under shared, periodically redrawn drifts."""

    def __init__(self, model: "GroupDrift", coords: np.ndarray):
        super().__init__(model, coords)
        self.labels = self.rng.integers(0, model.n_groups, size=self.n)
        self.velocities = model.sigma * self.rng.standard_normal(
            (model.n_groups, self.dim)
        )
        self.step_count = 0

    def _raw(self, coords: np.ndarray, round_no: int) -> np.ndarray:
        model: GroupDrift = self.model  # type: ignore[assignment]
        if self.step_count and self.step_count % model.redraw_every == 0:
            self.velocities = model.sigma * self.rng.standard_normal(
                (model.n_groups, self.dim)
            )
        group = self.step_count % model.n_groups
        self.step_count += 1
        step = np.zeros_like(coords)
        members = self.labels == group
        step[members] = self.velocities[group]
        return step


class GroupDrift(MobilityModel):
    """Cohesive group mobility over any static deployment family.

    Stations are partitioned into ``n_groups`` (seeded uniform labels);
    each round exactly one group — round-robin — takes its group's
    shared drift step, and group velocities are redrawn every
    ``redraw_every`` steps.  A round moves ``~ n / n_groups`` stations,
    so the per-round moved fraction is ``1 / n_groups`` — the sparse
    incremental regime by construction.

    :param sigma: scale of the shared group velocities.
    :param n_groups: number of groups (also the move-fraction inverse).
    :param redraw_every: steps between velocity redraws.
    """

    def __init__(
        self,
        sigma: float,
        *,
        n_groups: int = 8,
        redraw_every: int = 32,
        seed: int = 0,
        box=None,
    ):
        if not 0 <= sigma < np.inf:
            raise DeploymentError(
                f"sigma must be finite and >= 0, got {sigma}"
            )
        n_groups = _integer("n_groups", n_groups)
        if n_groups < 1:
            raise DeploymentError(
                f"need at least one group, got {n_groups}"
            )
        redraw_every = _integer("redraw_every", redraw_every)
        if redraw_every < 1:
            raise DeploymentError(
                f"redraw_every must be >= 1, got {redraw_every}"
            )
        super().__init__(seed=seed, box=box)
        self.sigma = float(sigma)
        self.n_groups = n_groups
        self.redraw_every = redraw_every

    def identity(self) -> tuple:
        return (
            "group-drift", self.sigma, self.n_groups, self.redraw_every,
            _box_identity(self.box), self.seed,
        )

    def session(self, coords: np.ndarray) -> MobilitySession:
        return _GroupSession(self, coords)
