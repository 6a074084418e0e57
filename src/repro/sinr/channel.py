"""Pluggable channel models — the gain matrix as a strategy object.

The seed reproduction hard-wired one channel: uniform-power path loss,
``g[v, u] = P * d(v, u)^-alpha`` (:class:`UniformPower`).
That is the paper's Eq. (1) channel, but the geometry claims (E12, E08)
are only interesting if they survive channels that deviate from the
idealization — shadowing, breakpoint path loss, obstacles.  This module
makes the channel a pluggable component of :class:`~repro.network.network.Network`.

The contract (DESIGN.md §2.1):

* :meth:`ChannelModel.gain` maps ``(dist, coords, params)`` to the
  ``(n, n)`` received-power matrix: zero diagonal, strictly positive
  off-diagonal (obstacles *attenuate*, they never sever a link to exact
  zero), and symmetric whenever ``dist`` is — all channels here are
  link-reciprocal.
* **Determinism.**  Randomized models own their seed: construction takes
  ``seed=`` and :meth:`ChannelModel.gain` derives a fresh
  ``default_rng(seed)`` on every call, so one model instance always
  produces one matrix.  Networks cache gains lazily, and remote grid
  workers rebuild them from ``Network.descriptor()``; a channel whose
  output drifted between calls would silently break the contract that
  remote results equal local ones.
* **Identity.**  Channels are :class:`~repro.identity.Identified`
  values: ``identity()`` returns a tuple of primitives that, together
  with ``(dist, coords, params)``, uniquely determines the model's
  output, and ``repr``, equality and hashing derive from it.
  ``Network.fingerprint()`` hashes it, so two networks differing only
  in channel never share a gain structure in the grid layer or collide
  in the on-disk result cache (DESIGN.md §6.3).

The *communication graph* stays distance-based (``(1 - eps) r``): the
paper's claims are statements about that graph, and E13 asks precisely
whether they hold when reception no longer matches its idealization.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.errors import GeometryError, SimulationError
from repro.geometry.metric import MIN_DISTANCE
from repro.identity import Identified, checked_seed
from repro.sinr.params import SINRParameters


class ChannelModel(Identified):
    """Strategy mapping a deployment to its received-power matrix.

    :meth:`identity` must name everything that can change :meth:`gain`
    for fixed ``(dist, coords, params)`` — obstacle geometry included.
    """

    def gain(
        self,
        dist: np.ndarray,
        coords: np.ndarray,
        params: SINRParameters,
    ) -> np.ndarray:
        """The ``(n, n)`` gain matrix of the deployment under this channel.

        Radial models inherit this: :meth:`radial_gain` of every entry
        with the diagonal zeroed, so the dense matrix and the sparse
        backend's per-pair gains come from one expression.  Non-radial
        models override it.

        :param dist: ``(n, n)`` distance matrix.
        :param coords: ``(n, d)`` station coordinates (geometry-aware
            models — obstacles — need positions, not just distances).
        :param params: SINR parameters supplying ``power`` and ``alpha``.
        """
        gain = self.radial_gain(dist, params)
        np.fill_diagonal(gain, 0.0)
        return gain

    def radial_gain(
        self, dist: np.ndarray, params: SINRParameters
    ) -> Optional[np.ndarray]:
        """Per-distance gains for *radial* channels, else ``None``.

        The sparse backend (DESIGN.md §2.2) evaluates gains pair by pair
        instead of as a matrix, which is only sound when the gain is a
        function of distance alone.  Radial models override this to
        return the gain of each entry of a distance array, elementwise,
        and inherit :meth:`gain` from it: the sparse per-pair gains are
        then **bitwise identical** to the dense matrix entries, which
        the covered-cutoff regime's exact equality with the dense
        resolver needs.  Non-radial models (shadowing draws keyed to
        station indices, obstacle geometry) inherit this ``None``
        default, override :meth:`gain` and stay on the dense backend.
        """
        return None


class UniformPower(ChannelModel):
    """The seed channel: ``g = P * d^-alpha`` (paper Eq. (1)).

    The one copy of the power law (distances floored at
    ``MIN_DISTANCE``, zero diagonal): the default channel of every
    :class:`~repro.network.network.Network` and the base that
    :class:`LogNormalShadowing` scales.
    """

    def radial_gain(self, dist, params) -> np.ndarray:
        safe = np.maximum(dist, MIN_DISTANCE)
        return params.power * safe ** (-params.alpha)

    def identity(self) -> tuple:
        return ("uniform-power",)


class LogNormalShadowing(ChannelModel):
    """Uniform-power path loss times seeded log-normal link shadowing.

    The classical large-scale fading model (Dettmann et al., *Spatial
    networks with wireless applications*): each link's gain is multiplied
    by ``10^(X/10)`` with ``X ~ Normal(0, sigma_db)`` drawn once per link.
    Shadowing is link-reciprocal — one draw per unordered pair, mirrored —
    so the matrix stays symmetric.

    :param sigma_db: shadowing standard deviation in dB (0 recovers
        uniform power exactly, including the rng draw being skipped).
    :param seed: seed of the per-link draws; the same (seed, sigma_db,
        deployment) always yields the same matrix.
    """

    def __init__(self, sigma_db: float = 4.0, seed: int = 0):
        if sigma_db < 0:
            raise SimulationError(
                f"shadowing sigma_db must be >= 0, got {sigma_db}"
            )
        self.sigma_db = float(sigma_db)
        self.seed = checked_seed(seed, SimulationError)

    def gain(self, dist, coords, params) -> np.ndarray:
        base = UniformPower().gain(dist, coords, params)
        if self.sigma_db == 0.0:
            return base
        n = dist.shape[0]
        rng = np.random.default_rng(self.seed)
        draws = rng.normal(0.0, self.sigma_db, size=(n, n))
        upper = np.triu(draws, k=1)
        shadow_db = upper + upper.T
        base *= 10.0 ** (shadow_db / 10.0)
        np.fill_diagonal(base, 0.0)
        return base

    def identity(self) -> tuple:
        return ("log-normal-shadowing", self.sigma_db, self.seed)


class DualSlope(ChannelModel):
    """Breakpoint path loss: exponent ``alpha`` near, ``alpha_far`` beyond.

    Below the breakpoint distance the gain equals uniform power exactly;
    beyond it the loss exponent steepens, with the two branches glued
    continuously at the breakpoint
    (``g = P * bp^(alpha_far - alpha) * d^-alpha_far`` for ``d > bp``).
    With the paper's normalization (range 1) and the default breakpoint
    ``1.0``, every communication-graph link keeps its ideal gain and only
    *far interference* decays faster — isolating the claims' sensitivity
    to the interference tail.

    :param breakpoint: distance where the slope changes.
    :param alpha_far: far-field exponent; ``None`` means
        ``params.alpha + 1`` at gain time.
    """

    def __init__(
        self, breakpoint: float = 1.0, alpha_far: Optional[float] = None
    ):
        if breakpoint <= 0:
            raise SimulationError(
                f"breakpoint distance must be positive, got {breakpoint}"
            )
        if alpha_far is not None and alpha_far <= 0:
            raise SimulationError(
                f"alpha_far must be positive, got {alpha_far}"
            )
        self.breakpoint = float(breakpoint)
        self.alpha_far = None if alpha_far is None else float(alpha_far)

    def radial_gain(self, dist, params) -> np.ndarray:
        alpha_far = (
            params.alpha + 1.0 if self.alpha_far is None else self.alpha_far
        )
        safe = np.maximum(dist, MIN_DISTANCE)
        near = params.power * safe ** (-params.alpha)
        far = (
            params.power
            * self.breakpoint ** (alpha_far - params.alpha)
            * safe ** (-alpha_far)
        )
        return np.where(safe <= self.breakpoint, near, far)

    def identity(self) -> tuple:
        return ("dual-slope", self.breakpoint, self.alpha_far)


def rectangle(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    """Axis-aligned rectangular obstacle as a ``(4, 2)`` vertex array."""
    if x1 <= x0 or y1 <= y0:
        raise GeometryError(
            f"degenerate rectangle [{x0}, {x1}] x [{y0}, {y1}]"
        )
    return np.array(
        [[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float
    )


class ObstacleMask(ChannelModel):
    """Polygonal obstacles attenuating the links they block.

    A link is *blocked* when the open segment between its two stations
    properly crosses an edge of any obstacle polygon; blocked links keep
    a strictly positive gain, scaled down by ``attenuation_db`` (walls
    leak — severing links to exact zero would both violate the channel
    contract and make the SINR denominator structurally different).
    Obstacles live in the plane; deployments with more coordinates are
    tested on their first two axes (a wall extruded along the remaining
    dimensions).  Stations are assumed to sit outside the obstacles.

    :param obstacles: sequence of ``(k >= 3, 2)`` polygon vertex arrays.
    :param attenuation_db: per-blocked-link attenuation in dB.
    :param base: channel supplying unblocked gains (default
        :class:`UniformPower`).
    """

    def __init__(
        self,
        obstacles: Sequence[np.ndarray],
        attenuation_db: float = 20.0,
        base: Optional[ChannelModel] = None,
    ):
        if attenuation_db < 0:
            raise SimulationError(
                f"attenuation_db must be >= 0, got {attenuation_db}"
            )
        polygons = []
        for poly in obstacles:
            # Always copy: the vertex array gets frozen as part of the
            # model's identity, and freezing a caller-owned array would
            # make later edits to it raise far from the cause.
            poly = np.array(poly, dtype=float)
            if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
                raise GeometryError(
                    f"obstacle polygons must be (k >= 3, 2) vertex arrays, "
                    f"got shape {poly.shape}"
                )
            poly.setflags(write=False)
            polygons.append(poly)
        if not polygons:
            raise GeometryError("ObstacleMask needs at least one obstacle")
        self.obstacles = tuple(polygons)
        self.attenuation_db = float(attenuation_db)
        self.base = base if base is not None else UniformPower()

    def blocked_mask(self, coords: np.ndarray) -> np.ndarray:
        """Boolean ``(n, n)`` matrix of links crossing an obstacle edge."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] < 2:
            raise GeometryError(
                "ObstacleMask needs planar coordinates (>= 2 columns), "
                f"got shape {coords.shape}"
            )
        x, y = coords[:, 0], coords[:, 1]
        n = coords.shape[0]
        blocked = np.zeros((n, n), dtype=bool)
        for poly in self.obstacles:
            for (ax, ay), (bx, by) in zip(poly, np.roll(poly, -1, axis=0)):
                # Proper segment crossing via the four orientation signs:
                # d1/d2 are the stations' sides of the obstacle edge (one
                # vector of n signs, reused for both endpoints), d3/d4 the
                # edge endpoints' sides of each station pair's segment.
                side = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
                dx = x[None, :] - x[:, None]
                dy = y[None, :] - y[:, None]
                d3 = dx * (ay - y[:, None]) - dy * (ax - x[:, None])
                d4 = dx * (by - y[:, None]) - dy * (bx - x[:, None])
                blocked |= (side[:, None] * side[None, :] < 0) & (
                    d3 * d4 < 0
                )
        np.fill_diagonal(blocked, False)
        return blocked

    def gain(self, dist, coords, params) -> np.ndarray:
        gain = np.array(self.base.gain(dist, coords, params))
        factor = 10.0 ** (-self.attenuation_db / 10.0)
        gain[self.blocked_mask(coords)] *= factor
        np.fill_diagonal(gain, 0.0)
        return gain

    def identity(self) -> tuple:
        digest = hashlib.sha256()
        for poly in self.obstacles:
            digest.update(repr(poly.shape).encode())
            digest.update(poly.tobytes())
        return (
            "obstacle-mask",
            self.attenuation_db,
            len(self.obstacles),
            digest.hexdigest(),
            self.base.identity(),
        )


def default_channel() -> ChannelModel:
    """The channel of record — uniform power, the paper's Eq. (1)."""
    return UniformPower()
