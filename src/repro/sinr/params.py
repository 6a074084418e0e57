"""SINR model parameters and their algebra.

The model (paper Sect. 1.1) has three physical parameters — path loss
``alpha``, threshold ``beta``, ambient noise ``N`` — plus the connectivity
parameter ``eps`` that defines the communication graph, and the uniform
transmission power ``P``.

The paper normalizes the communication range ``r = (P / (N beta))^(1/alpha)``
to 1, which pins ``P = N beta``; :meth:`SINRParameters.default` follows that
normalization.  Stations are only assumed to know *bounds* on the physical
parameters (``alpha_min/max`` etc.); :class:`ParameterBounds` captures those
and produces the conservative parameter choice the paper prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ProtocolError


@dataclass(frozen=True)
class SINRParameters:
    """Physical and connectivity parameters of the SINR model.

    :param alpha: path-loss exponent; must exceed the metric's growth
        dimension for interference sums to converge (``alpha > gamma``).
    :param beta: SINR reception threshold, ``beta >= 1`` in the paper.
    :param noise: ambient noise ``N > 0``.
    :param power: uniform transmission power ``P``.
    :param eps: connectivity-graph parameter ``eps in (0, 1)``; stations at
        distance ``<= (1 - eps) * r`` are communication-graph neighbours.
    """

    alpha: float = 3.0
    beta: float = 1.0
    noise: float = 1.0
    power: float = 3.0
    eps: float = 0.3

    def __post_init__(self) -> None:
        # Written so that NaN fails every comparison and is rejected.
        if not 0 < self.alpha < math.inf:
            raise ProtocolError(
                f"alpha must be finite and positive, got {self.alpha}"
            )
        if not 1 <= self.beta < math.inf:
            raise ProtocolError(
                f"beta must be finite and >= 1, got {self.beta}"
            )
        if not 0 < self.noise < math.inf:
            raise ProtocolError(
                f"noise must be finite and positive, got {self.noise}"
            )
        if not 0 < self.power < math.inf:
            raise ProtocolError(
                f"power must be finite and positive, got {self.power}"
            )
        if not 0 < self.eps < 1:
            raise ProtocolError(f"eps must be in (0, 1), got {self.eps}")

    @classmethod
    def default(
        cls, alpha: float = 3.0, beta: float = 1.0, noise: float = 1.0,
        eps: float = 0.3,
    ) -> "SINRParameters":
        """Parameters normalized so the communication range ``r`` is 1.

        The paper assumes ``r = 1`` without loss of generality, which fixes
        ``P = N * beta`` (Sect. 1.1, "Ranges and uniformity").
        """
        return cls(
            alpha=alpha, beta=beta, noise=noise, power=noise * beta, eps=eps
        )

    @property
    def broadcast_range(self) -> float:
        """Isolated-transmitter range ``r = (P / (N beta))^(1/alpha)``."""
        return (self.power / (self.noise * self.beta)) ** (1.0 / self.alpha)

    @property
    def comm_radius(self) -> float:
        """Communication-graph radius ``(1 - eps) * r``."""
        return (1.0 - self.eps) * self.broadcast_range

    @property
    def is_normalized(self) -> bool:
        """Whether the range normalization ``r = 1`` holds."""
        return math.isclose(self.broadcast_range, 1.0, rel_tol=1e-9)

    def with_eps(self, eps: float) -> "SINRParameters":
        """Copy with a different connectivity parameter.

        ``SBroadcast`` runs the coloring with ``eps'' = eps / 3``
        (Sect. 4.2); this helper produces the adjusted parameter set.
        """
        return replace(self, eps=eps)

    def min_gap_for_range(self, target_range: float) -> float:
        """Interference budget allowing reception at ``target_range``.

        Returns the maximum total interference ``I`` such that a single
        transmitter at distance ``target_range`` is still received:
        ``P / target_range^alpha >= beta (N + I)``.
        """
        if target_range <= 0:
            raise ProtocolError("target range must be positive")
        signal = self.power / target_range ** self.alpha
        return signal / self.beta - self.noise


@dataclass(frozen=True)
class ParameterBounds:
    """Interval knowledge of the physical parameters (paper Sect. 1.1).

    Stations know only ``[alpha_min, alpha_max]``, ``[beta_min, beta_max]``
    and ``[noise_min, noise_max]``.  The paper notes that it suffices to run
    the algorithms with the maximal/minimal values depending on whether an
    upper or a lower estimate is needed; :meth:`conservative` implements
    exactly that rule.
    """

    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float
    noise_min: float
    noise_max: float

    def __post_init__(self) -> None:
        pairs = (
            ("alpha", self.alpha_min, self.alpha_max),
            ("beta", self.beta_min, self.beta_max),
            ("noise", self.noise_min, self.noise_max),
        )
        for name, low, high in pairs:
            if not 0 < low < math.inf:
                raise ProtocolError(
                    f"{name}_min must be finite and positive, got {low}"
                )
            if not low <= high < math.inf:
                raise ProtocolError(
                    f"{name} bounds must be finite and ordered, got "
                    f"[{low}, {high}]"
                )
        if self.beta_min < 1:
            raise ProtocolError("beta_min must be >= 1")

    @classmethod
    def exact(cls, params: SINRParameters) -> "ParameterBounds":
        """Degenerate bounds for fully known parameters."""
        return cls(
            alpha_min=params.alpha, alpha_max=params.alpha,
            beta_min=params.beta, beta_max=params.beta,
            noise_min=params.noise, noise_max=params.noise,
        )

    def contains(self, params: SINRParameters) -> bool:
        """Whether a concrete parameter set lies within the bounds."""
        return (
            self.alpha_min <= params.alpha <= self.alpha_max
            and self.beta_min <= params.beta <= self.beta_max
            and self.noise_min <= params.noise <= self.noise_max
        )

    def conservative(self, eps: float = 0.3) -> SINRParameters:
        """The safe parameter choice under uncertainty.

        Interference estimates and reception thresholds must hold for the
        *worst* parameters in the interval: largest ``beta`` and ``noise``
        (hardest reception), smallest ``alpha`` (slowest signal decay, so
        interference sums are largest).  Power is set for range 1 under the
        worst case, so the true range is at least 1.
        """
        return SINRParameters(
            alpha=self.alpha_min,
            beta=self.beta_max,
            noise=self.noise_max,
            power=self.noise_max * self.beta_max,
            eps=eps,
        )
