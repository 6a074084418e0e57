"""The SINR physical channel (Eq. (1) of the paper).

This subpackage implements the Signal-to-Interference-and-Noise-Ratio
reception model with *uniform* transmission power: a station ``u`` receives
the message of a transmitter ``v`` in a round exactly when

    SINR(v, u, T) = P d(v,u)^-alpha / (N + sum_{w in T, w != v} P d(w,u)^-alpha) >= beta

where ``T`` is the set of stations transmitting in that round.  Everything
is vectorized over numpy arrays so a round costs ``O(|T| * n)`` flops.

The numerator/denominator gains come from a pluggable
:class:`~repro.sinr.channel.ChannelModel` (DESIGN.md §2.1); the default
:class:`~repro.sinr.channel.UniformPower` is the uniform-power
``P d^-alpha`` channel above, with shadowing, breakpoint-loss and
obstacle variants alongside it.
"""

from repro.sinr.params import SINRParameters, ParameterBounds
from repro.sinr.channel import (
    ChannelModel,
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    default_channel,
    rectangle,
)
from repro.sinr.reception import (
    NO_SENDER,
    resolve_at,
    resolve_reception,
    resolve_reception_many,
)
from repro.sinr.sparse import (
    SparseGainBackend,
    certified_cutoff,
    default_cutoff,
    far_field_tail_bound,
)

__all__ = [
    "SparseGainBackend",
    "certified_cutoff",
    "default_cutoff",
    "far_field_tail_bound",
    "SINRParameters",
    "ParameterBounds",
    "ChannelModel",
    "UniformPower",
    "LogNormalShadowing",
    "DualSlope",
    "ObstacleMask",
    "default_channel",
    "rectangle",
    "resolve_at",
    "resolve_reception",
    "resolve_reception_many",
    "NO_SENDER",
]
