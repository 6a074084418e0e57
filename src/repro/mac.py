"""Contention MAC models — per-slot transmit arbitration as a strategy family.

Every protocol in the repository is slotted-ALOHA-style: a station that
decides to transmit this round simply transmits, and the SINR resolver
arbitrates.  This module adds the missing medium-access layer
(DESIGN.md §11) as a seeded, hashable strategy family mirroring
:class:`~repro.sinr.channel.ChannelModel` /
:class:`~repro.deploy.mobility.MobilityModel`:

* :class:`SlottedAloha` — the regression anchor.  With the default
  ``p = 1.0`` it is the identity filter, so every kernel run under it is
  **bitwise identical** to a run with no MAC at all; ``p < 1`` is
  classic p-persistence.
* :class:`CSMA` — carrier-sense multiple access with seeded backoff
  arbitration.  The carrier-sense range is *derived from the gain
  operator* (the distance at which the channel's radial gain falls to
  the sense threshold), so hidden nodes emerge from geometry rather
  than from a tuned constant.
* :class:`TdmaFromColoring` — conflict-free slot schedules derived from
  the paper's backbone coloring: the ``StabilizeProbability`` colors
  order a greedy proper coloring of the *interference* graph, and each
  station transmits only in its own slot of the resulting frame.
* :class:`RateTable` — SINR-thresholded adaptive rates for the traffic
  engine (:mod:`repro.traffic`): the achieved SINR margin at the
  receiver selects how many queued packets a successful slot carries.

The run-time half is the :class:`MacSession` (per-run state built from
the network of a kernel run's first round); a
:class:`repro.fastsim.engine.Medium` holds one session per run and
applies it to every round's transmit intents, between the round's
mobility step and its reception resolution.  All per-round MAC
randomness is drawn from *round-keyed* generators (a pure function of
``(seed, round_no)``), never from a sequential stream, so a
replication's MAC decisions are independent of batch composition,
skipped schedule blocks and multi-stage kernel re-entry — which is
what keeps "batched == sequential" and ``jobs=N == jobs=1`` bitwise
under every MAC (DESIGN.md §11.2).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.errors import ProtocolError
from repro.network.network import Network
from repro.sinr.sparse import csr_row_positions, csr_upper_pairs


def round_rng(seed: int, round_no: int) -> np.random.Generator:
    """Deterministic generator keyed to ``(seed, round_no)``.

    MAC randomness must be a *pure function of the round number* — never
    a sequential stream — because kernels skip rounds a replication sits
    out (quit coloring blocks, silent consensus boxes) and multi-stage
    protocols restart local round counters.  A positional stream would
    desynchronize between a batched run and its sequential replay; a
    round-keyed draw cannot (DESIGN.md §11.2).
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(round_no),))
    )


def pairs_within(network: Network, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All station pairs ``i < j`` at distance ``<= radius``.

    Serves the MAC layer's geometry queries (carrier-sense adjacency,
    interference graphs) on either backend: sparse deployments answer
    from the cell-indexed near field when ``radius`` is inside the
    cutoff and fall back to a chunked brute-force pass over the
    coordinates beyond it (sparse mode guarantees Euclidean geometry);
    dense deployments read the distance matrix.
    """
    if radius < 0:
        raise ProtocolError(f"pair radius must be >= 0, got {radius}")
    if network.backend_kind == "sparse":
        if radius <= network.cutoff:
            return network.sparse_backend.pairs_within(radius)
        coords = network.coords
        n = network.size
        rows, cols = [], []
        chunk = max(1, (1 << 22) // max(n, 1))
        for start in range(0, n, chunk):
            block = coords[start:start + chunk]
            diff = block[:, None, :] - coords[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            ii, jj = np.nonzero(dist <= radius)
            keep = (ii + start) < jj
            rows.append(ii[keep] + start)
            cols.append(jj[keep])
        return (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
            np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
        )
    ii, jj = np.nonzero(np.triu(network.distances <= radius, k=1))
    return ii, jj


def adjacency_within(
    network: Network, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, indices)`` of :func:`pairs_within`.

    Row ``v`` lists every station within ``radius`` of ``v`` in
    ascending order, so a query touches only the rows it asks about.
    Sparse deployments with ``radius`` inside the cutoff return the
    backend's memoized adjacency
    (:meth:`~repro.sinr.sparse.SparseGainBackend.adjacency_within`);
    otherwise the pairs are folded into a fresh CSR.
    """
    if (
        network.backend_kind == "sparse"
        and 0 <= radius <= network.cutoff
    ):
        return network.sparse_backend.adjacency_within(radius)
    ii, jj = pairs_within(network, radius)
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(network.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=network.size), out=indptr[1:])
    return indptr, cols[order]


def derive_sense_range(
    network: Network, threshold: Optional[float] = None
) -> float:
    """Carrier-sense range from the gain operator (DESIGN.md §11.1).

    The distance at which the channel's radial gain falls to
    ``threshold`` (default: the ambient noise ``N`` — a transmission is
    sensable while it still stands out of the noise floor).  Under the
    paper's uniform-power channel this solves ``P d^-alpha = N``, i.e.
    ``d = broadcast_range * beta^(1/alpha)`` — strictly wider than the
    communication radius ``(1 - eps) r``, as physical carrier sensing
    is.  Non-radial channels (shadowing, obstacles) have no
    distance-only gain, so CSMA on them requires an explicit
    ``sense_range``.
    """
    params = network.params
    if threshold is None:
        threshold = params.noise
    if threshold <= 0:
        raise ProtocolError(
            f"sense threshold must be > 0, got {threshold}"
        )
    probe = network.channel.radial_gain(np.asarray([1.0]), params)
    if probe is None:
        raise ProtocolError(
            "carrier-sense range derivation needs a radial channel "
            f"({type(network.channel).__name__} draws non-radial "
            "structure); pass CSMA(sense_range=...) explicitly"
        )

    def gain_at(d: float) -> float:
        return float(
            network.channel.radial_gain(np.asarray([d]), params)[0]
        )

    lo, hi = 1e-9, max(params.comm_radius, 1e-6)
    for _ in range(64):
        if gain_at(hi) < threshold:
            break
        hi *= 2.0
    else:
        raise ProtocolError(
            "radial gain never falls below the sense threshold "
            f"{threshold}; the carrier-sense range is unbounded"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gain_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class MacSession(ABC):
    """Per-run arbitration state of one :class:`MacModel`.

    Created by :meth:`MacModel.session` from the network of a kernel
    run's first round; geometry-derived structure (sense adjacency, TDMA
    slot schedules) is computed here once and held static for the run —
    under mobility the MAC keeps the schedule of the deployment it was
    built on, which is exactly how provisioned real-world schedules
    behave (DESIGN.md §11.3).
    """

    def __init__(self, model: "MacModel", network: Network):
        self.model = model
        self.n = network.size

    @abstractmethod
    def transmit_mask(
        self, round_no: int, intents: np.ndarray, network: Network
    ) -> np.ndarray:
        """The subset of ``intents`` actually transmitting this slot.

        :param round_no: the kernel's global round number (the key of
            the session's per-round randomness).
        :param intents: ``(B, n)`` boolean mask of stations whose
            protocol wants to transmit.
        :param network: the round's network (informational — sessions
            derive their structure from the network they were built on).
        :returns: ``(B, n)`` boolean mask, elementwise ``<= intents``;
            a :class:`~repro.fastsim.engine.Medium` intersects the
            answer with ``intents`` whatever a session returns.
        """


class MacModel(ABC):
    """Seeded strategy deciding who may transmit in each slot.

    Mirrors :class:`~repro.sinr.channel.ChannelModel` and
    :class:`~repro.deploy.mobility.MobilityModel`: every knob —
    including the seed — is fixed at construction, :meth:`identity`
    pins the arbitration behaviour, and :meth:`fingerprint` digests it
    so grid cache keys cover the MAC (a ``mac=`` sweep can never replay
    a bare sweep's results, or another MAC's — DESIGN.md §11.4).

    :param seed: arbitration seed; part of :meth:`identity`.
    """

    def __init__(self, *, seed: int = 0):
        self.seed = int(seed)

    @abstractmethod
    def identity(self) -> tuple:
        """Hashable tuple of primitives pinning this MAC's arbitration.

        Everything that can change a session's transmit decisions for a
        fixed network and intent stream — model type, physical knobs,
        seed — must appear here; the grid result cache hashes it through
        :meth:`fingerprint`.
        """

    @abstractmethod
    def session(self, network: Network) -> MacSession:
        """Fresh per-run arbitration state over ``network``."""

    def fingerprint(self) -> str:
        """Content hash of :meth:`identity` (cache-key hook).

        :func:`repro.fastsim.cache.fingerprint_bytes` calls this, so a
        ``mac=`` kwarg contributes exactly the identity tuple to every
        grid point key.
        """
        return hashlib.sha256(repr(self.identity()).encode()).hexdigest()

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.identity()!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MacModel)
            and self.identity() == other.identity()
        )

    def __hash__(self) -> int:
        return hash(self.identity())


# ----------------------------------------------------------------------
# the model family
# ----------------------------------------------------------------------
class _AlohaSession(MacSession):
    """p-persistent thinning; the identity filter at ``p = 1``."""

    def transmit_mask(self, round_no, intents, network):
        model: SlottedAloha = self.model  # type: ignore[assignment]
        if model.p >= 1.0:
            return intents
        gate = round_rng(model.seed, round_no).random(self.n) < model.p
        return intents & gate[None, :]


class SlottedAloha(MacModel):
    """Slotted ALOHA — today's round semantics as an explicit MAC.

    With the default ``p = 1.0`` every intent transmits: the session is
    the identity filter, consumes no randomness, and every kernel run
    under it is bitwise identical to a bare run — the regression anchor
    of the MAC layer.  ``p < 1`` gates each station's intent by an
    independent seeded coin per slot (classic p-persistence), shared by
    all replications of a batch like the mobility trajectory is.

    :param p: per-slot persistence probability in ``(0, 1]``.
    """

    def __init__(self, p: float = 1.0, *, seed: int = 0):
        if not 0.0 < p <= 1.0:
            raise ProtocolError(f"persistence must be in (0, 1], got {p}")
        super().__init__(seed=seed)
        self.p = float(p)

    def identity(self) -> tuple:
        return ("slotted-aloha", self.p, self.seed)

    def session(self, network: Network) -> MacSession:
        return _AlohaSession(self, network)


class _CsmaSession(MacSession):
    """Backoff arbitration over the sense graph (DESIGN.md §11.1)."""

    def __init__(self, model: "CSMA", network: Network):
        super().__init__(model, network)
        self.sense_range = (
            model.sense_range
            if model.sense_range is not None
            else derive_sense_range(network, model.sense_threshold)
        )
        self.sense_indptr, self.sense_indices = adjacency_within(
            network, self.sense_range
        )

    @property
    def sense_i(self) -> np.ndarray:
        """First stations of the sensing pairs ``i < j`` (sorted)."""
        return csr_upper_pairs(self.sense_indptr, self.sense_indices)[0]

    @property
    def sense_j(self) -> np.ndarray:
        """Second stations of the sensing pairs, aligned with :attr:`sense_i`."""
        return csr_upper_pairs(self.sense_indptr, self.sense_indices)[1]

    def round_backoff(self, round_no: int) -> np.ndarray:
        """The slot's shared ``(n,)`` integer backoff draw in ``[0, cw)``.

        Stations pick a backoff sub-slot; within each carrier-sense
        neighbourhood the earliest sub-slot wins the medium and everyone
        who would start later hears the winner's carrier and defers.
        Exposed for the conformance suite, which checks the invariant
        "no transmitter has a transmitting sense-neighbour with a
        strictly smaller backoff" directly against this draw.
        """
        model: CSMA = self.model  # type: ignore[assignment]
        rng = round_rng(model.seed, round_no)
        if model.persist < 1.0:
            # The persistence gate consumes the stream first, in a
            # fixed order, so both draws are round-reproducible.
            self._gate = rng.random(self.n) < model.persist
        else:
            self._gate = None
        return rng.integers(0, model.cw, size=self.n)

    def transmit_mask(self, round_no, intents, network):
        backoff = self.round_backoff(round_no)
        if self._gate is not None:
            intents = intents & self._gate[None, :]
        out = np.zeros_like(intents)
        for b in range(intents.shape[0]):
            act = intents[b]
            contenders = np.flatnonzero(act)
            if contenders.size == 0:
                continue
            # Only the contenders' sense rows matter: a contender defers
            # iff an intending sense-neighbour grabbed a strictly
            # earlier sub-slot.  Equal draws start simultaneously —
            # neither sensed the other — which is the textbook residual
            # collision of CSMA.
            pos, lengths = csr_row_positions(self.sense_indptr, contenders)
            owner = np.repeat(np.arange(contenders.size), lengths)
            nbrs = self.sense_indices[pos]
            earlier = act[nbrs] & (backoff[nbrs] < backoff[contenders][owner])
            deferred = np.zeros(contenders.size, dtype=bool)
            deferred[owner[earlier]] = True
            out[b, contenders[~deferred]] = True
        return out


class CSMA(MacModel):
    """Carrier-sense multiple access with seeded backoff arbitration.

    Each slot, every persisting intender draws an integer backoff
    sub-slot in ``[0, cw)`` from the round-keyed seeded stream; a
    station transmits iff no station within its carrier-sense range
    drew a *strictly smaller* backoff — it would have heard that
    station's carrier start and deferred.  Equal draws start together
    and collide (the protocol's residual collision mode); stations
    outside each other's sense range never defer to one another, so
    **hidden nodes emerge from geometry**: two transmitters both in
    communication range of a receiver but out of sense range of each
    other collide freely at that receiver (E16 measures exactly this).

    The sense range defaults to :func:`derive_sense_range` — the
    distance where the channel's radial gain meets ``sense_threshold``
    (default: the noise floor) — so it moves with the gain operator,
    not with a tuned constant.  Non-radial channels require an explicit
    ``sense_range``.

    :param sense_range: carrier-sense distance; ``None`` derives it
        from the gain operator at session time.
    :param sense_threshold: gain level considered "busy" for the
        derivation (default: ambient noise).
    :param cw: contention-window size (backoff sub-slots per slot).
    :param persist: per-slot persistence probability applied to intents
        before arbitration (1.0 = always contend).
    """

    def __init__(
        self,
        sense_range: Optional[float] = None,
        *,
        sense_threshold: Optional[float] = None,
        cw: int = 8,
        persist: float = 1.0,
        seed: int = 0,
    ):
        if sense_range is not None and not sense_range > 0:
            raise ProtocolError(
                f"sense_range must be > 0, got {sense_range}"
            )
        if cw < 1:
            raise ProtocolError(f"contention window must be >= 1, got {cw}")
        if not 0.0 < persist <= 1.0:
            raise ProtocolError(
                f"persistence must be in (0, 1], got {persist}"
            )
        super().__init__(seed=seed)
        self.sense_range = (
            None if sense_range is None else float(sense_range)
        )
        self.sense_threshold = (
            None if sense_threshold is None else float(sense_threshold)
        )
        self.cw = int(cw)
        self.persist = float(persist)

    def identity(self) -> tuple:
        return (
            "csma", self.sense_range, self.sense_threshold, self.cw,
            self.persist, self.seed,
        )

    def session(self, network: Network) -> MacSession:
        return _CsmaSession(self, network)


class _TdmaSession(MacSession):
    """Static slot schedule from the paper's backbone coloring."""

    def __init__(self, model: "TdmaFromColoring", network: Network):
        super().__init__(model, network)
        from repro.core.constants import ProtocolConstants
        from repro.fastsim.coloring import fast_coloring

        backbone = fast_coloring(
            network,
            ProtocolConstants.practical(),
            np.random.default_rng(np.random.SeedSequence(model.seed)),
        )
        colors = np.where(np.isnan(backbone.colors), 0.0, backbone.colors)
        radius = model.interference_scale * network.params.comm_radius
        ii, jj = pairs_within(network, radius)
        adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in zip(ii.tolist(), jj.tolist()):
            adjacency[i].append(j)
            adjacency[j].append(i)
        # Backbone-informed greedy proper coloring of the interference
        # graph: stations with high p_v (sparse neighbourhoods, early
        # quitters of StabilizeProbability) claim early slots, so the
        # frame layout follows the paper's density estimate.
        order = sorted(range(self.n), key=lambda v: (-colors[v], v))
        slots = np.full(self.n, -1, dtype=np.int64)
        for v in order:
            taken = {int(slots[u]) for u in adjacency[v] if slots[u] >= 0}
            slot = 0
            while slot in taken:
                slot += 1
            slots[v] = slot
        self.backbone_colors = colors
        self.interference_pairs = (ii, jj)
        self.slots = slots
        self.frame = int(slots.max()) + 1 if self.n else 1

    def transmit_mask(self, round_no, intents, network):
        allowed = self.slots == (round_no % self.frame)
        return intents & allowed[None, :]


class TdmaFromColoring(MacModel):
    """TDMA slot schedules derived from the paper's backbone coloring.

    The session runs one seeded ``StabilizeProbability`` execution on
    the initial network (the paper's backbone coloring, Fact 7), then
    greedily proper-colors the **interference graph** — stations within
    ``interference_scale`` communication radii — visiting stations in
    descending backbone-color order.  The result is a slot schedule in
    which no two stations that can interfere at a common receiver share
    a slot; each station transmits only when ``round_no % frame`` hits
    its slot.  This is conflict-free by construction: hidden-node pairs
    are interference-graph neighbours even though they are invisible to
    each other's carrier sense, which is why TDMA eliminates the
    asymmetry CSMA suffers (E16).

    Note the interference graph, not the communication graph, is
    colored: a proper coloring of the communication graph would still
    let two mutually-out-of-range stations share a slot and collide at
    a receiver between them.

    :param interference_scale: interference radius in units of the
        communication radius (default 2 — a receiver adjacent to both
        endpoints separates them by at most ``2 (1-eps) r``).
    """

    def __init__(self, *, interference_scale: float = 2.0, seed: int = 0):
        if not interference_scale > 0:
            raise ProtocolError(
                "interference_scale must be > 0, got "
                f"{interference_scale}"
            )
        super().__init__(seed=seed)
        self.interference_scale = float(interference_scale)

    def identity(self) -> tuple:
        return ("tdma-coloring", self.interference_scale, self.seed)

    def session(self, network: Network) -> MacSession:
        return _TdmaSession(self, network)


# ----------------------------------------------------------------------
# adaptive rates
# ----------------------------------------------------------------------
class RateTable:
    """SINR-thresholded adaptive rates (DESIGN.md §11.5).

    Maps the achieved SINR at a receiver to a per-slot rate multiplier:
    the rate of the highest threshold the SINR clears (rate 1 below the
    first threshold — a reception that cleared ``beta`` always carries
    at least one packet).  The traffic engine
    (:func:`repro.traffic.engine.run_traffic`) lets a successful slot
    carry ``rate`` queued packets toward the same next hop, which is
    how SINR margin — i.e. geometry — becomes throughput.

    :param thresholds: ascending SINR thresholds.
    :param rates: positive per-slot packet budgets, one per threshold.
    """

    def __init__(
        self,
        thresholds: tuple = (2.0, 4.0, 8.0),
        rates: tuple = (2, 3, 4),
    ):
        thresholds = tuple(float(t) for t in thresholds)
        rates = tuple(int(r) for r in rates)
        if len(thresholds) != len(rates) or not thresholds:
            raise ProtocolError(
                "need one rate per threshold (and at least one), got "
                f"{len(thresholds)} thresholds / {len(rates)} rates"
            )
        if not np.all(np.isfinite(thresholds)):
            raise ProtocolError(
                f"thresholds must be finite, got {thresholds}"
            )
        if list(thresholds) != sorted(set(thresholds)):
            raise ProtocolError(
                f"thresholds must be strictly ascending, got {thresholds}"
            )
        if any(r < 1 for r in rates):
            raise ProtocolError(f"rates must be >= 1, got {rates}")
        self.thresholds = thresholds
        self.rates = rates

    def rate_for(self, sinr: float) -> int:
        """Per-slot packet budget for one achieved SINR value."""
        idx = int(
            np.searchsorted(self.thresholds, float(sinr), side="right")
        )
        return 1 if idx == 0 else self.rates[idx - 1]

    def identity(self) -> tuple:
        """Hashable tuple pinning the table (cache-key coverage)."""
        return ("rate-table", self.thresholds, self.rates)

    def fingerprint(self) -> str:
        """Content hash of :meth:`identity` (cache-key hook)."""
        return hashlib.sha256(repr(self.identity()).encode()).hexdigest()

    def __repr__(self) -> str:
        return f"RateTable{self.identity()!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RateTable)
            and self.identity() == other.identity()
        )

    def __hash__(self) -> int:
        return hash(self.identity())
