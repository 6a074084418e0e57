"""The :class:`Network` aggregate: stations + metric + SINR parameters.

A ``Network`` owns everything static about a deployment — coordinates, the
distance matrix, the path-gain matrix, and the communication graph — and
computes each lazily exactly once.  All simulators (reference and
vectorized) and all analysis code consume networks through this class.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import networkx as nx
import numpy as np

from repro import kernels as _kernels
from repro.errors import (
    DeploymentError,
    DisconnectedNetworkError,
    GeometryError,
    ProtocolError,
)
from repro.geometry.metric import (
    EuclideanMetric,
    Metric,
    MIN_DISTANCE,
)
from repro.sinr.channel import ChannelModel, default_channel
from repro.sinr.params import SINRParameters
from repro.sinr.sparse import (
    SPARSE_AUTO_MIN,
    SparseGainBackend,
    csr_index_dtype,
    csr_row_positions,
    csr_upper_pairs,
    default_cutoff,
    pair_distances,
    sparse_supported,
)

#: Recognized SINR backend selectors (DESIGN.md §2.2).
BACKENDS = ("auto", "dense", "sparse")

#: Moved-station fraction, per backend kind, above which
#: :meth:`Network.advance` drops the incremental patch and lets the
#: successor rebuild lazily from scratch — splicing cost reaches
#: full-build cost well before every row is touched (DESIGN.md §7.1).
#: Measured on 2 cores with the numpy kernels: a sparse advance costs
#: 0.92x a rebuild at 1/8 movers and 1.06x at 15% (n=20k); a dense
#: patch stays ahead of a rebuild to ~90% movers at n=96, ~50% at
#: n=1024 and ~28% at n=3000.
MOBILITY_REBUILD_FRACTION = {"sparse": 1 / 8, "dense": 1 / 3}


class Network:
    """An immutable deployed wireless network.

    :param coords: ``(n, d)`` station coordinates (or ``(n,)`` for a line).
    :param params: SINR model parameters; defaults to the paper's
        normalization (range 1, ``P = N beta``).
    :param metric: metric used for distances; defaults to the Euclidean
        metric of the coordinate dimension.
    :param name: optional human-readable label used in reports.
    :param channel: channel model producing the gain matrix; defaults to
        the paper's uniform-power ``P d^-alpha`` channel (DESIGN.md §2.1).
        The communication graph stays distance-based regardless of the
        channel — E13 measures exactly that mismatch.
    :param backend: SINR backend selector (DESIGN.md §2.2): ``"dense"``
        materializes the ``(n, n)`` matrices, ``"sparse"`` serves
        reception from a cell-indexed CSR near field with a certified
        far-field bound, ``"auto"`` (default) picks sparse for large
        Euclidean deployments under radial channels and dense otherwise.
    :param cutoff: near-field cutoff radius of the sparse backend
        (default ``2 r``); ignored in dense mode.

    Which implementation of the hot loops runs is the platform's
    choice, not the caller's (DESIGN.md §2.3): :attr:`kernel_kind`
    reports it.
    """

    def __init__(
        self,
        coords: np.ndarray,
        params: Optional[SINRParameters] = None,
        metric: Optional[Metric] = None,
        name: str = "network",
        channel: Optional[ChannelModel] = None,
        backend: str = "auto",
        cutoff: Optional[float] = None,
    ):
        if backend not in BACKENDS:
            raise ProtocolError(
                f"unknown SINR backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise DeploymentError(
                f"coordinates must be a non-empty (n, d) array, "
                f"got shape {coords.shape}"
            )
        if not np.isfinite(coords).all():
            raise DeploymentError("coordinates must be finite numbers")
        self._coords = coords
        self._coords.setflags(write=False)
        self.params = params if params is not None else SINRParameters.default()
        self.metric = metric if metric is not None else EuclideanMetric(
            coords.shape[1]
        )
        self.name = name
        self.channel = channel if channel is not None else default_channel()
        self._backend_request = backend
        self._cutoff = cutoff
        self._backend_kind: Optional[str] = None
        self._backend_obj: Optional[SparseGainBackend] = None
        self._dist: Optional[np.ndarray] = None
        self._gain: Optional[np.ndarray] = None
        self._csr: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._graph: Optional[nx.Graph] = None
        self._diameter: Optional[int] = None
        self._max_degree: Optional[int] = None
        self._fingerprint: Optional[str] = None
        #: How this network came to be when produced by :meth:`advance`
        #: (``"patched-sparse"`` / ``"patched-dense"`` / ``"rebuild"``);
        #: ``None`` for directly constructed networks.
        self.advance_mode: Optional[str] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of stations ``n``."""
        return self._coords.shape[0]

    def __len__(self) -> int:
        return self.size

    @property
    def coords(self) -> np.ndarray:
        """Read-only ``(n, d)`` coordinate array."""
        return self._coords

    @property
    def distances(self) -> np.ndarray:
        """Lazily computed ``(n, n)`` distance matrix."""
        if self._dist is None:
            dist = self.metric.distance_matrix(self._coords)
            n = self.size
            if n > 1:
                off = dist[~np.eye(n, dtype=bool)]
                if np.any(off < MIN_DISTANCE):
                    raise DeploymentError(
                        "deployment contains co-located stations; the SINR "
                        "model requires distinct positions"
                    )
            dist.setflags(write=False)
            self._dist = dist
        return self._dist

    @property
    def gains(self) -> np.ndarray:
        """Lazily computed gain matrix, routed through the channel model
        (``P * d^-alpha`` under the default :class:`UniformPower`).

        Always the *dense* matrix — sparse-mode code paths go through
        :attr:`gain_operator` instead and never materialize it; calling
        this on a 100k-station network allocates ``n^2`` floats.
        """
        if self._gain is None:
            gain = self.channel.gain(
                self.distances, self._coords, self.params
            )
            gain.setflags(write=False)
            self._gain = gain
        return self._gain

    # ------------------------------------------------------------------
    # SINR backend (DESIGN.md §2.2)
    # ------------------------------------------------------------------
    @property
    def backend_kind(self) -> str:
        """Resolved backend: ``"dense"`` or ``"sparse"``.

        ``"auto"`` resolves to sparse for deployments of at least
        :data:`~repro.sinr.sparse.SPARSE_AUTO_MIN` stations on a
        Euclidean metric under a radial channel (and a sane cell
        budget); an *explicit* ``"sparse"`` request on an unsupported
        deployment raises when the backend is first touched.
        """
        if self._backend_kind is None:
            if self._backend_request == "auto":
                self._backend_kind = (
                    "sparse"
                    if self.size >= SPARSE_AUTO_MIN and sparse_supported(
                        self._coords, self.params, self.metric,
                        self.channel, cutoff=self._cutoff,
                    )
                    else "dense"
                )
            else:
                self._backend_kind = self._backend_request
        return self._backend_kind

    @property
    def kernel_kind(self) -> str:
        """The loop implementation in effect: ``"compiled"`` or ``"numpy"``.

        A report of :data:`repro.kernels.COMPILED` — ``"compiled"``
        exactly when numba is installed — for benches and experiment
        reports; nothing reads it to choose a path.
        """
        return "compiled" if _kernels.COMPILED else "numpy"

    @property
    def sparse_backend(self) -> SparseGainBackend:
        """The lazily built sparse backend (sparse mode only)."""
        if self.backend_kind != "sparse":
            raise ProtocolError(
                f"network {self.name!r} runs the dense backend"
            )
        if self._backend_obj is None:
            if not isinstance(self.metric, EuclideanMetric):
                raise ProtocolError(
                    "the sparse backend needs coordinate geometry "
                    "(EuclideanMetric); this network's metric is "
                    f"{type(self.metric).__name__}"
                )
            self._backend_obj = SparseGainBackend(
                self._coords, self.params, self.channel, self._cutoff
            )
        return self._backend_obj

    @property
    def gain_operator(self):
        """What the resolvers consume: dense gains or the sparse backend.

        Every :mod:`repro.fastsim` kernel passes this to
        :func:`repro.sinr.reception.resolve_reception_batch`, which
        dispatches on the type (DESIGN.md §2.2).
        """
        if self.backend_kind == "sparse":
            return self.sparse_backend
        return self.gains

    @property
    def cutoff(self) -> float:
        """The sparse near-field cutoff radius in effect."""
        return float(
            self._cutoff if self._cutoff is not None
            else default_cutoff(self.params)
        )

    # ------------------------------------------------------------------
    # radius queries and the communication graph
    # ------------------------------------------------------------------
    def adjacency_within(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, indices)`` of the pairs within ``radius``.

        Row ``v`` lists every other station at distance ``<= radius``
        from ``v`` in ascending order.  Every "who is within ``r``"
        question reads this one answer: :meth:`pairs_within`,
        :attr:`graph`, :meth:`neighbors`, the one BFS behind
        :attr:`is_connected`, :attr:`diameter`, :meth:`eccentricity` and
        :meth:`bfs_layers`, CSMA's sense adjacency, TDMA's interference
        graph (:meth:`ball`, one station's question, filters one row
        instead).  A sparse network with
        ``radius`` up to the cutoff returns its backend's memoized
        near-field CSR
        (:meth:`~repro.sinr.sparse.SparseGainBackend.adjacency_within`);
        every other case builds the CSR afresh from blocks of distance
        rows (the dense matrix, or rows computed from the coordinates on
        a sparse network, which never builds the ``(n, n)`` matrix).
        Both give the same bytes.

        :raises GeometryError: for a radius that is not ``>= 0``
            (negative or NaN).
        """
        if not radius >= 0:
            raise GeometryError(f"radius must be >= 0, got {radius!r}")
        sparse = self.backend_kind == "sparse"
        if sparse and radius <= self.cutoff:
            return self.sparse_backend.adjacency_within(radius)
        n = self.size
        step = max(1, (1 << 22) // n)
        counts, cols = [], []
        for start in range(0, n, step):
            stop = min(n, start + step)
            within = (
                distance_rows(self._coords, np.arange(start, stop))
                if sparse else self.distances[start:stop]
            ) <= radius
            # Distance 0 puts every station within any radius of itself;
            # it is not its own neighbour.
            np.fill_diagonal(within[:, start:], False)
            counts.append(np.count_nonzero(within, axis=1))
            cols.append(np.flatnonzero(within) % n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        return indptr, np.concatenate(cols).astype(csr_index_dtype(n))

    def pairs_within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All station pairs ``i < j`` within ``radius``, sorted by ``(i, j)``.

        The upper triangle of :meth:`adjacency_within`.
        """
        return csr_upper_pairs(*self.adjacency_within(radius))

    def _graph_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The communication graph ``G``: :meth:`adjacency_within` at the
        communication radius, computed once per network.

        Every communication-graph question reads this CSR; on a sparse
        network it is the backend's own memo.
        """
        if self._csr is None:
            self._csr = self.adjacency_within(self.params.comm_radius)
        return self._csr

    @property
    def graph(self) -> nx.Graph:
        """A networkx view of the communication graph (cached).

        Edges at distance ``<= (1-eps) r``, the upper triangle of the
        radius query's CSR on either backend, inserted in sorted
        ``(i, j)`` order.  It is there for routing (:mod:`repro.traffic`)
        and for users; no ``Network`` question reads it — they all walk
        the CSR.
        """
        if self._graph is None:
            ii, jj = csr_upper_pairs(*self._graph_csr())
            graph = nx.Graph()
            graph.add_nodes_from(range(self.size))
            graph.add_edges_from(zip(ii.tolist(), jj.tolist()))
            self._graph = graph
        return self._graph

    def _hops(self, sources) -> np.ndarray:
        """Hop counts ``(len(sources), n)`` from each source, ``-1`` if none.

        The one BFS behind every communication-graph question: a level
        at a time over :meth:`_graph_csr`, all of one pass's sources
        together, each ``(source, station)`` pair a flat index into the
        result.  A pass takes as many sources as keep its expansion
        (sources times CSR entries) within ``2**20`` pairs, so the result
        is the only ``(n, n)``-sized array an all-sources call holds.
        """
        indptr, indices = self._graph_csr()
        n = self.size
        sources = np.asarray(sources, dtype=np.int64)
        hops = np.full((sources.size, n), -1, dtype=np.int32)
        per_pass = max(1, (1 << 20) // max(1, indices.size))
        for lo in range(0, sources.size, per_pass):
            flat = hops[lo:lo + per_pass].reshape(-1)
            rows = np.arange(flat.size // n)
            frontier = rows * n + sources[lo:lo + per_pass]
            flat[frontier] = 0
            level = 0
            while frontier.size:
                level += 1
                stations = frontier % n
                pos, lengths = csr_row_positions(indptr, stations)
                keys = np.repeat(frontier - stations, lengths) + indices[pos]
                frontier = np.unique(keys[flat[keys] < 0])
                flat[frontier] = level
        return hops

    def _station(self, v, role: str) -> int:
        """``v`` as a station index; :class:`GeometryError` unless one.

        A bool, a non-integer or an index outside ``[0, n)`` names no
        station (``-1`` would silently mean station ``n - 1``).
        """
        if (
            isinstance(v, (bool, np.bool_))
            or not isinstance(v, (int, np.integer))
            or not 0 <= v < self.size
        ):
            raise GeometryError(
                f"{role} must be a station index in [0, {self.size}),"
                f" got {v!r}"
            )
        return int(v)

    @property
    def is_connected(self) -> bool:
        """Whether every station is reachable from station 0 in ``G``."""
        return bool(self._hops([0]).min() >= 0)

    @property
    def diameter(self) -> int:
        """Diameter ``D`` of the communication graph (cached).

        The largest hop count of one all-sources BFS.

        :raises DisconnectedNetworkError: broadcast (and hence ``D``) is
            only defined for connected communication graphs.
        """
        if self._diameter is None:
            hops = self._hops(np.arange(self.size))
            if hops.min() < 0:
                raise DisconnectedNetworkError(
                    "communication graph is disconnected; broadcast undefined"
                )
            self._diameter = int(hops.max())
        return self._diameter

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta`` of the communication graph (cached).

        The longest row of :meth:`adjacency_within` at the communication
        radius; no networkx graph is built.
        """
        if self._max_degree is None:
            indptr, _ = self._graph_csr()
            self._max_degree = int(np.diff(indptr).max())
        return self._max_degree

    @property
    def granularity(self) -> float:
        """Granularity ``Rs``: max/min distance over communication edges.

        The parameter the Daum et al. bound ``O(D log n log^{alpha+1}
        Rs)`` depends on, and which the paper's footnote-2 instance
        drives exponentially high; 1.0 without edges.
        """
        ii, jj = csr_upper_pairs(*self._graph_csr())
        if not ii.size:
            return 1.0
        lengths = self.distances[ii, jj]
        return float(lengths.max()) / float(lengths.min())

    def eccentricity(self, source: int) -> int:
        """Largest hop count from ``source`` — its broadcast depth.

        Broadcast from ``source`` needs exactly this many hops, up to 2x
        fewer than ``D``; experiments report both.

        :raises GeometryError: unless ``source`` is a station index.
        :raises DisconnectedNetworkError: on a disconnected graph.
        """
        hops = self._hops([self._station(source, "source")])
        if hops.min() < 0:
            raise DisconnectedNetworkError(
                "communication graph is disconnected; eccentricity undefined"
            )
        return int(hops.max())

    def bfs_layers(self, source: int) -> list[list[int]]:
        """Stations grouped by hop count from ``source``, each layer sorted.

        Layer ``i`` holds exactly the stations a perfect broadcast
        informs in its ``i``-th hop; stations ``source`` cannot reach
        are in no layer.

        :raises GeometryError: unless ``source`` is a station index.
        """
        hops = self._hops([self._station(source, "source")])[0]
        reached = np.flatnonzero(hops >= 0)
        order = reached[np.argsort(hops[reached], kind="stable")]
        ends = np.cumsum(np.bincount(hops[reached]))[:-1]
        return [layer.tolist() for layer in np.split(order, ends)]

    def neighbors(self, v: int) -> list[int]:
        """Communication-graph neighbours of station ``v``, ascending.

        :raises GeometryError: unless ``v`` is a station index.
        """
        v = self._station(v, "station")
        indptr, indices = self._graph_csr()
        return indices[indptr[v]:indptr[v + 1]].tolist()

    def resident_bytes(self) -> int:
        """Estimated resident memory of this network's gain structure.

        The number the service's :class:`~repro.service.pool.NetworkPool`
        budgets against (DESIGN.md §8): what holding this network hot
        costs — or will cost once serving forces its lazy arrays.
        Materialized arrays (coordinates, distance/gain matrices, the
        sparse backend's CSR + cell index) are counted at their actual
        size; in dense mode the ``(n, n)`` distance and gain matrices
        are counted even while still lazy, because the first query
        forces them.  A sparse backend not yet built contributes
        nothing — the service builds it eagerly at admission, so pool
        accounting sees actuals.
        """
        total = self._coords.nbytes
        if self._dist is not None:
            total += self._dist.nbytes
        if self._gain is not None:
            total += self._gain.nbytes
        if self.backend_kind == "sparse":
            if self._backend_obj is not None:
                total += self._backend_obj.nbytes()
        else:
            projected = 8 * self.size * self.size
            if self._dist is None:
                total += projected
            if self._gain is None:
                total += projected
        return total

    def descriptor(self) -> dict:
        """The constructor kwargs that rebuild this network: ``Network(**d)``.

        Carries the backend and cutoff *requests*, not their resolved
        values: a rebuild resolves them exactly as this network did
        (same coordinates, parameters, metric and channel).  Service
        daemons (``run_grid(workers=...)``) and the copy methods
        (:meth:`advance`, :meth:`with_params`, :meth:`with_channel`)
        rebuild from this dict, so the rebuilt fingerprint and gain
        structure match bit for bit.  The coordinate array is shared,
        not copied — it is read-only.
        """
        return {
            "coords": self._coords,
            "params": self.params,
            "metric": self.metric,
            "name": self.name,
            "channel": self.channel,
            "backend": self._backend_request,
            "cutoff": self._cutoff,
        }

    def fingerprint(self) -> str:
        """Content hash of everything that determines simulation results.

        Covers the coordinates (bytes), the SINR parameters, the metric
        identity and the channel model's :meth:`~repro.sinr.channel.ChannelModel.identity`
        — but *not* ``name``, which is a display label.  Two networks with
        equal fingerprints produce identical gain matrices and hence
        identical protocol behaviour on identical seeds; the grid layer
        builds one gain structure per distinct value and keys the
        on-disk result cache on it (DESIGN.md §6.3), so networks
        differing only in channel never replay each other's results.

        Dense-mode fingerprints are byte-identical to pre-backend
        releases, so existing result caches stay valid; sparse mode
        appends a ``("sparse-backend", cutoff)`` marker because its
        conservative reception decisions may differ from dense ones —
        the two backends must never replay each other's cache entries.
        The *kernel* choice is deliberately absent: compiled and numpy
        kernels are bitwise identical (DESIGN.md §2.3), so their runs
        may — must — share cache entries.

        Run-time strategy objects — a
        :class:`~repro.deploy.mobility.MobilityModel`, a
        :class:`~repro.mac.MacModel`, traffic flows, a
        :class:`~repro.mac.RateTable` — are likewise absent *by
        design*: they describe how a run exercises the network, not
        the network itself.  Their ``identity()`` reaches cache keys
        through the sweep kwargs instead
        (:func:`repro.fastsim.cache.point_key` fingerprints every
        kwarg, DESIGN.md §11.4), so a ``mac=`` or traffic sweep can
        never alias a bare sweep's cached results even though both ran
        on the same fingerprint.
        """
        if self._fingerprint is None:
            identity = (
                self._coords.shape,
                str(self._coords.dtype),
                type(self.metric).__name__,
                self.metric.growth_dimension,
                self.params,
                self.channel.identity(),
            )
            if self.backend_kind == "sparse":
                from repro.sinr.sparse import CELLS_PER_CUTOFF

                identity = identity + (
                    ("sparse-backend", self.cutoff, CELLS_PER_CUTOFF),
                )
            digest = hashlib.sha256()
            digest.update(repr(identity).encode())
            digest.update(np.ascontiguousarray(self._coords).tobytes())
            explicit = getattr(self.metric, "_matrix", None)
            if explicit is not None:
                # MatrixMetric ignores coordinates; the matrix is the
                # geometry.
                digest.update(np.ascontiguousarray(explicit).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def ball(self, center: int, radius: float) -> np.ndarray:
        """Indices of stations within ``radius`` of station ``center``.

        For radii up to the cutoff on a sparse network, filters
        ``center``'s near-field CSR row by its distances, computed for
        that row alone by :func:`~repro.sinr.sparse.pair_distances`.
        Otherwise filters ``center``'s row of distances (computed from
        the coordinates on a sparse network, so the ``(n, n)`` matrix is
        never built; the row is bitwise the dense matrix's row).  Both
        give the dense matrix's answer bit for bit.  Nothing is
        memoized per radius: the service's ``ball`` op takes radii from
        its peers.  ``center`` must be an integer station index in
        ``[0, n)`` and ``radius >= 0``, else :class:`GeometryError`.
        """
        center = self._station(center, "ball center")
        if not radius >= 0:
            raise GeometryError(f"ball radius must be >= 0, got {radius!r}")
        if self.backend_kind == "sparse":
            if radius <= self.cutoff:
                backend = self.sparse_backend
                lo, hi = backend.indptr[center], backend.indptr[center + 1]
                senders = backend.indices[lo:hi]
                dist = pair_distances(
                    backend.coords, np.full(senders.size, center), senders
                )
                near = senders[dist <= radius].astype(np.int64)
                return np.union1d(near, center)
            row = distance_rows(self._coords, np.asarray([center]))[0]
        else:
            row = self.distances[center]
        return np.flatnonzero(row <= radius)

    # ------------------------------------------------------------------
    # mobility (DESIGN.md §7)
    # ------------------------------------------------------------------
    def advance(self, displacements: np.ndarray) -> "Network":
        """The network one mobility step later (a new ``Network``).

        Networks stay immutable: ``advance`` returns a successor at
        ``coords + displacements`` with the same parameters, channel and
        backend request, whose lazy caches (graph, diameter,
        fingerprint) start empty — they are position-dependent.  What
        carries over is the expensive gain structure, *incrementally*:

        * **sparse** — when this network's backend is built and at most
          :data:`MOBILITY_REBUILD_FRACTION` ``["sparse"]`` of the
          stations moved, the successor gets
          :meth:`repro.sinr.sparse.SparseGainBackend.advanced`'s
          patched backend: only CSR rows whose cell neighbourhood saw a
          moved station are recomputed, the rest are copied.  The patched
          state is bitwise equal to a from-scratch build at the new
          coordinates (the equivalence suite asserts it); when the cell
          grid itself drifts (bounding-box origin/shape change) the
          patch is unsound and the successor rebuilds lazily.
        * **dense** — when the distance matrix is built and at most
          :data:`MOBILITY_REBUILD_FRACTION` ``["dense"]`` of the
          stations moved, the moved rows/columns of the distance matrix
          are recomputed with the elementwise pairwise expression
          (bitwise equal to a fresh
          :func:`~repro.geometry.metric.pairwise_distances`);
          radial channels additionally patch the gain rows through
          :meth:`~repro.sinr.channel.ChannelModel.radial_gain`, while
          non-radial channels (shadowing, obstacles) recompute gains
          lazily from the patched distances.

        ``advance_mode`` on the returned successor records which path
        ran (``"patched-sparse"``, ``"patched-dense"``, ``"rebuild"``).
        An all-zero displacement returns ``self`` untouched — no
        successor exists and this network's own ``advance_mode`` (the
        record of how *it* was produced) is not clobbered.

        :param displacements: ``(n, d)`` per-station displacement array;
            stations with an exact-zero row are treated as unmoved.
        """
        disp = np.asarray(displacements, dtype=float)
        if disp.ndim == 1:
            disp = disp[:, None]
        if disp.shape != self._coords.shape:
            raise DeploymentError(
                f"displacements must have shape {self._coords.shape}, "
                f"got {disp.shape}"
            )
        if not isinstance(self.metric, EuclideanMetric):
            raise ProtocolError(
                "mobility needs coordinate geometry (EuclideanMetric); "
                f"this network's metric is {type(self.metric).__name__}"
            )
        moved = np.flatnonzero(np.any(disp != 0.0, axis=1))
        if moved.size == 0:
            return self
        new_coords = self._coords + disp
        successor = Network(**{**self.descriptor(), "coords": new_coords})
        successor.advance_mode = "rebuild"
        kind = self.backend_kind
        if moved.size <= MOBILITY_REBUILD_FRACTION[kind] * self.size:
            if kind == "sparse" and self._backend_obj is not None:
                patched = self._backend_obj.advanced(new_coords, moved)
                if patched is not None:
                    successor._backend_kind = "sparse"
                    successor._backend_obj = patched
                    successor.advance_mode = "patched-sparse"
            elif kind == "dense" and self._dist is not None:
                self._patch_dense(successor, new_coords, moved)
                successor.advance_mode = "patched-dense"
        return successor

    def _patch_dense(
        self, successor: "Network", new_coords: np.ndarray,
        moved: np.ndarray,
    ) -> None:
        """Install patched distance (and gain) matrices on ``successor``.

        Only the ``moved`` rows and columns are recomputed; the
        expressions mirror the radial channel's elementwise gain, so
        patched entries are bitwise equal to a fresh build's.
        """
        rows = distance_rows(new_coords, moved)
        check = rows.copy()
        check[np.arange(moved.size), moved] = np.inf
        if self.size > 1 and float(check.min()) < MIN_DISTANCE:
            raise DeploymentError(
                "deployment contains co-located stations; the SINR "
                "model requires distinct positions"
            )
        dist = np.array(self._dist)
        dist[moved] = rows
        dist[:, moved] = rows.T
        dist.setflags(write=False)
        successor._dist = dist
        if self._gain is None:
            return
        gain_rows = self.channel.radial_gain(rows, self.params)
        if gain_rows is None:
            # Non-radial channels draw whole-matrix structure (seeded
            # shadowing, obstacle crossings); rows cannot be patched in
            # isolation.  The successor recomputes gains lazily from
            # the patched distances — exactly what a fresh build does.
            return
        gain_rows = np.array(gain_rows)
        gain_rows[np.arange(moved.size), moved] = 0.0
        gain = np.array(self._gain)
        gain[moved] = gain_rows
        gain[:, moved] = gain_rows.T
        gain.setflags(write=False)
        successor._gain = gain

    def with_params(self, params: SINRParameters) -> "Network":
        """A copy of this network under different SINR parameters.

        Reuses nothing mutable; distance matrix is recomputed lazily (the
        read-only coordinates and the metric are shared, which is safe
        because metrics are stateless).
        """
        return Network(**{**self.descriptor(), "params": params})

    def with_channel(self, channel: ChannelModel) -> "Network":
        """A copy of this network under a different channel model.

        Coordinates, parameters and hence the communication graph are
        unchanged; gains (and the fingerprint) are not.  This is how E13
        sweeps one deployment across channels.
        """
        return Network(**{**self.descriptor(), "channel": channel})

    def describe(self) -> dict:
        """Summary dict used by experiment reports."""
        connected = self.is_connected
        return {
            "name": self.name,
            "n": self.size,
            "connected": connected,
            "diameter": self.diameter if connected else None,
            "max_degree": self.max_degree,
            "granularity": self.granularity,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "eps": self.params.eps,
            "channel": self.channel.identity()[0],
            "backend": self.backend_kind,
            "kernel": self.kernel_kind,
        }

    def __repr__(self) -> str:
        return f"Network(name={self.name!r}, n={self.size})"


def distance_rows(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the Euclidean distance matrix of ``coords``.

    The expression of :func:`repro.geometry.metric.pairwise_distances`
    restricted to those rows, so each row is bitwise the full matrix's
    (and ``distance_rows(...) <= r`` is bitwise the rows of
    :meth:`Network.adjacency_within` at ``r``, self aside) — without
    building the ``(n, n)`` matrix.
    """
    diff = coords[rows][:, None, :] - coords[None, :, :]
    out = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    out[np.arange(rows.size), rows] = 0.0
    return out
