"""Sparse geometry-certified SINR backend (DESIGN.md §2.2).

The dense resolver materializes an ``(n, n)`` gain matrix and pays
O(n^2) memory and O(n^2 log n) ranking setup — a wall at a few thousand
stations.  This module is the second implementation of the hot path,
built on the deployment's geometry instead of its full pairwise
structure:

* a **uniform cell index** buckets stations into cells of side
  ``h = R / s`` (``s`` = :data:`CELLS_PER_CUTOFF`); all pairs within
  Chebyshev distance ``s`` in cell space — a superset of every pair at
  distance ``<= R`` — get *exact* gains, stored as CSR rows per
  listener;
* **far-field interference** (cell offsets with some axis ``> s``, so
  pair distance ``>= R``) is aggregated per cell: each round's
  transmitter counts per cell are convolved (FFT over the cell grid)
  with the radial gain kernel evaluated at cell-center offsets, or,
  for queries at a few listeners, the same sums are gathered per
  (listener, transmitter) pair from the spatial kernel tables;
* the **truncation error** of that aggregation is certified: every far
  pair's per-axis distance lies within one cell side of its cell-center
  offset, so a second convolution with the bracket kernel
  ``g(lo) - g(hi)`` bounds ``|I_far - I_far_estimate|`` per listener
  per round, and the bound is folded *conservatively* into the SINR
  test (the denominator uses ``I_near + I_far_estimate + band``).

Consequences, proved in ``tests/test_hypothesis_sparse.py``:

* receptions accepted by the sparse resolver are a **subset** of the
  dense resolver's (conservative acceptance — a certified reception is
  a true reception);
* when the cutoff covers the deployment (per-axis extent at most the
  cutoff, so every cell pair is Chebyshev-``s`` and the far set is
  empty) the sparse resolver is **bitwise equal** to the dense batched
  resolver: the near scan folds gains along ascending sender index
  exactly like the dense einsum contraction.

The cutoff must be at least the broadcast range ``r``: any transmitter
that clears ``beta >= 1`` at a listener sits within ``r`` of it
(``g >= beta (N + I) >= beta N`` pins ``d <= r``), so the strongest
*receivable* transmitter is always in the near field and truncation can
only ever suppress sub-threshold far senders.

The growth dimension enters through the *cutoff choice*
(:func:`certified_cutoff` / :func:`far_field_tail_bound`): growth-bounded
ring populations around any listener give a certifiable upper bound on
far-field interference beyond ``R`` under the protocols' bounded active
density, the same tail argument as the stochastic-geometry literature
(PAPERS.md: geometric routing asymptotics; wireless spatial networks).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional

import numpy as np

from repro import kernels as _kernels
from repro.errors import DeploymentError, GeometryError, ProtocolError
from repro.geometry.growth import growth_dimension_estimate
from repro.geometry.metric import MIN_DISTANCE, pairwise_distances
from repro.sinr.params import SINRParameters
from repro.sinr.reception import NO_SENDER, _checked_stations

#: Default cutoff radius as a multiple of the broadcast range ``r``.
DEFAULT_CUTOFF_SCALE = 2.0

#: Cells per cutoff radius: cell side is ``cutoff / CELLS_PER_CUTOFF``
#: and the exact near field spans Chebyshev-``CELLS_PER_CUTOFF`` cell
#: neighbourhoods.  Finer cells shrink the certified far-field bracket
#: (pair distances deviate from cell-center distances by at most one
#: cell diagonal) at the cost of a larger FFT grid; 3 keeps the band
#: well below typical reception margins while the grid stays tiny.
CELLS_PER_CUTOFF = 3

#: ``Network(backend="auto")`` switches to the sparse backend at this
#: size (below it the dense resolver's ranking cache wins).
SPARSE_AUTO_MIN = 4096

#: Cell-count guard: deployments whose bounding box spans more than this
#: many cells *per station* (exponential chains, extreme aspect ratios)
#: stay dense — the cell grid itself would dominate memory.
MAX_CELLS_PER_STATION = 32
MIN_CELL_BUDGET = 65536

#: Relative slack folded onto the certified band to absorb FFT rounding
#: (the bracket kernels are exact per pair; the convolution is not).
FFT_SLACK_REL = 1e-9

#: Element budget of one chunk of sets in
#: :meth:`SparseGainBackend.resolve_reception_sets`: a chunk gathers at
#: most about this many CSR entries and far-table terms (a set larger
#: than the budget forms a chunk alone), so its temporaries stay at a
#: few MB however many sets a call carries.  It also bounds one row
#: slab of :meth:`SparseGainBackend.resolve_reception_batch`: the
#: slab's far arrays and padded FFT grids hold about this many
#: elements per row-stacked array.
SERVING_CHUNK_ELEMENTS = 1 << 17


def _with_band(
    est: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(estimate, band)``: the certified error plus the rounding slack."""
    return est, err + FFT_SLACK_REL * (est + err)


def default_cutoff(params: SINRParameters) -> float:
    """The deterministic default cutoff: ``2 r`` (fingerprint-stable)."""
    return DEFAULT_CUTOFF_SCALE * params.broadcast_range


def _points(coords) -> np.ndarray:
    """``coords`` as a float ``(n, d)`` array (1-D input is ``(n, 1)``)."""
    coords = np.asarray(coords, dtype=float)
    return coords[:, None] if coords.ndim == 1 else coords


# ----------------------------------------------------------------------
# CSR helpers
# ----------------------------------------------------------------------
def csr_index_dtype(n: int) -> type:
    """Column dtype of an ``n``-station CSR: ``int32`` where it fits."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def csr_row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Storage positions of ``rows``' entries in a CSR structure.

    :returns: ``(positions, per-row lengths)`` — the positions of each
        row's entries, concatenated in the given row order (rows may be
        unsorted or repeated).
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    return _row_positions(starts, lengths), lengths


def _row_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return pos


def csr_upper_pairs(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``i < j`` of a symmetric CSR adjacency, in storage order.

    Rows ascend and columns ascend within a row, so the pairs come out
    sorted by ``(i, j)``.
    """
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    cols = indices.astype(np.int64, copy=False)
    keep = rows < cols
    return rows[keep], cols[keep]


def pair_distances(
    coords: np.ndarray, listeners: np.ndarray, senders: np.ndarray
) -> np.ndarray:
    """Distances of ``(listener, sender)`` pairs, one per pair.

    The near field's one per-pair arithmetic: ``diff =
    coords[listener] - coords[sender]``, then ``sqrt(diff . diff)``,
    each pair from its own coordinates alone, so a pair's bits do not
    depend on what else shares the call.  The backend's gains,
    its CSR-aligned distances, its radius queries and
    :meth:`repro.network.network.Network.ball` all take their distances
    from here.

    :raises DeploymentError: if a pair's distance is below
        :data:`~repro.geometry.metric.MIN_DISTANCE`.
    """
    # ``take`` gathers whole rows, the same values as
    # ``coords[listeners]`` at a fraction of its cost.
    diff = coords.take(listeners, axis=0)
    diff -= coords.take(senders, axis=0)
    dist = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(dist, out=dist)
    if dist.size and float(dist.min()) < MIN_DISTANCE:
        raise DeploymentError(
            "deployment contains co-located stations; the SINR "
            "model requires distinct positions"
        )
    return dist


def _strongest(
    slot: np.ndarray,
    values: np.ndarray,
    senders: np.ndarray,
    size: int,
    none: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot ``(total, best_gain, best_sender)`` of gathered gains.

    ``bincount`` adds each slot's values sequentially in input order —
    the only order-sensitive result; the maximum and the lowest-index
    sender attaining it are exact.  Slots without a value read
    ``(0, 0, none)``.
    """
    total = np.bincount(slot, weights=values, minlength=size)
    best_gain = np.zeros(size)
    np.maximum.at(best_gain, slot, values)
    best_sender = np.full(size, none, dtype=np.int64)
    winners = values == best_gain[slot]
    np.minimum.at(best_sender, slot[winners], senders[winners])
    return total, best_gain, best_sender


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` unequal to their predecessor."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


# ----------------------------------------------------------------------
# growth-certified tail bounds (cutoff choice, DESIGN.md §2.2)
# ----------------------------------------------------------------------
def far_field_tail_bound(
    params: SINRParameters,
    cutoff: float,
    gamma: float,
    active_per_ball: float,
    k_max: int,
) -> float:
    """Certified far-field interference bound from bounded growth.

    Stations beyond distance ``R`` from a listener are grouped into
    rings ``A_k = {v : kR <= d < (k+1)R}``, ``k >= 1``.  With the
    paper's covering normalization ``chi(c d, d) <= ceil(c)^gamma``
    (Sect. 2; :func:`repro.geometry.growth.euclidean_covering_bound`),
    the ball ``B(u, (k+1)R)`` is covered by ``ceil(2(k+1))^gamma`` balls
    of radius ``R/2``; if at most ``active_per_ball`` stations per
    radius-``R/2`` ball transmit — the protocols' Theta(1/mass)
    transmission discipline keeps the *expected* active density at a
    constant per covering ball — each ring contributes at most
    ``ceil(2(k+1))^gamma * active_per_ball`` transmitters of gain at
    most ``P (kR)^-alpha``.  Deployments are finite, so the sum is
    truncated at ``k_max ~ extent / R`` rings; for ``alpha > gamma + 1``
    it is bounded by a constant independent of the deployment.

    :param active_per_ball: transmitter budget per radius-``R/2``
        covering ball (pass the *population* bound for an unconditional
        worst case; pass ``O(1)`` for the protocol-invariant bound).
    """
    if cutoff <= 0 or gamma <= 0 or k_max < 0:
        raise GeometryError("cutoff, gamma and k_max must be positive")
    total = 0.0
    for k in range(1, k_max + 1):
        total += math.ceil(2 * (k + 1)) ** gamma * float(k) ** (-params.alpha)
    return params.power * active_per_ball * cutoff ** (-params.alpha) * total


def _measured_gamma(coords: np.ndarray) -> float:
    """Growth dimension of the deployment, floored at 1.

    :func:`repro.geometry.growth.growth_dimension_estimate` on a
    deterministic subsample of at most 512 stations (every
    ``n // 512``-th).
    """
    sub = coords[::max(1, coords.shape[0] // 512)][:512]
    return max(growth_dimension_estimate(pairwise_distances(sub)), 1.0)


def _ring_count(coords: np.ndarray, cutoff: float) -> int:
    """Rings of width ``cutoff`` that span the deployment (at least 1):
    ``ceil(extent / cutoff)``, ``extent`` its bounding-box diagonal."""
    extent = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return max(1, math.ceil(extent / cutoff))


def certified_cutoff(
    coords: np.ndarray,
    params: SINRParameters,
    *,
    gamma: Optional[float] = None,
    active_per_ball: float = 1.0,
    budget_fraction: float = 0.25,
    candidates: Optional[list] = None,
) -> float:
    """Smallest candidate cutoff whose certified tail fits the budget.

    Walks a ladder of cutoff candidates and returns the first whose
    :func:`far_field_tail_bound` is at most ``budget_fraction`` of the
    interference margin a communication-graph edge tolerates
    (:meth:`~repro.sinr.params.SINRParameters.min_gap_for_range` at the
    comm radius).  ``gamma`` defaults to the deployment's *measured*
    growth dimension (:func:`repro.geometry.growth.growth_dimension_estimate`
    on a deterministic subsample), floored at 1.

    :raises GeometryError: when no candidate certifies, naming the
        smallest bound and the budget — a larger cutoff, a looser
        budget or a smaller ``gamma`` is the caller's choice, not this
        function's.
    """
    coords = _points(coords)
    r = params.broadcast_range
    if candidates is None:
        candidates = [r, 1.25 * r, 1.5 * r, 2.0 * r, 3.0 * r]
    candidates = sorted(c for c in candidates if c >= r)
    if not candidates:
        raise GeometryError("every cutoff candidate is below the range r")
    if gamma is None:
        gamma = _measured_gamma(coords)
    budget = budget_fraction * params.min_gap_for_range(params.comm_radius)
    bounds = []
    for cutoff in candidates:
        bound = far_field_tail_bound(
            params, cutoff, gamma, active_per_ball,
            _ring_count(coords, cutoff),
        )
        if bound <= budget:
            return float(cutoff)
        bounds.append((bound, cutoff))
    bound, cutoff = min(bounds)
    raise GeometryError(
        f"no cutoff candidate certifies: the smallest tail bound, "
        f"{bound:.3g} at cutoff {cutoff:g}, exceeds the budget {budget:.3g}"
    )


# ----------------------------------------------------------------------
# the uniform cell index
# ----------------------------------------------------------------------
def _grid(coords: np.ndarray, h: float) -> tuple[np.ndarray, tuple]:
    """``(origin, shape)`` of the cell grid of side ``h`` over ``coords``.

    The origin is the per-axis minimum and the grid has ``floor((max -
    min) / h) + 1`` cells per axis: the one rule by which
    :class:`CellIndex` bins stations, the support check counts cells
    against the budget and :meth:`SparseGainBackend.advanced` decides
    whether a fresh build would bin alike.
    """
    origin = coords.min(axis=0)
    shape = np.floor((coords.max(axis=0) - origin) / h).astype(np.int64) + 1
    return origin, tuple(int(s) for s in shape)


class CellIndex:
    """Uniform spatial hash over station coordinates.

    Cells are axis-aligned boxes of side ``cell_size`` on the grid of
    :func:`_grid`; station ``i`` lives in cell ``floor((coords[i] -
    origin) / cell_size)`` per axis.  Buckets are realized as one index
    array sorted by flat cell id, and a neighbourhood walk costs a few
    gathers per cell offset (:meth:`adjacent_pair_keys`).

    :param reach: Chebyshev radius (in cells) of the "near"
        neighbourhood served by :meth:`adjacent_pair_keys`; pairs at
        Euclidean distance ``<= reach * cell_size`` are guaranteed to be
        near.
    """

    def __init__(self, coords: np.ndarray, cell_size: float, reach: int = 1):
        if cell_size <= 0:
            raise GeometryError(
                f"cell size must be positive, got {cell_size}"
            )
        if reach < 1:
            raise GeometryError(f"cell reach must be >= 1, got {reach}")
        coords = np.asarray(coords, dtype=float)
        self.coords = coords
        self.h = float(cell_size)
        self.reach = int(reach)
        self.n, self.dim = coords.shape
        self.origin, self.shape = _grid(coords, self.h)
        self.n_cells = math.prod(self.shape)
        idx = np.floor((coords - self.origin) / self.h).astype(np.int64)
        np.clip(idx, 0, np.subtract(self.shape, 1), out=idx)
        self.cell_vec = idx
        self.cell_of = np.ravel_multi_index(tuple(idx.T), self.shape)
        # Bucket layout: stations sorted (stably) by flat cell id.
        self.order = np.argsort(self.cell_of, kind="stable")
        sorted_cells = self.cell_of[self.order]
        self.occupied, self.bucket_start, self.bucket_count = np.unique(
            sorted_cells, return_index=True, return_counts=True
        )

    def _offset_buckets(self, cells: np.ndarray):
        """Yield ``(offset, src, dst)`` per cell offset within
        Chebyshev ``reach``: the positions ``src`` in ``cells`` (flat
        ids of occupied cells) whose neighbour at that offset is
        occupied, and that neighbour's bucket ``dst``.

        A neighbour inside the grid on every axis has flat id ``cell +
        offset . strides``, looked up in a transient cell -> bucket
        table, so one walk costs a few gathers per offset.
        """
        span = range(-self.reach, self.reach + 1)
        bucket = np.full(self.n_cells, -1, dtype=np.int64)
        bucket[self.occupied] = np.arange(self.occupied.size)
        strides = np.cumprod((1,) + self.shape[:0:-1])[::-1]
        inside = [
            [(v + o >= 0) & (v + o < size) for o in span]
            for v, size in zip(np.unravel_index(cells, self.shape), self.shape)
        ]
        for offset in product(span, repeat=self.dim):
            src = np.flatnonzero(np.logical_and.reduce([
                axis[o + self.reach] for axis, o in zip(inside, offset)
            ]))
            dst = bucket[cells[src] + int(np.dot(offset, strides))]
            hit = dst >= 0
            yield offset, src[hit], dst[hit]

    def adjacent_pair_keys(
        self, listeners: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The ``i * n + j`` keys of the listeners' Chebyshev-``reach``
        cell neighbourhoods, in one int64 array.

        Every ordered pair ``(i, j)`` of distinct stations whose cells
        differ by at most ``reach`` per axis and whose listener ``i`` is
        in ``listeners`` (default: every station) appears exactly once,
        as the key ``i * n + j`` (each offset contributes one direction;
        the opposite offset the other).  Pairs at distance ``<= reach *
        cell_size`` are guaranteed to be covered; pairs in cells beyond
        the reach are at distance ``> (reach - 1) * cell_size`` per
        exceeding axis.  The listeners are taken in the index's own
        bucket layout, so the full call sorts nothing and a listener
        subset (the moved stations of
        :meth:`SparseGainBackend.advanced`) lists exactly the full
        call's keys of those rows.  The array is sized from the
        per-offset bucket pair counts and written one offset at a time,
        so no key is ever held twice.  It is in no particular order;
        sorted, the keys list the pairs by ``i``, then ``j``.
        """
        count, start, n = self.bucket_count, self.bucket_start, self.n
        # The listeners grouped by cell: ``members`` in bucket order,
        # and per occupied cell its first member and member count.
        if listeners is None:
            members, cells = self.order, self.occupied
            m_start, m_count = start, count
        else:
            picked = np.zeros(n, dtype=bool)
            picked[listeners] = True
            members = self.order[picked[self.order]]
            cells, m_start, m_count = np.unique(
                self.cell_of[members], return_index=True, return_counts=True
            )
        # The zero offset pairs every listener with itself once: keys
        # that are not pairs.
        total = sum(
            int(np.dot(m_count[src], count[dst]))
            for _, src, dst in self._offset_buckets(cells)
        ) - members.size
        keys = np.empty(total, dtype=np.int64)
        at = 0
        for offset, src, dst in self._offset_buckets(cells):
            # Each listener of cell src[k] pairs with all of bucket dst[k].
            per = m_count[src]
            rows = members[_row_positions(m_start[src], per)] * n
            run = np.repeat(count[dst], per)
            senders = self.order[
                _row_positions(np.repeat(start[dst], per), run)
            ]
            rows = np.repeat(rows, run)
            if not any(offset):
                keep = rows != senders * n
                rows, senders = rows[keep], senders[keep]
            np.add(rows, senders, out=keys[at:at + senders.size])
            at += senders.size
        return keys


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
class SparseGainBackend:
    """CSR near field + certified per-cell far field for one deployment.

    Drop-in replacement for the dense gain matrix in
    :mod:`repro.sinr.reception` — the resolver functions there dispatch
    to :meth:`resolve_reception_batch`, :meth:`resolve_reception_sets`
    and :meth:`resolve_at` when handed a backend instead of an ndarray
    (single-round resolution is the ``B = 1`` batched row, as on the
    dense path).  Construction requires a *radial*
    channel (:meth:`repro.sinr.channel.ChannelModel.radial_gain`); the
    per-pair gains are bitwise identical to the dense matrix entries.

    :param coords: ``(n, d)`` station coordinates.
    :param params: SINR parameters; ``cutoff`` must be at least the
        broadcast range they induce.
    :param channel: channel model; must be radial (distance-only).
    :param cutoff: near-field cutoff radius ``R`` (default ``2 r``).

    The near scan runs :func:`repro.kernels.csr_near_scan` when
    :data:`repro.kernels.COMPILED` is set and the numpy fold otherwise;
    both return identical bytes (DESIGN.md §2.3).
    """

    def __init__(
        self,
        coords: np.ndarray,
        params: SINRParameters,
        channel=None,
        cutoff: Optional[float] = None,
        *,
        _csr: Optional[tuple] = None,
        _cells: Optional["CellIndex"] = None,
    ):
        coords = _points(coords)
        if channel is None:
            from repro.sinr.channel import default_channel

            channel = default_channel()
        self.coords = coords
        self.params = params
        self.channel = channel
        self.cutoff = float(
            cutoff if cutoff is not None else default_cutoff(params)
        )
        reason = _unsupported(coords, params, channel, self.cutoff)
        if reason is not None:
            raise ProtocolError(reason)
        self.n = coords.shape[0]
        reach = CELLS_PER_CUTOFF
        # _cells: the incremental update already built the (identical)
        # index while validating grid stability — reuse it.
        self.cells = (
            _cells if _cells is not None
            else CellIndex(coords, self.cutoff / reach, reach=reach)
        )
        #: Far set emptiness: with at most ``reach + 1`` cells per axis
        #: every cell pair is within the near reach — the exact-equality
        #: regime (guaranteed when the per-axis extent is <= cutoff).
        self.far_empty = all(s <= reach + 1 for s in self.cells.shape)
        self._kernels: Optional[tuple] = None
        self._far_spatial: Optional[tuple] = None
        self._entry_keys_cache: Optional[np.ndarray] = None
        #: radius -> symmetric CSR ``(indptr, indices)`` of the pairs
        #: within it (:meth:`adjacency_within`); position-dependent, so
        #: :meth:`advanced` never carries it over.
        self._adjacency: dict[float, tuple] = {}
        if _csr is not None:
            self.data, self.indices, self.indptr = _csr
        else:
            self._build_csr()

    # -- construction --------------------------------------------------
    def _radial(self, dist: np.ndarray) -> np.ndarray:
        gains = self.channel.radial_gain(
            np.maximum(dist, MIN_DISTANCE), self.params
        )
        assert gains is not None
        return gains

    def _build_csr(self) -> None:
        """The CSR triple, plus the adjacency at the communication radius.

        One key array, sorted in place, gives ``indptr`` and
        ``indices`` and is released before any gain exists, so the
        build never holds a second per-entry copy of anything.  Gains
        then come in row blocks of distances (:meth:`_dist_blocks`);
        the same blocks memoize :meth:`adjacency_within` at
        ``params.comm_radius``, which the graph queries read.
        """
        keys = self.cells.adjacent_pair_keys()
        # The keys are unique pairs, so their sort is the (listener,
        # sender) order: CSR rows per listener with columns in ascending
        # sender order, the fold order the exact-equality contract
        # relies on.
        keys.sort()
        self.indptr = np.searchsorted(
            keys, np.arange(self.n + 1, dtype=np.int64) * self.n
        )
        self.indices = np.empty(keys.size, dtype=csr_index_dtype(self.n))
        for lo in range(0, keys.size, SERVING_CHUNK_ELEMENTS):
            block = slice(lo, lo + SERVING_CHUNK_ELEMENTS)
            self.indices[block] = keys[block] % self.n
        del keys
        self.data = np.empty(self.indices.size)
        comm = float(self.params.comm_radius)
        kept = []
        for entries, dist in self._dist_blocks():
            self.data[entries] = self._radial(dist)
            kept.append(np.flatnonzero(dist <= comm) + entries.start)
        self._adjacency[comm] = self._kept_csr(kept)

    def _dist_blocks(self):
        """Yield ``(entries, dists)``: the CSR-aligned pair distances
        by row blocks.

        ``entries`` is the block's slice of the CSR storage.  A block
        holds whole rows and at most :data:`SERVING_CHUNK_ELEMENTS`
        entries (a longer row forms a block alone), so the temporaries
        of :func:`pair_distances` stay small however many entries there
        are.
        """
        indptr = self.indptr
        r0 = 0
        while r0 < self.n:
            r1 = max(r0 + 1, int(np.searchsorted(
                indptr, indptr[r0] + SERVING_CHUNK_ELEMENTS, side="right"
            )) - 1)
            entries = slice(int(indptr[r0]), int(indptr[r1]))
            listeners = np.repeat(
                np.arange(r0, r1), np.diff(indptr[r0:r1 + 1])
            )
            yield entries, pair_distances(
                self.coords, listeners, self.indices[entries]
            )
            r0 = r1

    def _kept_csr(self, kept: list) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, indices)`` of the entries at the
        ascending storage positions ``kept`` (a list of blocks)."""
        kept = np.concatenate([np.empty(0, dtype=np.int64), *kept])
        # Entries kept before each row start = the new row starts.
        return np.searchsorted(kept, self.indptr), self.indices[kept]

    @property
    def dists(self) -> np.ndarray:
        """CSR-aligned pair distances, computed afresh on every access.

        No protocol round reads a distance, so the backend keeps none:
        each access runs :func:`pair_distances` over the CSR in row
        blocks and returns a new array (8 bytes per entry), which the
        backend does not cache.  Bitwise the distances the gains were
        computed from.
        """
        dists = np.empty(self.indices.size)
        for entries, dist in self._dist_blocks():
            dists[entries] = dist
        return dists

    def nbytes(self) -> int:
        """Resident bytes of the backend's persistent arrays.

        The CSR triple (12 bytes per entry with ``int32`` indices) and
        the cell index, plus the lazily built structures once they
        exist: the far-field transforms and the spatial tables the
        serving path gathers from, the merge keys :meth:`advanced`
        caches, and every memoized adjacency (a fresh build memoizes
        the one at the communication radius).  Distances are not kept,
        so they are not counted.
        """
        arrays = [
            self.data, self.indices, self.indptr,
            self.cells.cell_of, self.cells.order, self._entry_keys_cache,
        ]
        if self._kernels is not None:
            arrays += self._kernels[0:2]
        if self._far_spatial is not None:
            K, E, tables = self._far_spatial
            arrays += [K, E, *tables]
        for adjacency in self._adjacency.values():
            arrays += adjacency
        return sum(a.nbytes for a in arrays if a is not None)

    # -- incremental updates (mobility, DESIGN.md §7) -------------------
    def advanced(
        self, new_coords: np.ndarray, moved: np.ndarray
    ) -> Optional["SparseGainBackend"]:
        """Backend at ``new_coords`` with only the moved *entries* redone.

        Returns a new backend whose CSR triple (and so its
        :attr:`dists`) is **bitwise equal** to a from-scratch build at
        ``new_coords``, or ``None`` when patching is unsound and the
        caller must rebuild — the contract
        :meth:`repro.network.network.Network.advance` relies on
        (DESIGN.md §7).

        Patching is sound exactly when the grid of ``new_coords``
        (:func:`_grid`) has this backend's origin and shape, bit for
        bit: the CSR *structure* — which pairs are near — is a function
        of the cell binning, so a drifted grid changes rows that contain
        no moved station.  Given an identical grid, an entry ``(u, v)``
        changes only when ``u`` or ``v`` moved.  The update is therefore
        a three-way delta merge:

        * **drop** every old entry whose listener or sender moved (one
          vectorized membership scan over the nnz entries);
        * **recompute** the moved stations' full rows under the new
          binning — the fresh index's
          :meth:`CellIndex.adjacent_pair_keys` for the moved listeners,
          the build's own bucket walk — and mirror them onto unmoved
          listeners (cell-Chebyshev reach is symmetric); the fresh run's
          ``row * n + sender`` keys are sorted and their gains come
          from :func:`pair_distances`, the per-pair arithmetic of the
          build, so each value is bitwise what a fresh build computes;
        * **merge** surviving and fresh entries by that composite key —
          both runs are sorted, so two ``searchsorted`` calls place
          every entry without a global re-sort.

        Gains are evaluated only on the delta — O(moved fraction) of
        the build cost; ``benchmarks/bench_mobility.py`` gates the
        resulting speedup.  Far-field kernels depend only on the grid
        shape and are carried over; memoized adjacencies
        (:meth:`adjacency_within`), the one at the communication radius
        included, depend on positions and are not: the patched backend
        starts with an empty memo.
        """
        new_coords = _points(new_coords)
        if new_coords.shape != self.coords.shape:
            raise GeometryError(
                f"advanced() coordinates must keep shape "
                f"{self.coords.shape}, got {new_coords.shape}"
            )
        moved = np.asarray(moved, dtype=np.int64)
        if moved.size == 0:
            return self
        cells = self.cells
        origin, shape = _grid(new_coords, cells.h)
        if shape != cells.shape or not np.array_equal(origin, cells.origin):
            return None
        new_cells = CellIndex(new_coords, cells.h, reach=cells.reach)

        # Fresh rows of the moved stations (all their senders, moved or
        # not) under the new binning.
        base = np.int64(self.n)
        m_listeners, m_senders = np.divmod(
            new_cells.adjacent_pair_keys(moved), base
        )
        is_moved = np.zeros(self.n, dtype=bool)
        is_moved[moved] = True

        # Dropped old entries: the moved listeners' whole rows, plus any
        # entry whose sender moved.
        drop = np.zeros(self.indices.size, dtype=bool)
        moved_pos, _ = csr_row_positions(self.indptr, moved)
        drop[moved_pos] = True
        drop |= is_moved[self.indices]
        keep = ~drop
        dropped_pos = np.flatnonzero(drop)
        dropped_rows = (
            np.searchsorted(self.indptr, dropped_pos, side="right") - 1
        )

        # Fresh entries: moved rows plus their mirror image at unmoved
        # listeners (moved-moved pairs appear in both directions within
        # the moved rows already).
        mirror = ~is_moved[m_senders]
        ins_rows = np.concatenate([m_listeners, m_senders[mirror]])
        ins_keys = ins_rows * base + np.concatenate(
            [m_senders, m_listeners[mirror]]
        )
        ins_keys.sort()
        ins_indices = np.empty(ins_keys.size, dtype=self.indices.dtype)
        ins_data = np.empty(ins_keys.size)
        for lo in range(0, ins_keys.size, SERVING_CHUNK_ELEMENTS):
            block = slice(lo, lo + SERVING_CHUNK_ELEMENTS)
            listeners, senders = np.divmod(ins_keys[block], base)
            ins_indices[block] = senders
            ins_data[block] = self._radial(
                pair_distances(new_coords, listeners, senders)
            )

        # Sorted-merge: the old CSR is globally (row, sender)-ordered and
        # so is the insert run.  Each insert's rank among the *kept*
        # entries is its rank among all old entries minus the dropped
        # entries before it (a pre-existing pair whose sender moved sits
        # at its own old slot, which is dropped, so ``side="left"``
        # counts exactly the surviving predecessors); adding the insert
        # run's own arange turns ranks into final positions.  The kept
        # entries then stream in order into the remaining slots via one
        # boolean mask — no position array, sort or prefix sum ever
        # touches the O(nnz) kept side.
        idx_old = np.searchsorted(self._entry_keys(), ins_keys)
        idx_ins = idx_old - np.searchsorted(dropped_pos, idx_old)
        pos_ins = idx_ins + np.arange(ins_keys.size, dtype=np.int64)
        nnz = self.indices.size - dropped_pos.size + ins_keys.size
        into_kept = np.ones(nnz, dtype=bool)
        into_kept[pos_ins] = False
        indices = np.empty(nnz, dtype=self.indices.dtype)
        data = np.empty(nnz)
        indices[pos_ins] = ins_indices
        indices[into_kept] = self.indices[keep]
        data[pos_ins] = ins_data
        data[into_kept] = self.data[keep]
        counts = np.diff(self.indptr)
        counts = (
            counts
            - np.bincount(dropped_rows, minlength=self.n)
            + np.bincount(ins_rows, minlength=self.n)
        )
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        patched = SparseGainBackend(
            new_coords, self.params, self.channel, self.cutoff,
            _csr=(data, indices, indptr), _cells=new_cells,
        )
        # Same grid shape and cell side => identical far-field kernels;
        # reuse the (possibly already computed) FFT transforms.
        patched._kernels = self._kernels
        patched._far_spatial = self._far_spatial
        return patched

    def _entry_keys(self) -> np.ndarray:
        """Composite ``row * n + sender`` key per CSR entry (cached).

        Strictly increasing across the CSR (rows ascend, senders ascend
        within a row), which is what lets :meth:`advanced` merge by
        ``searchsorted`` instead of re-sorting the whole structure.
        """
        if self._entry_keys_cache is None:
            keys = np.repeat(
                np.arange(0, self.n * self.n, self.n, dtype=np.int64),
                np.diff(self.indptr),
            )
            keys += self.indices
            self._entry_keys_cache = keys
        return self._entry_keys_cache

    # -- far-field machinery -------------------------------------------
    @staticmethod
    def _fast_fft_len(m: int) -> int:
        """Smallest 5-smooth integer ``>= m`` (a fast pocketfft length).

        Circular convolution is exact for *any* padding of at least
        ``2 s - 1`` cells per axis, so the padded length is free to be
        rounded up to a radix-2/3/5 plan — ``numpy.fft``'s generic
        large-prime path (e.g. 123 = 3 x 41) is several times slower
        than the nearest smooth length (125 = 5**3).
        """
        best = 1 << max(m - 1, 0).bit_length()
        f5 = 1
        while f5 < best:
            f15 = f5
            while f15 < best:
                k = f15
                while k < m:
                    k *= 2
                best = min(best, k)
                f15 *= 3
            f5 *= 5
        return best

    def _far_kernels(self) -> tuple:
        """Padded FFT kernels ``(K_hat, E_hat, padded_shape)`` (lazy).

        ``K[delta]`` is the radial gain at the cell-center offset
        ``h * |delta|`` for far offsets (some axis ``|delta_d| > reach``),
        zero on the Chebyshev-``reach`` near set.  ``E[delta]`` brackets
        the per-pair error: a pair in cells at offset ``delta`` has
        distance in ``[h |max(|delta|-1, 0)|, h |(|delta|+1)|]``
        (per-axis triangle bounds), so ``g(lo) - g(hi)`` dominates the
        deviation of any far pair's gain from the center value.
        """
        if self._kernels is not None:
            return self._kernels
        shape = self.cells.shape
        h = self.cells.h
        reach = self.cells.reach
        padded = tuple(
            self._fast_fft_len(2 * s - 1) if s > 1 else 1
            for s in shape
        )
        axes_off = []
        axes_dead = []
        for s, p in zip(shape, padded):
            if s <= 1:
                axes_off.append(np.zeros(1))
                axes_dead.append(np.zeros(1, dtype=bool))
                continue
            off = np.zeros(p)
            off[:s] = np.arange(s)
            off[p - (s - 1):] = np.arange(-(s - 1), 0)
            dead = np.zeros(p, dtype=bool)
            dead[s:p - (s - 1)] = True
            axes_off.append(off)
            axes_dead.append(dead)
        grids = np.meshgrid(*axes_off, indexing="ij", sparse=False)
        absg = [np.abs(g) for g in grids]
        center = h * np.sqrt(sum(g * g for g in grids))
        lo = h * np.sqrt(
            sum(np.maximum(g - 1.0, 0.0) ** 2 for g in absg)
        )
        hi = h * np.sqrt(sum((g + 1.0) ** 2 for g in absg))
        far = np.zeros(padded, dtype=bool)
        for g in absg:
            far |= g > reach
        # Offset slots in the zero-padding dead zone (between +(s-1)
        # and -(s-1) circularly) are never hit by an output-minus-count
        # index difference; keep their kernel entries exactly zero.
        for d, dead in enumerate(axes_dead):
            shape_d = [1] * len(padded)
            shape_d[d] = dead.size
            far &= ~dead.reshape(shape_d)
        K = np.zeros(padded)
        E = np.zeros(padded)
        if far.any():
            K[far] = self._radial(center[far])
            E[far] = self._radial(lo[far]) - self._radial(hi[far])
        axes = tuple(range(len(padded)))
        K_hat = np.fft.rfftn(K, s=padded, axes=axes)
        E_hat = np.fft.rfftn(E, s=padded, axes=axes)
        # The spatial tables double as the serving path's gather source
        # (:meth:`_far_pairs`): ``K[(x - c) mod padded]`` *is* the exact
        # circular-convolution term the transforms compute.  Re-laid out
        # centred — offset ``delta`` at ``delta + s - 1`` per axis — the
        # flat index of ``x - c`` is ``key[x] - key[c] + centre`` for a
        # per-cell key with the centred strides, so the per-query work
        # is one subtraction and one gather per (listener, transmitter).
        centred = np.ix_(*(
            np.arange(1 - s, s) % p for s, p in zip(shape, padded)
        ))
        strides = np.cumprod([1] + [2 * s - 1 for s in shape[:0:-1]])
        cell_key = sum(
            axis * stride for axis, stride in zip(
                np.unravel_index(np.arange(self.cells.n_cells), shape),
                strides[::-1],
            )
        )
        self._far_spatial = (
            K[centred].reshape(-1), E[centred].reshape(-1), (cell_key,)
        )
        self._kernels = (K_hat, E_hat, padded)
        return self._kernels

    def far_band(
        self, tx_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-listener far-field estimate and certified error band.

        The backend's only far-field transform.  It answers every
        station of every row, so it serves whole-network batches
        (:meth:`resolve_reception_batch`); queries at a few listeners
        gather the same certified sums per pair instead
        (:meth:`_far_pairs`), at a cost that follows the query rather
        than the cell grid.  The far field is constant within a cell,
        so the transform runs on per-cell transmitter counts and each
        station reads its cell's value.  Rows are transformed in slabs
        of :meth:`_far_slab_rows`, so the padded grids stay within the
        element budget however many rows a call carries; a row's bits
        do not depend on the slab it rides in.

        :param tx_mask: ``(B, n)`` boolean transmitter mask.
        :returns: ``(far_estimate, band)`` — both ``(B, n)``, with
            ``|I_far - far_estimate| <= band`` guaranteed per listener
            (band includes the FFT rounding slack).
        """
        tx_mask = np.atleast_2d(np.asarray(tx_mask, dtype=bool))
        B, n = tx_mask.shape
        est = np.zeros((B, n))
        band = np.zeros((B, n))
        if self.far_empty:
            return est, band
        K_hat, E_hat, padded = self._far_kernels()
        # One batched transform over the trailing cell axes instead of
        # per-row FFT dispatch: this runs every round of every sweep.
        axes = tuple(range(1, len(padded) + 1))
        shape = self.cells.shape
        region = (slice(None),) + tuple(slice(0, s) for s in shape)
        cell_of = self.cells.cell_of
        slab = self._far_slab_rows()
        for lo in range(0, B, slab):
            rows = tx_mask[lo:lo + slab]
            m = rows.shape[0]
            counts = np.zeros((m, self.cells.n_cells))
            row, stations = np.nonzero(rows)
            np.add.at(counts, (row, cell_of[stations]), 1.0)
            C_hat = np.fft.rfftn(
                counts.reshape((m,) + shape), s=padded, axes=axes
            )
            est_cells = np.fft.irfftn(
                C_hat * K_hat[None], s=padded, axes=axes
            )[region]
            err_cells = np.fft.irfftn(
                C_hat * E_hat[None], s=padded, axes=axes
            )[region]
            est[lo:lo + m], band[lo:lo + m] = _with_band(
                np.maximum(est_cells.reshape(m, -1), 0.0)[:, cell_of],
                np.maximum(err_cells.reshape(m, -1), 0.0)[:, cell_of],
            )
        return est, band

    def _far_slab_rows(self) -> int:
        """Rows per far-field transform: ``SERVING_CHUNK_ELEMENTS //
        max(n, cells)`` (at least one), ``cells`` the padded grid's.

        A slab's far arrays and padded FFT grids then hold about
        :data:`SERVING_CHUNK_ELEMENTS` elements per row-stacked array.
        """
        cells = int(np.prod(self._far_kernels()[2]))
        return max(1, SERVING_CHUNK_ELEMENTS // max(self.n, cells))

    def certified_tail_bound(
        self,
        gamma: Optional[float] = None,
        active_per_ball: float = 1.0,
    ) -> float:
        """Growth-certified bound on far-field interference beyond ``R``.

        Instantiates :func:`far_field_tail_bound` with this deployment's
        measured growth dimension and finite ring count.  Pass
        ``active_per_ball=self.max_ball_occupancy()`` for the
        unconditional (every-station-transmits) version.
        """
        if gamma is None:
            gamma = _measured_gamma(self.coords)
        return far_field_tail_bound(
            self.params, self.cutoff, gamma, active_per_ball,
            _ring_count(self.coords, self.cutoff),
        )

    def max_ball_occupancy(self) -> int:
        """Upper bound on the population of any radius-``R/2`` ball.

        A ball of radius ``R/2`` lies in the Chebyshev-1 neighbourhood
        of the cell holding its center on a :class:`CellIndex` of side
        ``R/2``, so the largest neighbourhood count over every cell of
        that grid — empty ones included, and those on the border cover
        centers outside it — bounds every ball's population.  Each
        count sums the ``3^d`` slices of the zero-padded count grid.
        """
        cells = CellIndex(self.coords, self.cutoff / 2.0)
        counts = np.pad(np.bincount(
            cells.cell_of, minlength=cells.n_cells
        ).reshape(cells.shape), 1)
        total = sum(
            counts[tuple(slice(o, o + s) for o, s in zip(at, cells.shape))]
            for at in product(range(3), repeat=cells.dim)
        )
        return int(total.max())

    # -- near-field scan ------------------------------------------------
    def _gather_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated CSR entries of ``rows`` in given row order.

        :returns: ``(listeners, values, senders)`` — for symmetric
            gains the CSR row of sender ``t`` *is* its column, so
            gathering rows of the transmitter set enumerates each
            transmitter's contribution at every near listener, rows in
            ascending ``t`` (the fold order of the exact contract).
        """
        pos, lengths = csr_row_positions(self.indptr, rows)
        if pos.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0), empty
        listeners = self.indices[pos].astype(np.int64, copy=False)
        values = self.data[pos]
        senders = np.repeat(rows, lengths)
        return listeners, values, senders

    def _near_scan(
        self, transmitters: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact near-field totals and strongest near sender.

        :returns: ``(total, best_gain, best_sender)`` per listener;
            ``total`` folds gains in ascending sender order (bincount
            walks the concatenated rows sequentially), matching the
            dense einsum contraction bit for bit; ties in ``best_gain``
            resolve to the lowest sender index like dense argmax.  The
            compiled kernel walks the same CSR rows in the same order,
            so its bytes are identical (DESIGN.md §2.3).
        """
        if _kernels.COMPILED:
            return _kernels.csr_near_scan(
                self.indptr, self.indices, self.data,
                np.asarray(transmitters, dtype=np.int64), self.n,
            )
        listeners, values, senders = self._gather_rows(transmitters)
        return _strongest(listeners, values, senders, self.n, self.n)

    # -- resolvers -------------------------------------------------------
    def resolve_reception_batch(
        self,
        tx_mask: np.ndarray,
        noise: float,
        beta: float,
    ) -> np.ndarray:
        """Batched Eq. (1) resolution with the certified truncation fold.

        Mirrors :func:`repro.sinr.reception.resolve_reception_batch`:
        returns the ``(B, n)`` heard-sender array (a block of rounds
        arrives as its rows).  The SINR denominator is ``N + I_near +
        I_far_estimate + band``; with the far set empty it degenerates
        to the dense expression exactly, a zero denominator included
        (the SINR reads ``+inf``: noise plus interference fell below
        the signal's rounding, and the listener hears).  Rows are
        resolved in slabs of :meth:`_far_slab_rows`, one
        :meth:`far_band` call each; a row's bits do not depend on the
        slab it rides in.
        """
        tx_mask = np.asarray(tx_mask, dtype=bool)
        if tx_mask.ndim != 2 or tx_mask.shape[1] != self.n:
            raise ValueError(
                f"tx_mask must be (B, {self.n}), got {tx_mask.shape}"
            )
        B = tx_mask.shape[0]
        heard = np.full((B, self.n), NO_SENDER, dtype=np.intp)
        far_rows = not self.far_empty and tx_mask.any()
        # Row slabs: one transform per slab, so the slab's far arrays
        # stay within the element budget however many rows (rounds x
        # replications) a call carries.
        slab = self._far_slab_rows() if far_rows else B
        with np.errstate(divide="ignore"):
            for lo in range(0, B, slab):
                rows = tx_mask[lo:lo + slab]
                if far_rows:
                    far, band = self.far_band(rows)
                for b in range(rows.shape[0]):
                    transmitters = np.flatnonzero(rows[b])
                    if transmitters.size == 0:
                        continue
                    total, best_gain, best_sender = self._near_scan(
                        transmitters
                    )
                    denom = noise + total - best_gain
                    if far_rows:
                        denom = denom + far[b] + band[b]
                    sinr = np.divide(best_gain, denom)
                    ok = (best_sender < self.n) & (sinr >= beta) & ~rows[b]
                    heard[lo + b, ok] = best_sender[ok]
        return heard

    def _far_pairs(
        self,
        owner: np.ndarray,
        listeners: np.ndarray,
        tx: np.ndarray,
        first: np.ndarray,
        size: np.ndarray,
        widths: list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Far estimate and error at ``(set, listener)`` pairs by gather.

        Evaluates the **same certified sums** as :meth:`far_band` —
        ``est[x] = sum_c K[(x - c) mod padded]`` over a set's
        transmitter cells ``c`` — by gathering the spatial kernel table
        instead of transforming the whole cell grid, so the cost scales
        with the queries, not with the deployment.  Set ``s`` owns the
        ascending transmitters ``tx[first[s]:first[s] + size[s]]``;
        ``widths`` lists the distinct non-zero set sizes.

        The two evaluations are different floating-point roundings of
        one exact quantity; both are covered by the certified band
        (:data:`FFT_SLACK_REL` was sized for the transforms' error,
        which dominates the short direct sum's).  Rows are summed in
        groups of one set size ``t`` as C-contiguous ``(rows, t)``
        arrays, and numpy sums such a row from its own values alone
        (sequentially below 8 entries, with 8 partial sums above), so
        each pair's bits do not depend on what else shares the call.
        """
        self._far_kernels()
        K, E, (cell_key,) = self._far_spatial
        cell_of = self.cells.cell_of
        lkey = cell_key[cell_of[listeners]] + K.size // 2
        tkey = cell_key[cell_of[tx]]
        est = np.empty(owner.size)
        err = np.empty(owner.size)
        for t in widths:
            rows = (
                slice(None) if len(widths) == 1
                else np.flatnonzero(size[owner] == t)
            )
            flat = lkey[rows][:, None] - tkey[
                first[owner[rows]][:, None] + np.arange(t)
            ]
            est[rows] = K.take(flat).sum(axis=1)
            err[rows] = E.take(flat).sum(axis=1)
        return np.maximum(est, 0.0), np.maximum(err, 0.0)

    def _resolve_chunk(
        self,
        keys: np.ndarray,
        tx: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        first: np.ndarray,
        size: np.ndarray,
        widths: list,
        noise: float,
        beta: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Receptions of a chunk of sets in one pass.

        ``keys`` are the sorted ``set * n + transmitter`` keys of the
        run, ``tx`` their transmitters and ``starts``/``lengths`` the
        transmitters' CSR rows.  A row lists its transmitter's near
        listeners, so one gather keyed by ``(set, listener)``
        enumerates every candidate listener of every set.  A stable
        sort groups the keys without reordering a pair's entries, so
        ``bincount`` still folds each pair's gains in ascending sender
        order — the order of :meth:`_near_scan` — and max/min are exact.

        :returns: ``(set, receiver, sender)`` per accepted reception,
            sorted by set, then receiver.
        """
        pos = _row_positions(starts, lengths)
        pair = np.repeat(keys - tx, lengths) + self.indices[pos]
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        new = _run_starts(pair)
        pairs = pair[new]
        total, best_gain, best_sender = _strongest(
            np.cumsum(new) - 1, self.data[pos[order]],
            np.repeat(tx, lengths)[order], pairs.size, self.n,
        )
        denom = noise + total - best_gain
        at = np.minimum(np.searchsorted(keys, pairs), keys.size - 1)
        # The far terms only add to the denominator, so a pair the near
        # field alone rejects stays rejected (rounding is monotone and
        # ``denom >= 0`` for ``noise >= 0``): the far gather needs to
        # cover only the pairs that pass here.
        with np.errstate(divide="ignore"):
            ok = np.flatnonzero(
                (np.divide(best_gain, denom) >= beta) & (keys[at] != pairs)
            )
        owner, listeners = np.divmod(pairs[ok], self.n)
        best_sender = best_sender[ok]
        if not self.far_empty and ok.size:
            est, band = _with_band(
                *self._far_pairs(owner, listeners, tx, first, size, widths)
            )
            with np.errstate(divide="ignore"):
                ok = np.flatnonzero(
                    np.divide(best_gain[ok], denom[ok] + est + band) >= beta
                )
            owner, listeners, best_sender = (
                owner[ok], listeners[ok], best_sender[ok]
            )
        return owner, listeners, best_sender

    def resolve_reception_sets(
        self,
        transmitter_sets,
        noise: float,
        beta: float,
        compact: bool = False,
    ) -> list:
        """Heterogeneous-set resolution restricted to reachable listeners.

        The serving path of
        :func:`repro.sinr.reception.resolve_reception_many`, one
        vectorized pass over every set of the call (DESIGN.md §8.2):
        one sort dedupes all sets, one gather of the transmitters' CSR
        rows keyed by ``(set, listener)`` reaches the **candidate
        listeners** — stations with at least one transmitter inside
        the cutoff — one :func:`_strongest` fold decides them against
        the near field, and the far term is one gather over the
        candidates that pass (:meth:`_far_pairs`).  Every other station
        provably hears nothing (it has no near sender at all), so
        skipping it cannot change a bit.  Sets are processed in chunks
        whose gathered elements stay within
        :data:`SERVING_CHUNK_ELEMENTS`, so a long call's temporaries
        stay at a few MB.  ``noise`` must be ``>= 0``.

        **Serving contract.** Each returned row depends only on its own
        (set, noise, beta) — never on what else shares the call — so a
        coalesced batch is bitwise identical to the same queries served
        one at a time.  Relative to :meth:`resolve_reception_batch` of
        the same set alone, the near fold and every decision guard are
        bitwise identical; on far-active deployments the far/band
        denominator terms are a different (tighter) rounding of the
        same certified sum, so decisions agree whenever the SINR margin
        exceeds ulp-scale rounding — and exactly, bit for bit, whenever
        the far set is empty.  The fold is numpy's on every platform;
        the compiled near scan matches its bytes (DESIGN.md §2.3).

        ``compact=True`` returns each row as a ``(receivers, senders)``
        index-array pair instead of materializing the length-``n`` row —
        exactly the row's non-:data:`NO_SENDER` entries, decided by the
        same arithmetic (the query service serves replies from this
        projection, so a burst of queries never allocates ``(B, n)``).

        :returns: one length-``n`` heard-sender array per input set, or
            one ``(receivers, senders)`` pair per set if ``compact``.
        """
        n = self.n
        arrays = []
        for t in transmitter_sets:
            # Each set's dtype on its own (concatenated, a boolean or
            # fractional set would take its neighbours' dtype); the
            # range check runs once, over all sets, below.
            t = np.asarray(t).ravel()
            if t.dtype.kind not in "iu":
                _checked_stations(n, t, "transmitter")  # unless empty
            arrays.append(t.astype(np.intp, copy=False))
        B = len(arrays)
        empty = np.empty(0, dtype=np.intp)
        if compact:
            out = [(empty, empty)] * B
        else:
            block = np.full((B, n), NO_SENDER, dtype=np.intp)
            out = list(block)
        if B == 0:
            return out
        transmitters = _checked_stations(
            n, np.concatenate(arrays), "transmitter"
        )
        if not noise >= 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        keys = np.repeat(
            np.arange(0, B * n, n, dtype=np.int64), [a.size for a in arrays]
        ) + transmitters
        keys.sort()
        keys = keys[_run_starts(keys)]
        owner, tx = np.divmod(keys, n)
        size = np.bincount(owner, minlength=B)
        first = np.zeros(B + 1, dtype=np.int64)
        np.cumsum(size, out=first[1:])
        starts = self.indptr[tx]
        lengths = self.indptr[tx + 1] - starts
        # Elements a set gathers: its near entries, then at most as many
        # far rows of its width.  ``spent[s]``: the sets before ``s``.
        spent = np.zeros(keys.size + 1, dtype=np.int64)
        np.cumsum(lengths * size[owner], out=spent[1:])
        spent = spent[first]
        lo = 0
        while lo < B:
            hi = max(lo + 1, int(np.searchsorted(
                spent, spent[lo] + SERVING_CHUNK_ELEMENTS, side="right"
            )) - 1)
            a, b = first[lo], first[hi]
            owner_ok, receivers, senders = self._resolve_chunk(
                keys[a:b], tx[a:b], starts[a:b], lengths[a:b], first - a,
                size, sorted(set(size[lo:hi].tolist()) - {0}), noise, beta,
            )
            if compact:
                cut = np.searchsorted(
                    owner_ok, np.arange(lo, hi + 1)
                ).tolist()
                for row, i, j in zip(range(lo, hi), cut, cut[1:]):
                    if j > i:
                        out[row] = (receivers[i:j], senders[i:j])
            else:
                block[owner_ok, receivers] = senders
            lo = hi
        return out

    def resolve_at(
        self,
        transmitters: np.ndarray,
        listeners: np.ndarray,
        noise: float,
        beta: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Heard sender and SINR of one round, at ``listeners`` only.

        ``sinr`` is the certified lower bound on the strongest near
        transmitter's SINR, ``signal / ((noise + total) - signal + far
        + band)`` (0 where no near transmitter reaches the listener,
        ``+inf`` where noise plus interference fell below the signal's
        rounding, a "heard" for every ``beta >= 1``) —
        bitwise the dense :func:`repro.sinr.reception.resolve_at` value
        when the cutoff covers the deployment.  ``heard`` keeps the
        contract of :meth:`resolve_reception_sets`: it equals
        ``resolve_reception(...)[listeners]`` whenever the SINR margin
        exceeds ulp-scale rounding, and bit for bit whenever the far
        set is empty.  Any listener array works (unsorted, repeated,
        transmitters included), and a repeated transmitter index names
        one transmitter.  The cost is set by the listeners' CSR rows
        and the listener x transmitter pairs, not by ``n`` or the cell
        grid:

        * the near fold reads each *listener's* row instead of each
          transmitter's.  Gains are bitwise symmetric and rows list
          senders in ascending order, so ``bincount`` adds the same
          values in the same order as :meth:`_near_scan`; max and min
          are exact, so the strongest sender matches too (either
          kernel — they are bitwise equal, DESIGN.md §2.3);
        * the far term is the serving path's per-pair gather
          (:meth:`_far_pairs`) over the ascending transmitters: the
          certified sum of :meth:`far_band`, rounded differently inside
          the same band.  Listeners go in chunks of at most
          :data:`SERVING_CHUNK_ELEMENTS` pairs, and each row is summed
          from its own values, so a listener's bits do not depend on
          which other listeners share the call.
        """
        transmitters = np.asarray(transmitters, dtype=np.int64)
        listeners = np.asarray(listeners, dtype=np.int64)
        m = listeners.size
        heard = np.full(m, NO_SENDER, dtype=np.intp)
        if transmitters.size == 0:
            return heard, np.zeros(m)
        is_tx = np.zeros(self.n, dtype=bool)
        is_tx[transmitters] = True
        pos, lengths = csr_row_positions(self.indptr, listeners)
        senders = self.indices[pos].astype(np.int64, copy=False)
        live = is_tx[senders]
        total, best_gain, best_sender = _strongest(
            np.repeat(np.arange(m), lengths)[live], self.data[pos[live]],
            senders[live], m, self.n,
        )
        denom = noise + total - best_gain
        if not self.far_empty:
            tx = np.flatnonzero(is_tx)
            t = tx.size
            rows = max(1, SERVING_CHUNK_ELEMENTS // t)
            far = np.empty((2, m))
            for lo in range(0, m, rows):
                chunk = listeners[lo:lo + rows]
                far[:, lo:lo + rows] = self._far_pairs(
                    np.zeros(chunk.size, dtype=np.int64), chunk, tx,
                    np.zeros(1, dtype=np.int64), np.array([t]), [t],
                )
            est, band = _with_band(*far)
            denom = denom + est + band
        with np.errstate(divide="ignore"):
            sinr = np.divide(best_gain, denom)
        ok = (best_sender < self.n) & (sinr >= beta) & ~is_tx[listeners]
        heard[ok] = best_sender[ok]
        return heard, sinr

    # -- geometry queries ------------------------------------------------
    def adjacency_within(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR ``(indptr, indices)`` of the pairs within ``radius``.

        The near-field CSR restricted to distances ``<= radius``: it is
        complete for any radius up to the cutoff, and its rows keep
        their ascending sender order.  Built once per radius from one
        pass of distance blocks (:meth:`_dist_blocks`) and memoized on
        this backend, so every MAC session and graph query over one
        deployment shares it.  A fresh build memoizes the
        communication radius from the distances it computes anyway, so
        the graph queries never pay a distance pass; a backend at new
        positions (:meth:`advanced`) starts with an empty memo.
        """
        if radius > self.cutoff:
            raise GeometryError(
                f"pair query radius {radius} exceeds the cutoff "
                f"{self.cutoff}; the near field is incomplete beyond it"
            )
        key = float(radius)
        adjacency = self._adjacency.get(key)
        if adjacency is None:
            adjacency = self._kept_csr([
                np.flatnonzero(dist <= radius) + entries.start
                for entries, dist in self._dist_blocks()
            ])
            self._adjacency[key] = adjacency
        return adjacency

    def describe(self) -> dict:
        """Summary stats used by benches and experiment reports."""
        nnz = int(self.indices.size)
        return {
            "backend": "sparse",
            "n": self.n,
            "cutoff": self.cutoff,
            "cells": self.cells.n_cells,
            "grid_shape": self.cells.shape,
            "nnz": nnz,
            "avg_row": nnz / max(1, self.n),
            "far_empty": self.far_empty,
            "nbytes": self.nbytes(),
        }

    def __repr__(self) -> str:
        return (
            f"SparseGainBackend(n={self.n}, cutoff={self.cutoff}, "
            f"nnz={self.indices.size}, far_empty={self.far_empty})"
        )


def _unsupported(
    coords: np.ndarray, params: SINRParameters, channel, cutoff: float
) -> Optional[str]:
    """Why the sparse backend cannot serve this deployment, or ``None``.

    It cannot when the cutoff is below the broadcast range (NaN
    included), when the channel is not radial, or when the cell grid
    at ``cutoff`` spans more cells than the per-station budget.
    """
    if not cutoff >= params.broadcast_range:  # NaN fails too
        return (
            f"sparse cutoff {cutoff} is below the broadcast range "
            f"{params.broadcast_range}; far transmitters could then be "
            "receivable and truncation would not be certifiable"
        )
    if channel.radial_gain(np.asarray([1.0]), params) is None:
        return (
            f"channel {channel.identity()[0]!r} is not radial; the "
            "sparse backend needs gains that depend on distance only "
            "(use backend='dense' for this channel)"
        )
    n = coords.shape[0]
    n_cells = math.prod(_grid(coords, cutoff / CELLS_PER_CUTOFF)[1])
    if n_cells > max(MIN_CELL_BUDGET, MAX_CELLS_PER_STATION * n):
        return (
            f"deployment spans {n_cells} cells for {n} stations at "
            f"cutoff {cutoff}; the cell grid would dominate memory "
            "(raise the cutoff or use the dense backend)"
        )
    return None


def sparse_supported(
    coords: np.ndarray,
    params: SINRParameters,
    metric,
    channel,
    cutoff: Optional[float] = None,
) -> bool:
    """Whether the sparse backend can serve this deployment.

    Requires coordinate geometry (Euclidean metric) and no reason from
    the check :class:`SparseGainBackend` itself raises on — a radial
    channel, a cutoff at least the broadcast range and a cell grid
    within the per-station cell budget — evaluated at the *same* cutoff
    the backend would be built with, so ``"auto"`` never selects a
    backend that then fails to construct.
    """
    from repro.geometry.metric import EuclideanMetric

    if cutoff is None:
        cutoff = default_cutoff(params)
    return isinstance(metric, EuclideanMetric) and _unsupported(
        _points(coords), params, channel, float(cutoff)
    ) is None
