"""Round-level reception resolution.

Given the set of stations transmitting in a round, decide — for every
station — whether it receives a message and from whom, per Eq. (1).

With ``beta >= 1`` at most one transmitter can clear the SINR threshold at
a given listener, and if any does it is the one with the strongest received
power (larger signal and smaller residual interference).  The resolver
therefore tests only the strongest transmitter per listener, in one
vectorized pass.

There is one SINR arithmetic, the batched fold of
:func:`resolve_reception_batch`; the single-round resolvers
(:func:`resolve_reception`, :func:`resolve_at`) are its ``B = 1`` row.
"""

from __future__ import annotations

import threading
import weakref
from typing import Sequence

import numpy as np

from repro import kernels as _kernels

#: Sentinel in the sender array for "heard nothing this round".
NO_SENDER: int = -1

#: Element budget of one slab of :func:`resolve_reception_batch`'s
#: numpy path: the ``(rows, k, n)`` ranking-position tensor a slab
#: builds — ``rows`` whole rounds of ``B`` rows, ``k`` the widest
#: per-round transmitter union among them — holds at most about this
#: many elements.  A round that alone exceeds the budget is split into
#: row slabs.  Set by measurement (2-vCPU Xeon, 2 MB L2 per core,
#: numpy kernels; fastest of 15 interleaved runs): on the quick-scale
#: coloring blocks, budgets from ``2**17`` to ``2**19`` took 0.45-0.54x
#: the time of per-round calls; on a 64-replication sweep, whose rounds
#: each fill about ``2**18`` elements, grouping them cost 1.1-1.2x at
#: ``2**18`` and 1.3-1.4x at ``2**19``.  The dense twin of
#: :data:`repro.sinr.sparse.SERVING_CHUNK_ELEMENTS`; slabbing is
#: bitwise neutral per row.
SLAB_ELEMENTS = 1 << 18

#: Guards :data:`_RANK_CACHE`.  The service coalescer drives the
#: resolvers from multiple in-flight requests on executor threads, so
#: the refresh-recency ``pop``/re-insert dance and the eviction loop
#: must be atomic; the (idempotent) ranking computation happens outside
#: the lock, so contention is a dictionary operation, not a sort.
#: Reentrant because the ``_RANK_CACHE`` weakref finalizers also take
#: it, and a garbage-collection pass can run them on a thread that
#: already holds the lock (e.g. while a dict resize inside the locked
#: region allocates).
_CACHE_LOCK = threading.RLock()

#: Per-gain-matrix listener rankings (see :func:`_listener_ranking`).
_RANK_CACHE: dict[int, tuple] = {}
_RANK_CACHE_LIMIT = 32

#: Sentinel ORed onto ranking positions of silent stations: a power of
#: two above every valid position, so ``pos | sentinel`` is monotone in
#: ``pos`` and always sorts after every transmitter.
_SENTINEL_16 = 2 ** 14
_SENTINEL_32 = 2 ** 30


def _listener_ranking(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each listener's senders ordered by (gain desc, index asc).

    :returns: ``(rank, position)`` — ``rank[u, j]`` is listener ``u``'s
        ``j``-th strongest sender, ``position[u, v]`` its inverse.  Both
        derive from the gain matrix alone, so they are computed once per
        matrix and cached (keyed by identity; gain matrices are built
        once per `Network` and reused for every round).
    """
    key = id(gain)
    with _CACHE_LOCK:
        entry = _RANK_CACHE.get(key)
        if entry is not None and entry[0]() is gain:
            # Refresh recency: a hit moves the entry to the newest slot so
            # the bound below evicts the matrices that stopped being used,
            # never a matrix in active round-loop service.
            _RANK_CACHE[key] = _RANK_CACHE.pop(key)
            return entry[1], entry[2]
        _RANK_CACHE.pop(key, None)  # id reuse after a matrix was collected
    n = gain.shape[0]
    # Stable sort: equal gains rank by ascending sender index, matching
    # argmax's first-occurrence tie-break.  Positions are kept in the
    # narrowest dtype that fits n plus the sentinel — the ``(B, n, k)``
    # position array is the round loop's main memory traffic.  Computed
    # outside the lock: two threads racing on the same matrix both build
    # the identical ranking and the last insert wins, which is cheaper
    # than serializing every first-touch sort behind one lock.
    dtype = np.int16 if n < _SENTINEL_16 else np.int32
    rank = np.argsort(-gain, axis=0, kind="stable").T.astype(dtype)
    position = np.empty_like(rank)
    position[np.arange(n)[:, None], rank] = np.arange(n, dtype=dtype)
    with _CACHE_LOCK:
        while len(_RANK_CACHE) >= _RANK_CACHE_LIMIT:
            # Bound the cache by evicting the least recently used entry
            # (the insertion-ordered dict front, given the hit refresh
            # above).  The weakref finalizers below prune dead matrices
            # eagerly; this bound only triggers when >= 32 distinct
            # matrices are alive at once, and must not wipe rankings still
            # in service (evicting an entry drops its weakref, so the dead
            # finalizer is a no-op, not a leak).
            _RANK_CACHE.pop(next(iter(_RANK_CACHE)))
        _RANK_CACHE[key] = (
            weakref.ref(
                gain, lambda _ref, _key=key: _pop_rank_entry(_key)
            ),
            rank,
            position,
        )
    return rank, position


def _pop_rank_entry(key: int) -> None:
    """Weakref finalizer target: drop a dead matrix's ranking entry."""
    with _CACHE_LOCK:
        _RANK_CACHE.pop(key, None)


def _strongest_transmitters(
    gain: np.ndarray, tx_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strongest-transmitter position/gain and total power, per listener.

    ``tx_mask`` is ``(R, B, n)``: ``R`` rounds of ``B`` rows each.  Work
    is restricted to each round's union of transmitters (rounds are
    sparse under the protocols' Theta(1/mass) probabilities; a union
    across rounds would approach ``n``), and each row's arithmetic is
    bitwise independent of the batch it rides in — the exact-equality
    contract of DESIGN.md §6.2:

    * the interference total is an in-order ``einsum`` contraction along
      ascending station index, for which absent transmitters are exact
      ``+ 0.0`` no-ops — unlike a pairwise ``sum(axis=...)``, whose
      regrouping could shift the last ulp;
    * the strongest transmitter is the one earliest in the listener's
      precomputed gain ranking, found as an integer ``min`` over ranking
      positions with an ``n`` sentinel at non-transmitters — integer
      ``min`` is exact, so sentinel padding is layout-neutral.

    :returns: ``(strongest, strongest_gain, total)``, all ``(R, B, n)``.
    """
    R, B, n = tx_mask.shape
    in_round = tx_mask.any(axis=1)
    if R == 1:
        # The per-round loops' call: a flat gather costs a fifth of the
        # sort and gather a block needs.
        cols = np.flatnonzero(in_round)[None]
    else:
        # cols[r]: round r's transmitters in ascending index (a stable
        # sort puts them first), padded to the widest round's union
        # with stations silent in every row of round r — exact zeros
        # and sentinels below.
        k = int(np.count_nonzero(in_round, axis=1).max())
        cols = np.argsort(~in_round, axis=1, kind="stable")[:, :k]
    if cols.size == 0:
        zeros = np.zeros((R, B, n))
        return np.zeros((R, B, n), dtype=np.intp), zeros, zeros
    tx_sub = (
        tx_mask[:, :, cols[0]] if R == 1
        else np.take_along_axis(tx_mask, cols[:, None, :], axis=2)
    )
    rank, position = _listener_ranking(gain)
    total = np.einsum(
        "rbv,rvu->rbu", tx_sub.astype(float), gain[cols], optimize=False
    )
    dtype = position.dtype
    sentinel = dtype.type(
        _SENTINEL_16 if dtype == np.int16 else _SENTINEL_32
    )
    # masked[r, b, j, u]: ranking position of sender cols[r, j] at
    # listener u, pushed past every real position when that sender is
    # silent in row b.  An OR with a high bit is monotone in the
    # position, so the min still selects the transmitter earliest in
    # the listener's ranking.
    masked_pos = (
        position[:, cols].transpose(1, 2, 0)[:, None]
        | ((~tx_sub)[..., None] * sentinel)
    )
    best_pos = masked_pos.min(axis=2)
    valid = best_pos < sentinel
    listeners = np.arange(n)
    strongest = rank[
        listeners, np.where(valid, best_pos, 0)
    ].astype(np.intp)
    strongest_gain = np.where(valid, gain[strongest, listeners], 0.0)
    return strongest, strongest_gain, total


def _slabs(tx_mask: np.ndarray) -> list:
    """Index pairs ``(rounds, rows)`` splitting ``(R, B, n)`` into slabs.

    The compiled fold never builds the position tensor, so it takes
    the block whole.  The numpy fold takes whole rounds while their
    ``(rows, k, n)`` tensor fits :data:`SLAB_ELEMENTS`, ``k`` the widest
    round's transmitter union; a round over the budget alone is split
    into row slabs, each with its own union.
    """
    R, B, n = tx_mask.shape
    whole = [(slice(None), slice(None))]
    if _kernels.COMPILED or R * B * n * n <= SLAB_ELEMENTS:
        return whole
    k = int(np.count_nonzero(tx_mask.any(axis=1), axis=1).max())
    per_round = B * k * n
    if R * per_round <= SLAB_ELEMENTS:
        return whole
    if per_round <= SLAB_ELEMENTS:
        step = SLAB_ELEMENTS // per_round
        return [
            (slice(lo, lo + step), slice(None)) for lo in range(0, R, step)
        ]
    step = max(1, SLAB_ELEMENTS // (k * n))
    return [
        (slice(r, r + 1), slice(lo, lo + step))
        for r in range(R) for lo in range(0, B, step)
    ]


def resolve_reception_batch(
    gain,
    tx_mask: np.ndarray,
    noise: float,
    beta: float,
) -> np.ndarray:
    """Eq. (1) for independent rows, a ``(B, n)`` or ``(R, B, n)`` mask.

    The one dense SINR arithmetic of the repo: per listener, gains fold
    over the transmitters in ascending station index, the strongest
    transmitter is the first maximum along that order (equal gains
    break toward the lowest index), and its SINR is ``signal / ((noise
    + total) - signal)``.  :func:`resolve_reception` and
    :func:`resolve_at` are its ``B = 1`` row.  A ``(R, B, n)`` mask is
    ``R`` rounds of ``B`` rows (a block of consecutive rounds of one
    run); the numpy fold works on each round's own union of
    transmitters.  A row's result is bitwise independent of the batch,
    the round and the slab slicing bounded by :data:`SLAB_ELEMENTS` it
    rides in, and of which implementation serves it — the contract the
    sweep engine builds on (DESIGN.md §6.2, §2.3).

    ``gain`` may be a :class:`~repro.sinr.sparse.SparseGainBackend`
    instead of a dense matrix: the per-listener CSR scan replaces the
    ranking gather, the rounds ride as ``R * B`` rows of one call,
    reception decisions are conservative under the certified
    truncation band, and bitwise equal to the dense path whenever the
    backend's cutoff covers the deployment (DESIGN.md §2.2).

    :returns: integer array of heard senders, shaped like ``tx_mask``.
    """
    sparse = getattr(gain, "resolve_reception_batch", None)
    n = gain.shape[0] if sparse is None else gain.n
    tx_mask = np.asarray(tx_mask, dtype=bool)
    if tx_mask.ndim not in (2, 3) or tx_mask.shape[-1] != n:
        raise ValueError(
            f"tx_mask must be (B, {n}) or (R, B, {n}), got {tx_mask.shape}"
        )
    if not tx_mask.any():
        # Nobody transmits, nobody hears: the wake-up loops' most common
        # round, answered without a fold.
        return np.full(tx_mask.shape, NO_SENDER, dtype=np.intp)
    if sparse is not None:
        return sparse(tx_mask.reshape(-1, n), noise, beta).reshape(
            tx_mask.shape
        )
    rounds = tx_mask if tx_mask.ndim == 3 else tx_mask[None]
    slabs = _slabs(rounds)
    if len(slabs) == 1:
        heard = _resolve_slab(gain, rounds, noise, beta)[0]
    else:
        heard = np.empty(rounds.shape, dtype=np.intp)
        for slab in slabs:
            heard[slab] = _resolve_slab(gain, rounds[slab], noise, beta)[0]
    return heard if tx_mask.ndim == 3 else heard[0]


def _resolve_slab(
    gain: np.ndarray, tx_mask: np.ndarray, noise: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heard senders and strongest-transmitter SINR, both ``(R, B, n)``.

    Runs :func:`repro.kernels.dense_strongest` on the rows flattened
    (its loop skips each row's silent stations, so it needs no
    per-round union) or :func:`_strongest_transmitters`, whichever the
    platform picks — they return identical bytes (DESIGN.md §2.3).

    A SINR of ``+inf`` means noise plus interference fell below the
    signal's rounding: ``noise + total`` rounded to ``signal`` itself,
    as when one transmitter sits a hair's breadth from its listener.
    The true SINR is then beyond any threshold in use, and the decision
    is "heard" for every ``beta >= 1``.
    """
    if _kernels.COMPILED:
        n = tx_mask.shape[-1]
        strongest, strongest_gain, total = (
            a.reshape(tx_mask.shape)
            for a in _kernels.dense_strongest(gain, tx_mask.reshape(-1, n))
        )
    else:
        strongest, strongest_gain, total = _strongest_transmitters(
            gain, tx_mask
        )
    with np.errstate(divide="ignore"):
        sinr = strongest_gain / (noise + total - strongest_gain)
    heard = (sinr >= beta) & ~tx_mask & tx_mask.any(axis=-1, keepdims=True)
    return np.where(heard, strongest, NO_SENDER), sinr


def _checked_stations(n: int, stations, role: str) -> np.ndarray:
    """Station indices as an ``intp`` array, each an integer in ``[0, n)``.

    Every station-index input of the resolvers passes here.  Unchecked,
    a negative index would name a station counted from the end:
    ``[NO_SENDER]`` would make station ``n - 1`` transmit, or report
    station ``n - 1``'s reception under another name.  A boolean array
    is a mask, not indices (``[True, False, True]`` would name stations
    1, 0, 1), and a fractional index would be truncated to another
    station, so both are refused too; an empty input names no station
    whatever its dtype.  ``role`` (``"transmitter"`` or ``"listener"``)
    names the indices in the ``ValueError``.
    """
    stations = np.asarray(stations)
    if stations.size and not (
        stations.dtype.kind in "iu"  # signed or unsigned integers
        and 0 <= stations.min() <= stations.max() < n
    ):
        raise ValueError(f"{role} indices must be integers in [0, {n})")
    return stations.astype(np.intp, copy=False)


def _station_count(gain) -> int:
    """``n`` of a dense gain matrix or a sparse backend."""
    return gain.shape[0] if isinstance(gain, np.ndarray) else gain.n


def _round_mask(gain, transmitters) -> np.ndarray:
    """The ``(1, n)`` mask of one round (a repeated index sets one bit)."""
    n = _station_count(gain)
    mask = np.zeros((1, n), dtype=bool)
    mask[0, _checked_stations(n, transmitters, "transmitter")] = True
    return mask


def resolve_reception_many(
    gain,
    transmitter_sets: Sequence[np.ndarray],
    noise: float,
    beta: float,
    compact: bool = False,
) -> list:
    """Resolve several *heterogeneous* transmitter sets in one batched call.

    The public entry the query service's batch coalescer is built on
    (DESIGN.md §8): each element of ``transmitter_sets`` is an
    independent round's transmitter index array (sets may differ in
    size, overlap, or be empty), folded into one ``(B, n)`` mask and
    served by a single :func:`resolve_reception_batch` invocation.

    Row ``i`` of the result is **bitwise identical** to calling this
    function with ``[transmitter_sets[i]]`` alone — the exact-zero-
    neutral fold contract of DESIGN.md §6.2 makes every row independent
    of the batch it rides in, for the dense path and the sparse backend
    alike.  That is the coalescing-equivalence guarantee: a server may
    fold concurrently arriving queries into one kernel call and answer
    each client exactly what a dedicated call would have.  On a dense
    matrix that is also :func:`resolve_reception` of the set.

    :param gain: ``(n, n)`` gain matrix or a
        :class:`~repro.sinr.sparse.SparseGainBackend`.
    :param transmitter_sets: sequence of transmitter index arrays, one
        per query; anything but integers in ``[0, n)`` (a boolean mask
        or a fractional index included) raises ``ValueError``.
    :param noise: ambient noise ``N``.
    :param beta: SINR threshold.
    :param compact: return each row as a ``(receivers, senders)``
        index-array pair — exactly the row's non-:data:`NO_SENDER`
        entries, decided by the same arithmetic — instead of the
        length-``n`` array.  The query service's reply shape: a burst
        of ``B`` queries then never materializes ``(B, n)``.
    :returns: one length-``n`` heard-sender array per input set, in
        order (or one ``(receivers, senders)`` pair per set if
        ``compact``).
    """
    restricted = getattr(gain, "resolve_reception_sets", None)
    if restricted is not None:
        # Sparse backend: resolve only at listeners reachable from each
        # set — far cheaper for the small heterogeneous sets a query
        # service serves (see that method for its equivalence contract).
        return restricted(transmitter_sets, noise, beta, compact=compact)
    n = gain.shape[0]
    sets = [_checked_stations(n, t, "transmitter") for t in transmitter_sets]
    if not sets:
        return []
    tx_mask = np.zeros((len(sets), n), dtype=bool)
    for b, transmitters in enumerate(sets):
        tx_mask[b, transmitters] = True
    heard = resolve_reception_batch(gain, tx_mask, noise, beta)
    if compact:
        out = []
        for b in range(len(sets)):
            receivers = np.flatnonzero(heard[b] != NO_SENDER)
            out.append((receivers, heard[b][receivers]))
        return out
    return [heard[b] for b in range(len(sets))]


def resolve_reception(
    gain,
    transmitters: np.ndarray,
    noise: float,
    beta: float,
) -> np.ndarray:
    """Sender heard by each station this round (Eq. (1)).

    A station ``u`` receives from ``v`` iff ``v`` transmits, ``u`` does
    not, and ``SINR(v, u, T) >= beta``.  Transmitters never receive
    (half-duplex, Sect. 1.1 "a station can either act as a sender or as a
    receiver during a round").  This is the ``B = 1`` row of
    :func:`resolve_reception_batch` — the same arithmetic, on a dense
    matrix or a :class:`~repro.sinr.sparse.SparseGainBackend`.
    ``transmitters`` is a set of station indices, so a repeated index
    names one transmitter; anything but integers in ``[0, n)`` (a
    boolean mask or a fractional index included) raises
    ``ValueError``.

    :returns: length-``n`` integer array: the sender index heard by each
        station, or :data:`NO_SENDER`.
    """
    return resolve_reception_batch(
        gain, _round_mask(gain, transmitters), noise, beta
    )[0]


def resolve_at(
    gain,
    transmitters: np.ndarray,
    listeners: np.ndarray,
    noise: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Heard sender and SINR of one round, at ``listeners`` only.

    ``sinr`` is the SINR of each listener's strongest transmitter as the
    same ``B = 1`` fold computes it (0 where no transmitter reaches the
    listener, ``+inf`` where noise plus interference fell below the
    signal's rounding, a "heard" for every ``beta >= 1``);
    ``listeners`` may be unsorted, repeat stations or name
    transmitters, and a repeated transmitter index names one
    transmitter.  A listener or transmitter index that is not an
    integer in ``[0, n)`` (a boolean mask included) raises
    ``ValueError`` on either backend.  A dense matrix
    resolves the whole round with the one batched fold
    (:func:`resolve_reception_batch`) and gathers, so ``heard`` is
    ``resolve_reception(...)[listeners]`` bit for bit.  The traffic
    engine asks only about its packets' next hops, so on a
    :class:`~repro.sinr.sparse.SparseGainBackend` the cost follows
    those stations' neighbourhoods and the listener x transmitter
    pairs of the far term instead of ``n`` or the cell grid
    (:meth:`~repro.sinr.sparse.SparseGainBackend.resolve_at`); there
    ``heard`` equals ``resolve_reception(...)[listeners]`` whenever the
    SINR margin exceeds ulp-scale rounding, and bit for bit whenever
    the far set is empty.

    :returns: ``(heard, sinr)``, both aligned with ``listeners``.
    """
    n = _station_count(gain)
    listeners = _checked_stations(n, listeners, "listener")
    sparse = getattr(gain, "resolve_at", None)
    if sparse is not None:
        return sparse(
            _checked_stations(n, transmitters, "transmitter"), listeners,
            noise, beta,
        )
    heard, sinr = _resolve_slab(
        gain, _round_mask(gain, transmitters)[None], noise, beta
    )
    return heard[0, 0, listeners], sinr[0, 0, listeners]
