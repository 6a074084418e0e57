"""Compiled loop kernels (DESIGN.md §2.3).

The SINR resolvers and the per-round protocol state updates each have
two implementations: the vectorized numpy expressions (the reference
arithmetic everything else in the repo is validated against) and the
explicit loops in this module, jitted by numba when it is installed.
The contract binding them is **bitwise equivalence** — not tolerance,
not "statistically indistinguishable": for any inputs, the compiled
path returns the exact bytes the numpy path returns.  That is what
lets :meth:`repro.network.network.Network.fingerprint` and
:func:`repro.fastsim.cache.point_key` deliberately *exclude* the kernel
choice — compiled and numpy runs share cache entries because they are
the same function (``tests/test_kernel_differential.py`` enforces it).

Why the loops can promise bitwise equality:

* the CSR near scan folds each listener's gains in ascending sender
  order, exactly the order ``np.bincount`` walks the concatenated rows
  in :meth:`repro.sinr.sparse.SparseGainBackend._near_scan`;
* the dense batched fold accumulates over transmitting stations in
  ascending index, matching the in-order ``einsum`` contraction of
  :func:`repro.sinr.reception._strongest_transmitters` — skipping a
  silent station is an exact ``+ 0.0`` no-op for the non-negative
  gains (DESIGN.md §6.2's zero-neutrality argument).  It is the only
  dense fold: single-round resolution is its ``B = 1`` row, so there
  is no separate single-round loop;
* strongest-sender selection uses a strict ``>`` over the same
  iteration order, reproducing the numpy paths' first-maximum /
  lowest-index tie-breaks;
* the state updates are pure boolean/integer algebra, where equality
  is structural.

Selection is by platform, not by caller: :data:`COMPILED` is set once,
at import, from whether numba imports, and every resolver and protocol
round loop reads it when called.  With numba, both the float folds and
the fused state updates run jitted; without it, the numpy expressions
run.  No argument, descriptor key or environment variable chooses — the
two implementations return identical bytes, so there is nothing for a
caller to choose between (:attr:`repro.network.network.Network.kernel_kind`
reports the choice).  Tests drive the loops on any machine by
monkeypatching :data:`COMPILED` to ``True``: without numba they then run
as un-jitted python, slow but bitwise identical, which is how the
differential suite checks the loop arithmetic everywhere.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the only branch on this box
    HAVE_NUMBA = False

    def _njit(**_kwargs):
        def _decorate(fn):
            return fn

        return _decorate

#: Whether the loop kernels below serve the resolvers and the per-round
#: state updates (DESIGN.md §2.3).  Set from the platform — numba
#: present means jitted loops, absent means numpy — and never by a
#: caller; callers read it at call time, so a test may monkeypatch it.
COMPILED: bool = HAVE_NUMBA


def _jit(fn):
    """Jit ``fn`` when numba is available; return it untouched otherwise.

    ``fastmath`` stays off — reassociation would break the bitwise
    contract — and ``cache=True`` persists the compilation across
    processes (the grid layer forks workers per run).
    """
    return _njit(cache=True, fastmath=False)(fn)


# ----------------------------------------------------------------------
# float-fold kernels (bitwise contracts argued in the module docstring)
# ----------------------------------------------------------------------
def _csr_near_scan_loop(
    indptr, indices, data, transmitters, total, best_gain, best_sender
):
    for i in range(transmitters.shape[0]):
        t = transmitters[i]
        for k in range(indptr[t], indptr[t + 1]):
            u = indices[k]
            v = data[k]
            total[u] += v
            if v > best_gain[u] or (
                v == best_gain[u] and t < best_sender[u]
            ):
                best_gain[u] = v
                best_sender[u] = t


_csr_near_scan_jit = _jit(_csr_near_scan_loop)


def csr_near_scan(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    transmitters: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled CSR near-field fold (the sparse backend's hot loop).

    Walks the CSR rows of ``transmitters`` in ascending-sender order —
    the exact order ``np.bincount`` folds the gathered rows in
    :meth:`repro.sinr.sparse.SparseGainBackend._near_scan` — and
    returns the same ``(total, best_gain, best_sender)`` triple bit for
    bit (``best_sender`` holds the ``n`` sentinel where no transmitter
    reaches the listener; ties resolve to the lowest sender index).
    """
    total = np.zeros(n)
    best_gain = np.zeros(n)
    best_sender = np.full(n, n, dtype=np.int64)
    if transmitters.size:
        _csr_near_scan_jit(
            indptr, indices, data,
            np.ascontiguousarray(transmitters, dtype=np.int64),
            total, best_gain, best_sender,
        )
    return total, best_gain, best_sender


def _dense_strongest_loop(
    gain, cols, tx_sub, total, best_gain, best_sender
):
    B = tx_sub.shape[0]
    m = cols.shape[0]
    n = gain.shape[0]
    for b in range(B):
        first = -1
        for j in range(m):
            if tx_sub[b, j]:
                first = j
                break
        if first < 0:
            continue
        t0 = cols[first]
        for u in range(n):
            g = gain[t0, u]
            total[b, u] += g
            best_gain[b, u] = g
            best_sender[b, u] = t0
        for j in range(first + 1, m):
            if not tx_sub[b, j]:
                continue
            t = cols[j]
            for u in range(n):
                g = gain[t, u]
                total[b, u] += g
                if g > best_gain[b, u]:
                    best_gain[b, u] = g
                    best_sender[b, u] = t


_dense_strongest_jit = _jit(_dense_strongest_loop)


def dense_strongest(
    gain: np.ndarray, tx_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled dense batched fold (strongest sender + total power).

    Mirrors :func:`repro.sinr.reception._strongest_transmitters`:
    interference totals accumulate over transmitting stations in
    ascending index (skipping silent stations — an exact ``+ 0.0``
    no-op on non-negative gains), and the strongest sender is the first
    maximum along that order, i.e. the lowest-indexed transmitter among
    equal gains — exactly the ranking cache's (gain desc, index asc)
    tie-break.  Rows without transmitters come back with sender ``-1``
    and zero gains, which the callers mask exactly like the numpy
    path's sentinels.

    :returns: ``(best_sender, best_gain, total)``, all ``(B, n)``.
    """
    B, n = tx_mask.shape
    cols = np.flatnonzero(tx_mask.any(axis=0))
    total = np.zeros((B, n))
    best_gain = np.zeros((B, n))
    best_sender = np.full((B, n), -1, dtype=np.intp)
    if cols.size:
        _dense_strongest_jit(
            gain, cols, np.ascontiguousarray(tx_mask[:, cols]),
            total, best_gain, best_sender,
        )
    return best_sender, best_gain, total


# ----------------------------------------------------------------------
# fused per-round state updates (integer/boolean algebra — exact)
# ----------------------------------------------------------------------
def _spread_update_loop(
    heard_from, informed, informed_round, running, round_no
):
    B, n = informed.shape
    for b in range(B):
        if not running[b]:
            continue
        for u in range(n):
            if heard_from[b, u] != -1 and not informed[b, u]:
                informed[b, u] = True
                informed_round[b, u] = round_no


_spread_update_jit = _jit(_spread_update_loop)


def spread_update(
    heard_from: np.ndarray,
    informed: np.ndarray,
    informed_round: np.ndarray,
    running: np.ndarray,
    round_no: int,
) -> None:
    """Fused dissemination-round state update (in place).

    One pass replacing the numpy expression in
    :func:`repro.fastsim.engine.dissemination_loop_batch` — mark every
    running replication's newly-hearing stations informed and stamp the
    round — without materializing the ``(B, n)`` ``newly`` temporary.
    """
    _spread_update_jit(heard_from, informed, informed_round, running, round_no)


def _wake_update_loop(
    heard, awake_round, active_from, round_no, next_phase, never
):
    B, n = heard.shape
    for b in range(B):
        for u in range(n):
            if heard[b, u] and awake_round[b, u] == never:
                awake_round[b, u] = round_no
                active_from[b, u] = next_phase


_wake_update_jit = _jit(_wake_update_loop)


def wake_update(
    heard: np.ndarray,
    awake_round: np.ndarray,
    active_from: np.ndarray,
    round_no: int,
    next_phase: int,
    never: int,
) -> None:
    """Fused ``mark_awake`` for the heard path of the wake-up kernel.

    Stations hearing a message for the first time record the round and
    join the phase structure at ``next_phase`` — the exact integer
    semantics of the closure in
    :func:`repro.fastsim.wakeup.fast_adhoc_wakeup_batch`, minus its
    boolean temporaries.
    """
    _wake_update_jit(
        heard, awake_round, active_from, round_no, next_phase, never
    )


def _count_successes_loop(successes, heard, transmitted, count_tx):
    B, n = successes.shape
    for b in range(B):
        for u in range(n):
            if heard[b, u] or (count_tx and transmitted[b, u]):
                successes[b, u] += 1


_count_successes_jit = _jit(_count_successes_loop)


def count_successes(
    successes: np.ndarray,
    heard: np.ndarray,
    transmitted: np.ndarray,
    count_tx: bool,
) -> None:
    """Fused per-round success accumulation of the coloring tests.

    ``successes += heard | transmitted`` (or just ``heard``) from
    :func:`repro.fastsim.coloring.fast_coloring_batch`, in place,
    without the intermediate boolean array.
    """
    _count_successes_jit(successes, heard, transmitted, count_tx)


def _observe_accumulate_loop(acc, counting, heard, transmitted, count_tx):
    B, n = acc.shape
    for b in range(B):
        for u in range(n):
            if counting[b, u] and (
                heard[b, u] or (count_tx and transmitted[b, u])
            ):
                acc[b, u] += 1


_observe_accumulate_jit = _jit(_observe_accumulate_loop)


def observe_accumulate(
    acc: np.ndarray,
    counting: np.ndarray,
    heard: np.ndarray,
    transmitted: np.ndarray,
    count_tx: bool,
) -> None:
    """Fused test-counter accumulation for the wake-up coloring state.

    The gated form of :func:`count_successes` used by
    :meth:`repro.fastsim.wakeup.VectorColoringState.observe`: only
    stations in the ``counting`` mask accumulate.
    """
    _observe_accumulate_jit(acc, counting, heard, transmitted, count_tx)
