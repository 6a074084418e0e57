"""Compiled loop kernels (DESIGN.md §2.3).

The two float folds of the SINR resolvers — the sparse CSR near scan
and the dense batched fold — each have two implementations: the
vectorized numpy expressions (the reference arithmetic everything else
in the repo is validated against) and the explicit loops in this
module, jitted by numba when it is installed.  The contract binding
them is **bitwise equivalence** — not tolerance, not "statistically
indistinguishable": for any inputs, the compiled path returns the
exact bytes the numpy path returns.  That is what lets
:meth:`repro.network.network.Network.fingerprint` and
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
  lowest-index tie-breaks.

Selection is by platform, not by caller: :data:`COMPILED` is set once,
at import, from whether numba imports, and every resolver reads it
when called.  With numba, the float folds run jitted; without it, the
numpy expressions run.  No argument, descriptor key or environment
variable chooses — the two implementations return identical bytes, so
there is nothing for a caller to choose between
(:attr:`repro.network.network.Network.kernel_kind` reports the choice).
The per-round protocol state updates have one implementation, the
boolean/integer numpy expressions in :mod:`repro.fastsim`.  Tests drive
the loops on any machine by monkeypatching :data:`COMPILED` to
``True``: without numba they then run as un-jitted python, slow but
bitwise identical, which is how the differential suite checks the loop
arithmetic everywhere.
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

#: Whether the loop kernels below serve the resolvers (DESIGN.md §2.3).
#: Set from the platform — numba present means jitted loops, absent
#: means numpy — and never by a caller; callers read it at call time,
#: so a test may monkeypatch it.
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
