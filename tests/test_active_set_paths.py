"""Bitwise properties of the backlog-driven traffic slot paths.

A traffic slot touches only its contenders and their packets' next
hops.  Each shortcut is pinned against the whole-network computation
it replaces, bit for bit:

* :func:`~repro.sinr.reception.resolve_at` at any listener array
  (unsorted, repeated, transmitters included) hears what
  ``resolve_reception(...)[L]`` hears, and its SINR equals a per-station
  reference of the batched fold's arithmetic with the far term summed
  pair by pair, on sparse far-active, sparse far-empty and dense
  networks;
* a listener's sparse ``resolve_at`` bits do not depend on how the far
  gather is chunked or on which other listeners share the call, and
  the traffic path runs no far-field transform;
* CSMA arbitration over the CSR sense adjacency equals the pair rule
  "defer iff an intending station within sense range drew a strictly
  smaller backoff", evaluated by brute force over every pair, for
  several intent rows at once, on dense networks and on sparse ones
  with the sense range inside and beyond the cutoff;
* the session's sensing pairs are exactly
  :meth:`~repro.network.network.Network.pairs_within`;
* :meth:`~repro.sinr.sparse.SparseGainBackend.nbytes` counts the lazily
  built structures: merge keys, far-field tables, memoized adjacencies.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac import CSMA
from repro.network.network import Network
from repro.sinr import sparse
from repro.sinr.reception import (
    NO_SENDER,
    resolve_at,
    resolve_reception,
    resolve_reception_many,
)
from repro.sinr.sparse import _with_band

#: name -> (n, side, seed, Network kwargs)
DEPLOYMENTS = {
    "sparse-far": (160, 5.0, 1, {"backend": "sparse", "cutoff": 1.0}),
    "sparse-far-wide": (200, 6.0, 4, {"backend": "sparse", "cutoff": 2.0}),
    "sparse-near": (40, 1.5, 2, {"backend": "sparse", "cutoff": 2.0}),
    "dense": (40, 2.5, 3, {}),
}


@functools.lru_cache(maxsize=None)
def _network(name: str) -> Network:
    n, side, seed, kwargs = DEPLOYMENTS[name]
    coords = np.random.default_rng(seed).uniform(0, side, size=(n, 2))
    return Network(coords, **kwargs)


def test_deployments_cover_each_regime():
    assert not _network("sparse-far").sparse_backend.far_empty
    assert not _network("sparse-far-wide").sparse_backend.far_empty
    assert _network("sparse-near").sparse_backend.far_empty
    assert _network("dense").backend_kind == "dense"


# ----------------------------------------------------------------------
# resolution at a listener subset
# ----------------------------------------------------------------------
def _far_reference(backend, transmitters, listener):
    """One listener's far estimate and band, from the kernel definitions.

    Offsets, distances and gains follow ``_far_kernels``' expressions;
    the terms are summed as one ``(1, t)`` row in ascending sender
    order, clipped at zero, then widened by the rounding slack.
    """
    cells = backend.cells
    delta = (
        cells.cell_vec[listener] - cells.cell_vec[transmitters]
    ).astype(float)
    absd = np.abs(delta)
    center = cells.h * np.sqrt(sum(g * g for g in delta.T))
    lo = cells.h * np.sqrt(sum(np.maximum(g - 1.0, 0.0) ** 2 for g in absd.T))
    hi = cells.h * np.sqrt(sum((g + 1.0) ** 2 for g in absd.T))
    far = (absd > cells.reach).any(axis=1)
    K = np.where(far, backend._radial(center), 0.0)
    E = np.where(far, backend._radial(lo) - backend._radial(hi), 0.0)
    return _with_band(
        np.maximum(K[None].sum(axis=1), 0.0)[0],
        np.maximum(E[None].sum(axis=1), 0.0)[0],
    )


def _reference_sinr(net, transmitters, listeners):
    """Strongest-transmitter SINR at each listener, one pair at a time.

    The batched fold's arithmetic written out per station: the gains
    reaching the listener added in ascending sender order, the
    denominator grouped ``(noise + total) - signal``, and on a sparse
    network the near gains only, plus the certified far estimate and
    band at the listener, summed pair by pair (:func:`_far_reference`).
    """
    noise = net.params.noise
    tx = np.unique(transmitters)
    backend = net.sparse_backend if net.backend_kind == "sparse" else None
    out = []
    for u in listeners:
        if backend is not None:
            row = slice(backend.indptr[u], backend.indptr[u + 1])
            near = np.isin(backend.indices[row], tx)
            gains = backend.data[row][near]
        else:
            gains = net.gains[tx, u]
        total = signal = 0.0
        for g in gains.tolist():
            total += g
            signal = max(signal, g)
        denom = (noise + total) - signal
        if backend is not None and not backend.far_empty:
            far, band = _far_reference(backend, tx, u)
            denom = denom + float(far) + float(band)
        out.append(signal / denom)
    return np.asarray(out, dtype=float)


def _check_resolve_at(net, transmitters, listeners):
    gain, p = net.gain_operator, net.params
    transmitters = np.asarray(transmitters, dtype=np.int64)
    listeners = np.asarray(listeners, dtype=np.int64)
    heard, sinr = resolve_at(gain, transmitters, listeners, p.noise, p.beta)
    full = resolve_reception(gain, transmitters, p.noise, p.beta)
    assert heard.dtype == full.dtype
    assert np.array_equal(heard, full[listeners])
    reference = _reference_sinr(net, transmitters, listeners)
    assert sinr.tobytes() == reference.tobytes()
    return heard


@given(
    name=st.sampled_from(["sparse-far", "sparse-near", "dense"]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_resolve_at_equals_full_resolution(name, data):
    net = _network(name)
    station = st.integers(0, net.size - 1)
    transmitters = data.draw(
        st.lists(station, max_size=12, unique=True), label="transmitters"
    )
    listeners = data.draw(st.lists(station, max_size=24), label="listeners")
    if transmitters:
        listeners += data.draw(
            st.lists(st.sampled_from(transmitters), max_size=3),
            label="transmitting listeners",
        )
    listeners = data.draw(st.permutations(listeners), label="order")
    _check_resolve_at(net, sorted(transmitters), listeners)


def test_resolve_at_every_station_with_receptions():
    for name in ("sparse-far", "sparse-near", "dense"):
        net = _network(name)
        transmitters = np.arange(0, net.size, 9)
        heard = _check_resolve_at(
            net, transmitters, np.arange(net.size)[::-1]
        )
        assert np.any(heard != NO_SENDER), name


@pytest.mark.parametrize("every", [9, 2, 1], ids=["sparse", "dense", "all"])
def test_resolve_at_rows_ignore_chunking_and_co_listeners(every, monkeypatch):
    net = _network("sparse-far")
    gain, p = net.gain_operator, net.params
    transmitters = np.arange(0, net.size, every)
    stations = np.arange(net.size)
    listeners = np.random.default_rng(3).permutation(
        np.concatenate([stations, stations[::3]])
    )

    def answer(at):
        return resolve_at(gain, transmitters, at, p.noise, p.beta)

    whole = answer(listeners)
    alone = [answer(listeners[i:i + 1]) for i in range(listeners.size)]
    monkeypatch.setattr(sparse, "SERVING_CHUNK_ELEMENTS", 64)
    chunked = answer(listeners)
    for heard, sinr in (chunked, map(np.concatenate, zip(*alone))):
        assert heard.tobytes() == whole[0].tobytes()
        assert sinr.tobytes() == whole[1].tobytes()


def test_resolve_at_runs_no_far_transform(monkeypatch):
    net = _network("sparse-far")
    gain, p = net.gain_operator, net.params
    transmitters = np.arange(0, net.size, 4)
    listeners = np.arange(net.size)[::-1]
    net.sparse_backend._far_kernels()

    def transform(*args, **kwargs):
        raise AssertionError("a traffic slot ran a far-field transform")

    monkeypatch.setattr(np.fft, "rfftn", transform)
    monkeypatch.setattr(np.fft, "irfftn", transform)
    heard, sinr = resolve_at(gain, transmitters, listeners, p.noise, p.beta)
    monkeypatch.undo()
    full = resolve_reception(gain, transmitters, p.noise, p.beta)
    assert np.array_equal(heard, full[listeners])
    assert np.any(heard != NO_SENDER)
    reference = _reference_sinr(net, transmitters, listeners)
    assert sinr.tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# CSMA arbitration over the CSR sense adjacency
# ----------------------------------------------------------------------
#: name -> (deployment, CSMA sense_range): dense; sparse with the range
#: inside the cutoff (memoized adjacency); sparse beyond the cutoff
#: (brute-force pairs folded into a CSR).
CSMA_CASES = {
    "dense": ("dense", None),
    "sparse-within-cutoff": ("sparse-far-wide", 1.2),
    "sparse-beyond-cutoff": ("sparse-far", 1.4),
}


def _pair_rule(net, sense_range, backoff, intents):
    """The CSMA decision by brute force over every station pair."""
    coords = net.coords
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    sensed = dist <= sense_range
    np.fill_diagonal(sensed, False)
    out = np.zeros_like(intents)
    for b, act in enumerate(intents):
        earlier = sensed & act[None, :] & (backoff[None, :] < backoff[:, None])
        out[b] = act & ~earlier.any(axis=1)
    return out


@given(
    case=st.sampled_from(sorted(CSMA_CASES)),
    cw=st.integers(2, 12),
    mac_seed=st.integers(0, 20),
    round_no=st.integers(0, 500),
    rows=st.integers(2, 4),
    density=st.floats(0.05, 1.0),
    intent_seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_csma_csr_arbitration_equals_pair_rule(
    case, cw, mac_seed, round_no, rows, density, intent_seed
):
    name, sense_range = CSMA_CASES[case]
    net = _network(name)
    session = CSMA(sense_range=sense_range, cw=cw, seed=mac_seed).session(net)
    if sense_range is not None:
        assert (sense_range > net.cutoff) == (case == "sparse-beyond-cutoff")
    intents = (
        np.random.default_rng(intent_seed).random((rows, net.size)) < density
    )
    tx = session.transmit_mask(round_no, intents, net)
    backoff = session.round_backoff(round_no)
    expected = _pair_rule(net, session.sense_range, backoff, intents)
    assert np.array_equal(tx, expected)


def test_sense_pairs_are_pairs_within():
    for name, sense_range in CSMA_CASES.values():
        net = _network(name)
        session = CSMA(sense_range=sense_range).session(net)
        ii, jj = net.pairs_within(session.sense_range)
        assert ii.size > 0
        assert np.array_equal(session.sense_i, ii)
        assert np.array_equal(session.sense_j, jj)


def test_adjacency_is_symmetric_with_sorted_rows():
    for name, sense_range in CSMA_CASES.values():
        net = _network(name)
        radius = sense_range or 1.0
        indptr, indices = net.adjacency_within(radius)
        rows = np.repeat(np.arange(net.size), np.diff(indptr))
        pairs = set(zip(rows.tolist(), indices.tolist()))
        assert pairs == {(j, i) for i, j in pairs}
        for v in range(net.size):
            row = indices[indptr[v]:indptr[v + 1]]
            assert np.all(np.diff(row) > 0)


def test_sparse_adjacency_is_memoized_per_backend():
    net = _network("sparse-far-wide")
    first = net.adjacency_within(1.2)
    again = net.adjacency_within(1.2)
    assert first[0] is again[0] and first[1] is again[1]


# ----------------------------------------------------------------------
# resident-byte accounting
# ----------------------------------------------------------------------
def _fresh_far_network(seed=5) -> Network:
    coords = np.random.default_rng(seed).uniform(0, 6.0, size=(300, 2))
    return Network(coords, backend="sparse", cutoff=1.5)


def test_nbytes_grows_after_advanced():
    net = _fresh_far_network()
    backend = net.sparse_backend
    before = backend.nbytes()
    coords = np.array(net.coords)
    moved = np.flatnonzero(
        np.all((coords > 2.0) & (coords < 4.0), axis=1)
    )[:5]
    coords[moved] += 0.1
    assert backend.advanced(coords, moved) is not None
    # The merge keys (one int64 per CSR entry) now live on the backend.
    assert backend.nbytes() >= before + 8 * backend.indices.size


def test_nbytes_grows_after_serving_query():
    net = _fresh_far_network()
    backend = net.sparse_backend
    before, resident = backend.nbytes(), net.resident_bytes()
    p = net.params
    resolve_reception_many(backend, [np.array([3, 70, 150])], p.noise, p.beta)
    K_hat, E_hat, _ = backend._kernels
    K, E, tables = backend._far_spatial
    built = sum(a.nbytes for a in (K_hat, E_hat, K, E, *tables))
    assert backend.nbytes() - before == built
    assert net.resident_bytes() - resident == built


def test_nbytes_counts_memoized_adjacency():
    net = _fresh_far_network()
    backend = net.sparse_backend
    before = backend.nbytes()
    indptr, indices = backend.adjacency_within(1.0)
    assert backend.nbytes() == before + indptr.nbytes + indices.nbytes
