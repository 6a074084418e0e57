"""Bitwise pins of the serving resolver (DESIGN.md §8.2).

:func:`~repro.sinr.reception.resolve_reception_many` on a sparse
backend answers the query service's SINR requests.  Its contract is
that every row depends on its own transmitter set only, never on what
else shares the call.  Pinned here:

* a digest of the compact replies to ~320 sets on an n = 2000
  far-active network and on a far-empty one, recorded from the
  per-set resolver before it became one vectorized pass.  The sets
  cover 8-transmitter queries, empty, single, duplicated and unsorted
  sets, 200-transmitter sets, a set whose only transmitter has no near
  listener, and clusters that mostly hear each other;
* every row of a batched call equals the same set resolved alone, for
  batches split into several chunks by the chunk budget
  (:data:`~repro.sinr.sparse.SERVING_CHUNK_ELEMENTS`) or kept in one,
  and mixed set sizes;
* ``compact=False`` rows hold exactly the compact pairs;
* each far-field estimate and error equals, bit for bit, a per-pair
  reference evaluated from the kernel definitions.  Replies compare
  decisions only, which an ulp-level change in a far sum rarely flips.
"""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.network import Network
from repro.sinr import sparse
from repro.sinr.reception import NO_SENDER, resolve_reception_many

#: Digests of the compact replies, recorded before the vectorized pass.
PINS = {
    "far-active": "85eb890be5fbc3381c45de57",
    "far-empty": "7f031908256aa90e9b30b3c9",
}


@functools.lru_cache(maxsize=None)
def _network(name: str) -> Network:
    rng = np.random.default_rng(2014)
    if name == "far-active":
        side = math.sqrt(2000 / 12.0)
        coords = rng.uniform(0, side, size=(2000, 2))
        # One station beyond the cutoff of every other: no near listener.
        coords[-1] = (side + 4.0, side + 4.0)
        return Network(coords, name="pin", backend="sparse", cutoff=2.0)
    coords = rng.uniform(0, 1.9, size=(400, 2))
    return Network(coords, name="pin", backend="sparse", cutoff=2.0)


def _pin_sets(net: Network) -> list:
    """The pinned query mix: ~320 sets, as lists in the order drawn."""
    n = net.size
    rng = np.random.default_rng(7)
    sets = [rng.choice(n, size=8, replace=False).tolist() for _ in range(240)]
    sets += [[], [0], [n - 1], [n - 1, n - 1], [5, 3, 5, 1, 3, 3]]
    sets += [[int(k)] for k in rng.choice(n, size=15, replace=False)]
    sets += [
        rng.choice(n, size=200, replace=False).tolist() for _ in range(3)
    ]
    sets += [
        rng.choice(n, size=int(k)).tolist()
        for k in rng.integers(2, 40, size=40)
    ]
    coords = net.coords
    for center in rng.choice(n, size=20, replace=False):
        near = np.argsort(np.linalg.norm(coords - coords[center], axis=1))
        sets.append(near[: int(rng.integers(2, 12))][::-1].tolist())
    return sets


def _digest(replies) -> str:
    h = hashlib.sha256()
    for receivers, senders in replies:
        assert receivers.dtype == np.intp and senders.dtype == np.int64
        h.update(np.int64(receivers.size).tobytes())
        h.update(receivers.tobytes())
        h.update(senders.tobytes())
    return h.hexdigest()[:24]


def _resolve(net, sets, **kwargs):
    p = net.params
    return resolve_reception_many(
        net.gain_operator, sets, p.noise, p.beta, **kwargs
    )


@pytest.mark.parametrize("name", sorted(PINS))
def test_compact_replies_match_pin(name):
    net = _network(name)
    assert net.sparse_backend.far_empty == (name == "far-empty")
    sets = _pin_sets(net)
    batched = _resolve(net, sets, compact=True)
    assert _digest(batched) == PINS[name]
    solo = [_resolve(net, [s], compact=True)[0] for s in sets]
    assert _digest(solo) == PINS[name]
    assert sum(r.size for r, _ in batched) > 0


def test_pin_covers_edge_cases():
    net = _network("far-active")
    backend = net.sparse_backend
    isolated = net.size - 1
    lo, hi = backend.indptr[isolated], backend.indptr[isolated + 1]
    assert lo == hi
    sizes = {len(set(s)) for s in _pin_sets(net)}
    assert {0, 1, 8, 200} <= sizes


# ----------------------------------------------------------------------
# row independence (hypothesis)
# ----------------------------------------------------------------------
#: name -> (n, side, seed, cutoff): far-active, far-empty, and a wide
#: far-active network whose sets' far sums have many nonzero terms.
SMALL = {
    "far": (160, 5.0, 1, 1.0),
    "near": (40, 1.5, 2, 2.0),
    "wide": (300, 10.0, 3, 1.0),
}


@functools.lru_cache(maxsize=None)
def _small(name: str) -> Network:
    n, side, seed, cutoff = SMALL[name]
    coords = np.random.default_rng(seed).uniform(0, side, size=(n, 2))
    return Network(coords, backend="sparse", cutoff=cutoff)


def _draw_sets(data, net, max_sets=12):
    station = st.integers(0, net.size - 1)
    sets = data.draw(st.lists(
        st.one_of(
            st.lists(station, max_size=3),
            st.lists(station, min_size=6, max_size=10),
            st.lists(station, min_size=20, max_size=40),
        ),
        min_size=1, max_size=max_sets,
    ), label="sets")
    return [np.asarray(s, dtype=np.int64) for s in sets]


def _budget(elements: int):
    """Chunk budget of the serving pass, patched for one block."""
    return mock.patch.object(sparse, "SERVING_CHUNK_ELEMENTS", elements)


def _same(a, b):
    assert a[0].dtype == b[0].dtype and a[1].dtype == b[1].dtype
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


def test_sets_checked_across_the_call():
    # Each set's dtype is checked on its own and the range once over
    # all sets: an empty set of any dtype names no station, integer
    # sets of any width resolve as int64 ones, and one bad set fails
    # the whole call.
    net = _small("near")
    n = net.size
    reference = _resolve(net, [np.array([1, 4], dtype=np.int64), [], [0]])
    mixed = _resolve(
        net, [np.array([4, 1], dtype=np.uint32), np.array([]), [0]]
    )
    for a, b in zip(reference, mixed):
        assert np.array_equal(a, b)
    for bad in ([True, False], [0.5], [n], [-1]):
        with pytest.raises(ValueError, match="must be integers in"):
            _resolve(net, [[0], [], bad])


def test_small_networks_cover_both_regimes():
    assert not _small("far").sparse_backend.far_empty
    assert not _small("wide").sparse_backend.far_empty
    assert _small("near").sparse_backend.far_empty


@given(name=st.sampled_from(sorted(SMALL)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_rows_equal_solo(name, data):
    net = _small(name)
    sets = _draw_sets(data, net)
    solo = [_resolve(net, [s], compact=True)[0] for s in sets]
    # 1: one set per chunk; 3000: chunks of a few sets; default: one chunk.
    for budget in (1, 3000, sparse.SERVING_CHUNK_ELEMENTS):
        with _budget(budget):
            batched = _resolve(net, sets, compact=True)
        assert len(batched) == len(sets)
        for row, alone in zip(batched, solo):
            _same(row, alone)


@given(name=st.sampled_from(sorted(SMALL)), data=st.data())
@settings(max_examples=40, deadline=None)
def test_full_rows_hold_the_compact_pairs(name, data):
    net = _small(name)
    sets = _draw_sets(data, net)
    with _budget(3000):
        full = _resolve(net, sets)
        compact = _resolve(net, sets, compact=True)
    for row, (receivers, senders) in zip(full, compact):
        assert row.dtype == np.intp and row.shape == (net.size,)
        assert np.array_equal(np.flatnonzero(row != NO_SENDER), receivers)
        assert np.array_equal(row[receivers], senders)


# ----------------------------------------------------------------------
# far terms, value by value
# ----------------------------------------------------------------------
def _far_reference(backend, transmitters, listener):
    """One pair's far estimate and error, from the kernel definitions.

    Offsets, distances and gains follow ``_far_kernels``' expressions;
    the terms are summed as one ``(1, t)`` row in ascending sender
    order, then clipped at zero.
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
    return (
        np.maximum(K[None].sum(axis=1), 0.0)[0],
        np.maximum(E[None].sum(axis=1), 0.0)[0],
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_far_terms_match_the_per_pair_reference(data):
    net = _small("wide")
    backend = net.sparse_backend
    station = st.integers(0, net.size - 1)
    sets = data.draw(st.lists(
        st.lists(station, min_size=1, max_size=20, unique=True),
        min_size=1, max_size=6,
    ), label="sets")
    sets = [np.sort(np.asarray(s, dtype=np.int64)) for s in sets]
    pairs = [
        (b, listener) for b in range(len(sets))
        for listener in data.draw(
            st.lists(station, min_size=1, max_size=5), label="listeners"
        )
    ]
    owner, listeners = np.asarray(pairs).T
    size = np.array([s.size for s in sets])
    first = np.concatenate(([0], np.cumsum(size)))
    est, err = backend._far_pairs(
        owner, listeners, np.concatenate(sets), first, size,
        sorted(set(size.tolist())),
    )
    for i, (b, listener) in enumerate(pairs):
        ref_est, ref_err = _far_reference(backend, sets[b], listener)
        assert est[i].tobytes() == ref_est.tobytes()
        assert err[i].tobytes() == ref_err.tobytes()
