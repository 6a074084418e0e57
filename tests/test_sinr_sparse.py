"""Tests for the sparse geometry-certified SINR backend (DESIGN.md §2.2)."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import uniform_square
from repro.deploy.perturb import jitter_within_slack, same_graph_family_sparse
from repro.errors import (
    DeploymentError,
    GeometryError,
    ProtocolError,
)
from repro.geometry.metric import MIN_DISTANCE, EuclideanMetric
from repro.network.network import Network
from repro.sinr.channel import (
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    rectangle,
)
from repro.sinr.params import SINRParameters
from repro.sinr.reception import (
    NO_SENDER,
    resolve_at,
    resolve_reception,
    resolve_reception_batch,
)
from repro.sinr.sparse import (
    CELLS_PER_CUTOFF,
    SERVING_CHUNK_ELEMENTS,
    CellIndex,
    SparseGainBackend,
    certified_cutoff,
    csr_index_dtype,
    csr_upper_pairs,
    default_cutoff,
    far_field_tail_bound,
    sparse_supported,
)

PARAMS = SINRParameters.default()


def _spread_coords(n=200, side=8.0, seed=7):
    return np.random.default_rng(seed).uniform(0, side, size=(n, 2))


def _backend(coords, cutoff=1.0, channel=None):
    return SparseGainBackend(coords, PARAMS, channel, cutoff)


class TestCellIndex:
    def test_pairs_cover_every_near_pair(self):
        coords = _spread_coords(80, 5.0)
        index = CellIndex(coords, 0.5, reach=2)
        keys = index.adjacent_pair_keys()
        assert keys.dtype == np.int64
        # every ordered pair of distinct stations exactly once
        assert np.unique(keys).size == keys.size
        i, j = np.divmod(keys, 80)
        assert np.all(i != j)
        got = set(zip(i.tolist(), j.tolist()))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        near = {
            (i, j)
            for i in range(80)
            for j in range(80)
            if i != j and dist[i, j] <= 2 * 0.5
        }
        assert near <= got

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 90),
        dim=st.integers(1, 3),
        side=st.floats(0.5, 12.0),
        reach=st.integers(1, 3),
        which=st.sampled_from(["empty", "one", "subset", "all"]),
    )
    def test_listener_keys_are_the_full_keys_of_those_rows(
        self, seed, n, dim, side, reach, which
    ):
        rng = np.random.default_rng(seed)
        index = CellIndex(rng.uniform(0, side, (n, dim)), 0.5, reach=reach)
        listeners = {
            "empty": np.empty(0, dtype=np.int64),
            "one": rng.integers(0, n, 1),
            "subset": np.flatnonzero(rng.random(n) < 0.3),
            "all": np.arange(n),
        }[which]
        full = np.sort(index.adjacent_pair_keys())
        want = full[np.isin(full // n, listeners)]
        got = index.adjacent_pair_keys(listeners)
        assert got.dtype == np.int64
        assert np.array_equal(np.sort(got), want)

    def test_rejects_bad_arguments(self):
        coords = _spread_coords(10)
        with pytest.raises(GeometryError):
            CellIndex(coords, 0.0)
        with pytest.raises(GeometryError):
            CellIndex(coords, 1.0, reach=0)


class TestBackendConstruction:
    def test_csr_matches_dense_gains(self):
        coords = _spread_coords(120, 6.0)
        backend = _backend(coords, cutoff=1.5)
        dense = Network(coords, backend="dense").gains
        for u in (0, 17, 119):
            lo, hi = backend.indptr[u], backend.indptr[u + 1]
            senders = backend.indices[lo:hi]
            assert np.all(np.diff(senders) > 0)  # ascending, no dupes
            assert np.array_equal(backend.data[lo:hi], dense[senders, u])

    def test_near_field_complete_to_cutoff(self):
        coords = _spread_coords(100, 5.0)
        backend = _backend(coords, cutoff=1.2)
        ii, jj = csr_upper_pairs(*backend.adjacency_within(1.2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        expect = {
            (i, j)
            for i in range(100)
            for j in range(i + 1, 100)
            if dist[i, j] <= 1.2
        }
        assert set(zip(ii.tolist(), jj.tolist())) == expect

    def test_cutoff_below_range_rejected(self):
        with pytest.raises(ProtocolError):
            _backend(_spread_coords(20), cutoff=0.5)

    def test_non_radial_channel_rejected(self):
        channel = ObstacleMask([rectangle(1, 1, 2, 2)])
        with pytest.raises(ProtocolError):
            _backend(_spread_coords(20), channel=channel)

    def test_dual_slope_is_radial(self):
        coords = _spread_coords(50, 3.0)
        channel = DualSlope(breakpoint=1.0)
        backend = _backend(coords, cutoff=1.5, channel=channel)
        dense = channel.gain(
            Network(coords, backend="dense").distances, coords, PARAMS
        )
        u = 25
        lo, hi = backend.indptr[u], backend.indptr[u + 1]
        assert np.array_equal(
            backend.data[lo:hi], dense[backend.indices[lo:hi], u]
        )

    def test_colocated_stations_rejected(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DeploymentError, match="co-located stations"):
            _backend(coords)

    def test_cell_budget_guard(self):
        # Two stations an enormous distance apart: the grid would need
        # more cells than the budget allows.
        coords = np.array([[0.0, 0.0], [1e6, 1e6]])
        with pytest.raises(ProtocolError):
            _backend(coords)
        # 1.5e7 cells per axis in 3-D: the count overflows int64, and
        # must still be refused, not read as a small grid.
        coords = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        with pytest.raises(ProtocolError, match="cell grid"):
            _backend(coords, cutoff=2.0)
        assert not sparse_supported(
            coords, PARAMS, EuclideanMetric(3), UniformPower(), cutoff=2.0
        )


def _csr_digest(backend) -> str:
    """sha256 over dtype and bytes of ``(data, indices, indptr, dists)``."""
    h = hashlib.sha256()
    for a in (backend.data, backend.indices, backend.indptr, backend.dists):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _lexsort_csr(coords, cutoff, channel):
    """The near-field CSR by the recipe of the lexsort build.

    Candidate pairs come from brute force over the cell vectors (every
    ordered pair of distinct stations within Chebyshev ``reach``
    cells), in a scrambled order; each pair's distance is
    ``coords[listener] - coords[sender]`` squared and summed, and one
    ``lexsort`` over (listener, sender) orders the pairs and their
    distances.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    n = coords.shape[0]
    cells = CellIndex(
        coords, cutoff / CELLS_PER_CUTOFF, reach=CELLS_PER_CUTOFF
    )
    vec = cells.cell_vec
    near = np.abs(vec[:, None, :] - vec[None, :, :]).max(axis=-1)
    near = near <= cells.reach
    np.fill_diagonal(near, False)
    listeners, senders = np.nonzero(near)
    scramble = np.random.default_rng(n).permutation(listeners.size)
    listeners, senders = listeners[scramble], senders[scramble]
    diff = coords[listeners] - coords[senders]
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    perm = np.lexsort((senders, listeners))
    listeners, senders, dists = listeners[perm], senders[perm], dists[perm]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(listeners, minlength=n), out=indptr[1:])
    data = channel.radial_gain(np.maximum(dists, MIN_DISTANCE), PARAMS)
    return data, senders.astype(csr_index_dtype(n)), indptr, dists


class TestNearFieldBuild:
    """The near-field CSR's bytes, pinned and against the lexsort recipe."""

    #: ``_csr_digest`` of each :meth:`_deployments` backend, recorded
    #: with the lexsort build.
    DIGESTS = {
        "square-far-active":
            "2c6888c4d3eeab5ed2d1e3c83019c1af573fd1118c74e14fe9040d11680f7788",
        "square-far-empty":
            "16cf75db83d60830be4db2233e4bf5b5fb6b3e633145fb4072a2e4e53f1c511a",
        "cube-3d":
            "ddf08f0b7dcaa3cd5aedacdd7f663a762a0ac2b7c38a7846d16232576ca45633",
        "corridor-1d":
            "ccdb745ea151d920afa2388fca3bdb611953758a10948a67cc4db3823eb001e5",
    }

    @staticmethod
    def _deployments():
        rng = np.random.default_rng
        side = math.sqrt(2000 / 12.0)
        return {
            "square-far-active": rng(2014).uniform(0, side, (2000, 2)),
            "square-far-empty": rng(2015).uniform(0, 1.5, (400, 2)),
            "cube-3d": rng(2016).uniform(0, 6.0, (1500, 3)),
            "corridor-1d": rng(2017).uniform(0, 250.0, 1000),
        }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_csr_bytes_pinned(self, name):
        backend = _backend(self._deployments()[name], cutoff=2.0)
        assert backend.far_empty == (name == "square-far-empty")
        assert _csr_digest(backend) == self.DIGESTS[name]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 90),
        dim=st.integers(1, 3),
        side=st.floats(0.5, 12.0),
        cutoff=st.sampled_from([1.0, 1.5, 2.0]),
        dual_slope=st.booleans(),
        colocate=st.booleans(),
    )
    def test_build_equals_lexsort_recipe(
        self, seed, n, dim, side, cutoff, dual_slope, colocate
    ):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, side, (n, dim))
        channel = DualSlope(breakpoint=0.7) if dual_slope else UniformPower()
        if colocate and n > 1:
            coords[rng.integers(1, n)] = coords[0]
            with pytest.raises(DeploymentError, match="co-located"):
                _backend(coords, cutoff=cutoff, channel=channel)
            return
        backend = _backend(coords, cutoff=cutoff, channel=channel)
        got = (backend.data, backend.indices, backend.indptr, backend.dists)
        for a, b in zip(got, _lexsort_csr(coords, cutoff, channel)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_colocated_pair_in_last_block_rejected(self, dim):
        # Entries are evaluated in blocks of SERVING_CHUNK_ELEMENTS in
        # key order; the two last stations' pair sits in the last block.
        n = 3000
        side = (n / 12.0) ** (1.0 / dim)
        coords = np.random.default_rng(dim).uniform(0, side, (n, dim))
        coords[-1] = coords[-2]
        with pytest.raises(
            DeploymentError,
            match="deployment contains co-located stations; the SINR "
                  "model requires distinct positions",
        ):
            _backend(coords, cutoff=2.0)


class TestNearFieldMemory:
    """The backend keeps 12 bytes per entry and builds without a
    second per-entry copy of anything."""

    N = 10_000

    @pytest.fixture(scope="class")
    def traced_build(self):
        import tracemalloc

        side = math.sqrt(self.N / 12.0)
        coords = np.random.default_rng(2014).uniform(0, side, (self.N, 2))
        tracemalloc.start()
        try:
            backend = _backend(coords, cutoff=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return backend, peak

    def test_build_transient_within_block_budget(self, traced_build):
        # Holding the pair keys twice, or distances beside the CSR,
        # costs ~210 blocks' worth at this size; row blocks cost ~60.
        backend, peak = traced_build
        assert peak - backend.nbytes() <= 100 * SERVING_CHUNK_ELEMENTS

    def test_bytes_per_entry(self, traced_build):
        # 4-byte index + 8-byte gain, plus the row pointers, the cell
        # index and the communication-radius adjacency.
        backend, _ = traced_build
        assert backend.nbytes() / backend.indices.size < 13

    @pytest.mark.parametrize("name", sorted(TestNearFieldBuild.DIGESTS))
    def test_comm_radius_adjacency_memoized_by_build(self, name):
        coords = TestNearFieldBuild._deployments()[name]
        backend = _backend(coords, cutoff=2.0)
        comm = PARAMS.comm_radius
        memo = backend._adjacency[float(comm)]
        assert backend.adjacency_within(comm) is memo
        kept = np.flatnonzero(backend.dists <= comm)
        want = (np.searchsorted(kept, backend.indptr), backend.indices[kept])
        for got, expect in zip(memo, want):
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()

    def test_dists_are_recomputed_not_kept(self):
        backend = _backend(_spread_coords(300, 8.0), cutoff=2.0)
        first = backend.dists
        assert backend.dists is not first
        assert backend.dists.tobytes() == first.tobytes()
        moved = np.array([5])
        coords = backend.coords.copy()
        coords[5] += 0.01
        patched = backend.advanced(coords, moved)
        assert patched._adjacency == {}


class TestResolverAgainstDense:
    def test_covered_regime_bitwise_equal(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0, 1.9, size=(60, 2))
        dense = Network(coords, backend="dense")
        sparse = Network(coords, backend="sparse", cutoff=2.0)
        assert sparse.sparse_backend.far_empty
        tx = rng.random((8, 60)) < 0.2
        assert np.array_equal(
            resolve_reception_batch(dense.gain_operator, tx, 1.0, 1.0),
            resolve_reception_batch(sparse.gain_operator, tx, 1.0, 1.0),
        )

    def test_truncated_regime_conservative_subset(self):
        coords = _spread_coords(300, 8.0)
        dense = Network(coords, backend="dense")
        sparse = Network(coords, backend="sparse", cutoff=1.0)
        assert not sparse.sparse_backend.far_empty
        tx = np.random.default_rng(1).random((16, 300)) < 0.05
        a = resolve_reception_batch(dense.gain_operator, tx, 1.0, 1.0)
        b = resolve_reception_batch(sparse.gain_operator, tx, 1.0, 1.0)
        assert np.all((b == NO_SENDER) | (b == a))
        # and the truncation only suppresses a small fraction
        assert (b != NO_SENDER).sum() > 0.7 * (a != NO_SENDER).sum()

    def test_certified_band_brackets_true_far_field(self):
        coords = _spread_coords(200, 8.0)
        dense = Network(coords, backend="dense").gains
        backend = _backend(coords, cutoff=1.0)
        tx = np.random.default_rng(2).random((8, 200)) < 0.05
        far, band = backend.far_band(tx)
        for b in range(tx.shape[0]):
            transmitters = np.flatnonzero(tx[b])
            true_far = (
                dense[transmitters].sum(axis=0)
                - backend._near_scan(transmitters)[0]
            )
            assert np.all(far[b] + band[b] >= true_far - 1e-9)
            assert np.all(far[b] - band[b] <= true_far + 1e-9)

    def test_far_band_slabs_equal_per_slab_calls(self):
        # A call longer than one slab transforms its rows slab by slab;
        # every slab's bytes equal that slab passed alone, and a row's
        # equal the row passed alone.
        backend = _backend(_spread_coords(300, 8.0), cutoff=1.0)
        assert not backend.far_empty
        slab = backend._far_slab_rows()
        B = 2 * slab + 3
        tx = np.random.default_rng(4).random((B, 300)) < 0.05
        far, band = backend.far_band(tx)
        assert far.shape == band.shape == (B, 300)
        for lo in range(0, B, slab):
            part = backend.far_band(tx[lo:lo + slab])
            assert part[0].tobytes() == far[lo:lo + slab].tobytes()
            assert part[1].tobytes() == band[lo:lo + slab].tobytes()
        for b in (0, slab, B - 1):
            row = backend.far_band(tx[b])
            assert row[0].tobytes() == far[b:b + 1].tobytes()
            assert row[1].tobytes() == band[b:b + 1].tobytes()

    def test_single_instance_resolution(self):
        # Covered regime: both backends resolve a round as the B = 1 row
        # of the batched fold — gains added in ascending sender order,
        # the denominator grouped (noise + total) - signal — so heard
        # senders *and* SINR values agree bit for bit at every station,
        # transmitters included, under either channel.
        stations = np.arange(60)
        for seed in (3, 4, 5, 6):
            coords = _spread_coords(60, 1.8, seed=seed)
            rng = np.random.default_rng(seed)
            rounds = [np.asarray([3, 17, 40])] + [
                rng.choice(60, size=k, replace=False) for k in (1, 6, 15)
            ]
            for channel in (None, DualSlope()):
                dense = Network(coords, backend="dense", channel=channel)
                sparse = Network(
                    coords, backend="sparse", cutoff=2.0, channel=channel
                )
                assert sparse.sparse_backend.far_empty
                for tx in rounds:
                    assert np.array_equal(
                        resolve_reception(dense.gain_operator, tx, 1.0, 1.0),
                        resolve_reception(sparse.gain_operator, tx, 1.0, 1.0),
                    )
                    got_d = resolve_at(
                        dense.gain_operator, tx, stations, 1.0, 1.0
                    )
                    got_s = resolve_at(
                        sparse.gain_operator, tx, stations, 1.0, 1.0
                    )
                    for d, s in zip(got_d, got_s):
                        assert d.tobytes() == s.tobytes(), (seed, tx)


class TestResolverEdgeCases:
    """All-transmit / single-transmitter / n=1, both backends."""

    @pytest.mark.parametrize("backend_kind", ["dense", "sparse"])
    def test_all_stations_transmit_nobody_hears(self, backend_kind):
        coords = _spread_coords(40, 1.5, seed=5)
        net = Network(coords, backend=backend_kind, cutoff=2.0)
        tx = np.ones((2, 40), dtype=bool)
        heard = resolve_reception_batch(net.gain_operator, tx, 1.0, 1.0)
        assert np.all(heard == NO_SENDER)

    @pytest.mark.parametrize("backend_kind", ["dense", "sparse"])
    def test_single_transmitter_reaches_range(self, backend_kind):
        coords = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
        net = Network(coords, backend=backend_kind, cutoff=8.0)
        heard = resolve_reception(
            net.gain_operator, np.asarray([0]),
            PARAMS.noise, PARAMS.beta,
        )
        assert heard[1] == 0          # within range 1
        assert heard[2] == NO_SENDER  # far outside range
        assert heard[0] == NO_SENDER  # transmitters never receive

    @pytest.mark.parametrize("backend_kind", ["dense", "sparse"])
    def test_single_station_network(self, backend_kind):
        net = Network(
            np.array([[0.0, 0.0]]), backend=backend_kind, cutoff=2.0
        )
        tx = np.array([[True], [False]])
        heard = resolve_reception_batch(net.gain_operator, tx, 1.0, 1.0)
        assert np.all(heard == NO_SENDER)

    def test_empty_transmitter_set(self):
        backend = _backend(_spread_coords(10, 1.5))
        heard, sinr = resolve_at(
            backend, np.asarray([], dtype=int), np.arange(10), 1.0, 1.0
        )
        assert np.all(heard == NO_SENDER)
        assert np.all(sinr == 0)

    def test_sinr_values_with_live_far_field_is_lower_bound(self):
        coords = _spread_coords(150, 7.0, seed=13)
        backend = _backend(coords, cutoff=1.0)
        assert not backend.far_empty
        transmitters = np.asarray([0, 30, 60, 90, 120])
        listeners = np.setdiff1d(np.arange(150), transmitters)
        _, sinr_cons = resolve_at(
            backend, transmitters, listeners, PARAMS.noise, PARAMS.beta
        )
        _, sinr_true = resolve_at(
            Network(coords, backend="dense").gain_operator,
            transmitters, listeners, PARAMS.noise, PARAMS.beta,
        )
        # certified lower bound wherever the sparse near field sees a
        # sender at all
        seen = sinr_cons > 0
        assert seen.any()
        assert np.all(sinr_cons[seen] <= sinr_true[seen] * (1 + 1e-12))

    def test_measured_gamma_tail_bound(self):
        backend = _backend(_spread_coords(300, 6.0, seed=14), cutoff=1.0)
        assert backend.certified_tail_bound() > 0  # measured-gamma path


class TestNetworkIntegration:
    def test_auto_resolves_dense_below_threshold(self):
        net = Network(_spread_coords(50))
        assert net.backend_kind == "dense"
        assert isinstance(net.gain_operator, np.ndarray)

    def test_explicit_sparse_below_threshold(self):
        net = Network(_spread_coords(50), backend="sparse")
        assert net.backend_kind == "sparse"
        assert isinstance(net.gain_operator, SparseGainBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProtocolError):
            Network(_spread_coords(10), backend="csr")

    def test_sparse_graph_matches_dense(self):
        coords = _spread_coords(150, 6.0)
        dense = Network(coords, backend="dense")
        sparse = Network(coords, backend="sparse", cutoff=1.5)
        assert set(map(frozenset, dense.graph.edges)) == set(
            map(frozenset, sparse.graph.edges)
        )
        assert dense.is_connected == Network(
            coords, backend="sparse", cutoff=1.5
        ).is_connected

    def test_sparse_ball_matches_dense(self):
        coords = _spread_coords(120, 5.0)
        dense = Network(coords, backend="dense")
        sparse = Network(coords, backend="sparse", cutoff=1.5)
        for center in (0, 60, 119):
            assert np.array_equal(
                sparse.ball(center, 1.2), dense.ball(center, 1.2)
            )

    def test_fingerprints_dense_unchanged_sparse_distinct(self):
        coords = _spread_coords(40)
        dense = Network(coords, backend="dense")
        auto = Network(coords)  # auto resolves dense at n=40
        sparse = Network(coords, backend="sparse", cutoff=2.0)
        assert dense.fingerprint() == auto.fingerprint()
        assert sparse.fingerprint() != dense.fingerprint()
        assert sparse.fingerprint() != Network(
            coords, backend="sparse", cutoff=3.0
        ).fingerprint()

    def test_describe_reports_backend(self):
        net = Network(_spread_coords(30, 1.5), backend="sparse", cutoff=2.0)
        assert net.describe()["backend"] == "sparse"

    def test_with_params_and_channel_keep_backend(self):
        net = Network(_spread_coords(40), backend="sparse", cutoff=2.0)
        assert net.with_params(PARAMS).backend_kind == "sparse"
        assert net.with_channel(UniformPower()).backend_kind == "sparse"

    def test_auto_declines_non_radial_channels(self):
        coords = _spread_coords(40)
        shadow = Network(coords, channel=LogNormalShadowing(4.0, seed=1))
        assert shadow.backend_kind == "dense"
        assert not sparse_supported(
            coords, PARAMS, shadow.metric, shadow.channel
        )


class TestGrowthCertificates:
    def test_tail_bound_decreases_in_cutoff(self):
        bounds = [
            far_field_tail_bound(PARAMS, c, 2.0, 1.0, 50)
            for c in (1.0, 2.0, 4.0)
        ]
        assert bounds[0] > bounds[1] > bounds[2] > 0

    def test_tail_bound_validates(self):
        with pytest.raises(GeometryError):
            far_field_tail_bound(PARAMS, 0.0, 2.0, 1.0, 10)

    def test_certified_cutoff_picks_smallest_certifiable(self):
        coords = _spread_coords(400, 6.0, seed=11)
        cutoff = certified_cutoff(coords, PARAMS, gamma=2.0)
        assert cutoff >= PARAMS.broadcast_range
        # tighter budget -> never smaller cutoff
        tighter = certified_cutoff(
            coords, PARAMS, gamma=2.0, budget_fraction=0.01
        )
        assert tighter >= cutoff

    def test_backend_tail_bound_finite(self):
        backend = _backend(_spread_coords(200, 8.0), cutoff=1.0)
        bound = backend.certified_tail_bound(gamma=2.0)
        assert 0 < bound < math.inf
        worst = backend.certified_tail_bound(
            gamma=2.0, active_per_ball=backend.max_ball_occupancy()
        )
        assert worst >= bound

    #: Recorded before the occupancy grid and the growth helpers were
    #: shared: ``max_ball_occupancy()``, ``certified_tail_bound()`` and
    #: ``certified_cutoff(coords, PARAMS)`` (gamma measured) at cutoff 2
    #: on :meth:`TestNearFieldBuild._deployments`, plus the cutoffs at
    #: budget fractions 1 and 20.
    PINS = {
        "corridor-1d": (25, 0.7097477849129006, 3.0, 1.5, 1.0),
        "square-far-active": (137, 1.831263620917334, 3.0, 2.0, 1.0),
        "cube-3d": (205, 5.212810478366026, 3.0, 3.0, 1.25),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_occupancy_and_measured_gamma_pinned(self, name):
        coords = TestNearFieldBuild._deployments()[name]
        backend = _backend(coords, cutoff=2.0)
        occupancy, tail, *cutoffs = self.PINS[name]
        assert backend.max_ball_occupancy() == occupancy
        assert backend.certified_tail_bound() == tail
        assert [
            certified_cutoff(coords, PARAMS, budget_fraction=fraction)
            for fraction in (0.25, 1.0, 20.0)
        ] == cutoffs

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        dim=st.integers(1, 3),
        side=st.floats(0.5, 8.0),
        cutoff=st.sampled_from([1.0, 1.5, 2.0]),
        flat=st.booleans(),
    )
    def test_occupancy_covers_every_station_ball(
        self, seed, n, dim, side, cutoff, flat
    ):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, side, (n, dim))
        if flat:  # every station on one axis value
            coords[:, 0] = coords[0, 0]
        coords = np.unique(coords, axis=0)
        backend = _backend(coords, cutoff=cutoff)
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        largest = int((dist <= cutoff / 2.0).sum(axis=1).max())
        assert backend.max_ball_occupancy() >= largest

    def test_default_cutoff_is_twice_range(self):
        assert default_cutoff(PARAMS) == pytest.approx(
            2.0 * PARAMS.broadcast_range
        )


class TestSlackJitter:
    def test_preserves_graph_and_moves_stations(self):
        rng = np.random.default_rng(8)
        base = uniform_square(n=150, side=3.0, rng=rng)
        jittered = jitter_within_slack(base, 0.05, rng)
        assert set(map(frozenset, base.graph.edges)) == set(
            map(frozenset, jittered.graph.edges)
        )
        assert not np.array_equal(base.coords, jittered.coords)

    def test_family_shares_graph(self):
        rng = np.random.default_rng(9)
        base = uniform_square(n=100, side=2.5, rng=rng)
        family = same_graph_family_sparse(base, [0.02, 0.05], rng)
        assert len(family) == 3
        edges = set(map(frozenset, base.graph.edges))
        for member in family[1:]:
            assert set(map(frozenset, member.graph.edges)) == edges

    def test_works_under_non_radial_channels(self):
        # the jitter consumes only distances, so shadowing/obstacle
        # channels (which the sparse backend cannot serve) must not
        # prevent building same-graph families
        rng = np.random.default_rng(12)
        base = uniform_square(n=60, side=2.0, rng=rng).with_channel(
            LogNormalShadowing(3.0, seed=1)
        )
        jittered = jitter_within_slack(base, 0.03, rng)
        assert set(map(frozenset, base.graph.edges)) == set(
            map(frozenset, jittered.graph.edges)
        )

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(10)
        base = uniform_square(n=40, side=1.5, rng=rng)
        assert np.array_equal(
            jitter_within_slack(base, 0.0, rng).coords, base.coords
        )

    def test_rejects_bad_scale(self):
        rng = np.random.default_rng(11)
        base = uniform_square(n=20, side=1.5, rng=rng)
        with pytest.raises(DeploymentError):
            jitter_within_slack(base, -1.0, rng)


def test_cells_per_cutoff_sanity():
    # the fingerprint marker and the far-field floor both rely on it
    assert CELLS_PER_CUTOFF >= 1
