"""Tests for the SINR channel: gain matrices and reception resolution.

These encode the paper's Facts 2/3-style reasoning as concrete channel
behaviours: lone transmitters reach their range, co-transmitters collide,
capture favours the nearest transmitter.

The whole module is parametrized over the kernel implementation (via
the autouse :func:`kernel` fixture patching
:data:`repro.kernels.COMPILED`), so every resolver test here doubles as
a conformance test: the compiled loops must reproduce the numpy
reference bit for bit (DESIGN.md §2.3).
"""

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.deploy.line import geometric_chain
from repro.geometry.metric import pairwise_distances
from repro.network.network import Network
from repro.sinr import reception
from repro.sinr.channel import UniformPower
from repro.sinr.params import SINRParameters
from repro.sinr.reception import (
    NO_SENDER,
    resolve_at,
    resolve_reception,
    resolve_reception_batch,
    resolve_reception_many,
)
from repro.sinr.sparse import SparseGainBackend

PARAMS = SINRParameters.default()  # alpha=3, beta=1, N=1, P=1*1... range 1


@pytest.fixture(
    autouse=True,
    params=[False, True],
    ids=["k-numpy", "k-compiled"],
)
def kernel(request, monkeypatch):
    """Run every test in this module under both kernel implementations.

    The resolvers read :data:`repro.kernels.COMPILED` when called, so
    patching it flips the whole module without touching any call site.
    Without numba the compiled leg runs the un-jitted pure-python
    loops: slow but bitwise identical, which is exactly the contract
    under test.
    """
    monkeypatch.setattr(kernels, "COMPILED", request.param)
    return request.param


def _gains(positions):
    coords = np.asarray(positions, dtype=float)
    return UniformPower().gain(pairwise_distances(coords), coords, PARAMS)


class TestGainMatrix:
    def test_zero_diagonal(self):
        g = _gains([[0, 0], [1, 0], [2, 0]])
        assert np.all(np.diag(g) == 0)

    def test_inverse_power_law(self):
        g = _gains([[0, 0], [0.5, 0]])
        assert g[0, 1] == pytest.approx(PARAMS.power / 0.5 ** 3)

    def test_symmetric_for_uniform_power(self):
        g = _gains(np.random.default_rng(0).uniform(size=(6, 2)))
        assert np.allclose(g, g.T)


class TestResolveReception:
    def test_lone_transmitter_reaches_neighbors(self):
        g = _gains([[0, 0], [0.5, 0], [0.9, 0]])
        heard = resolve_reception(g, np.array([0]), PARAMS.noise, PARAMS.beta)
        assert heard[1] == 0
        assert heard[2] == 0  # 0.9 < r = 1, no interference
        assert heard[0] == NO_SENDER  # transmitters do not receive

    def test_out_of_range_not_heard(self):
        g = _gains([[0, 0], [1.5, 0]])
        heard = resolve_reception(g, np.array([0]), PARAMS.noise, PARAMS.beta)
        assert heard[1] == NO_SENDER

    def test_exactly_at_range_heard(self):
        # dist = 1 = r: SINR = P/(N * 1) = beta exactly -> received.
        g = _gains([[0, 0], [1.0, 0]])
        heard = resolve_reception(g, np.array([0]), PARAMS.noise, PARAMS.beta)
        assert heard[1] == 0

    def test_symmetric_colliders_destroy_each_other(self):
        # Two transmitters equidistant from the listener: SINR = g/(N+g) < 1.
        g = _gains([[0, 0], [1.0, 0], [0.5, 0.4]])
        heard = resolve_reception(
            g, np.array([0, 1]), PARAMS.noise, PARAMS.beta
        )
        assert heard[2] == NO_SENDER

    def test_capture_nearest_wins(self):
        # Very close transmitter survives a far co-transmitter.
        g = _gains([[0, 0], [0.1, 0], [1.0, 0]])
        heard = resolve_reception(
            g, np.array([0, 2]), PARAMS.noise, PARAMS.beta
        )
        assert heard[1] == 0

    def test_no_transmitters_nobody_hears(self):
        g = _gains([[0, 0], [0.5, 0]])
        heard = resolve_reception(
            g, np.array([], dtype=int), PARAMS.noise, PARAMS.beta
        )
        assert np.all(heard == NO_SENDER)

    def test_all_transmit_nobody_hears(self):
        g = _gains([[0, 0], [0.5, 0], [1.0, 0]])
        heard = resolve_reception(
            g, np.array([0, 1, 2]), PARAMS.noise, PARAMS.beta
        )
        assert np.all(heard == NO_SENDER)

    def test_at_most_one_sender_heard_with_beta_geq_one(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 3, size=(30, 2))
        g = _gains(coords)
        for _ in range(20):
            tx = np.flatnonzero(rng.random(30) < 0.2)
            heard = resolve_reception(g, tx, PARAMS.noise, PARAMS.beta)
            receivers = np.flatnonzero(heard != NO_SENDER)
            # every heard sender must actually transmit; receivers not
            for u in receivers:
                assert heard[u] in tx
                assert u not in tx

    def test_heard_sender_is_strongest(self):
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 2, size=(12, 2))
        g = _gains(coords)
        tx = np.array([0, 3, 7])
        heard, sinr = resolve_at(
            g, tx, np.arange(12), PARAMS.noise, PARAMS.beta
        )
        assert np.any(heard != NO_SENDER)
        for u in range(12):
            if u in tx:
                continue
            # The SINR reported is the strongest transmitter's ...
            strongest = g[tx, u].max()
            assert sinr[u] == pytest.approx(
                strongest / (PARAMS.noise + g[tx, u].sum() - strongest)
            )
            # ... and a heard sender is that transmitter.
            if heard[u] != NO_SENDER:
                assert g[heard[u], u] == strongest

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_repeated_transmitter_index_names_one_transmitter(
        self, backend
    ):
        # Station 1 hears station 0 over station 2's interference; a
        # repeated index must not count station 2 once per repeat.
        coords = np.array([[0.0, 0.0], [0.8, 0.0], [2.2, 0.0]])
        gain = (
            _gains(coords) if backend == "dense"
            else SparseGainBackend(coords, PARAMS, None, 4.0)
        )
        stations = np.arange(3)
        once = resolve_at(gain, [0, 2], stations, PARAMS.noise, PARAMS.beta)
        repeated = resolve_at(
            gain, [0, 2, 2, 2], stations, PARAMS.noise, PARAMS.beta
        )
        assert once[0][1] == 0
        for got, want in zip(repeated, once):
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(
            resolve_reception(gain, [0, 2, 2, 2], PARAMS.noise, PARAMS.beta),
            once[0],
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "bad", [-1, 4, 1.9], ids=["negative", "n", "fractional"]
    )
    @pytest.mark.parametrize(
        "resolve",
        [
            lambda g, tx: resolve_reception(
                g, tx, PARAMS.noise, PARAMS.beta
            ),
            lambda g, tx: resolve_at(
                g, tx, np.arange(4), PARAMS.noise, PARAMS.beta
            ),
            lambda g, tx: resolve_reception_many(
                g, [[0], tx], PARAMS.noise, PARAMS.beta
            ),
        ],
        ids=["resolve_reception", "resolve_at", "resolve_reception_many"],
    )
    def test_out_of_range_transmitter_index_rejected(
        self, backend, bad, resolve
    ):
        # A negative index must not wrap around: ``[-1]`` would name
        # station 3, which station 2 would then "hear"; ``[1.9]`` must
        # not be truncated to station 1.
        coords = np.array([[0.0, 0.0], [0.8, 0.0], [2.2, 0.0], [3.0, 0.0]])
        gain = (
            _gains(coords) if backend == "dense"
            else SparseGainBackend(coords, PARAMS)
        )
        with pytest.raises(
            ValueError,
            match=r"transmitter indices must be integers in \[0, 4\)",
        ):
            resolve(gain, [bad])

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "bad", [-1, 4, 1.9], ids=["negative", "n", "fractional"]
    )
    def test_out_of_range_listener_index_rejected(self, backend, bad):
        # ``[-1]`` must not report station 3's reception under the name
        # -1, nor ``[4]`` surface as an error from the backend's arrays,
        # nor ``[1.9]`` answer for listener 1.
        coords = np.array([[0.0, 0.0], [0.8, 0.0], [2.2, 0.0], [3.0, 0.0]])
        gain = (
            _gains(coords) if backend == "dense"
            else SparseGainBackend(coords, PARAMS)
        )
        with pytest.raises(
            ValueError,
            match=r"listener indices must be integers in \[0, 4\)",
        ):
            resolve_at(gain, [2], [bad], PARAMS.noise, PARAMS.beta)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "resolve",
        [
            lambda g, mask: resolve_reception(
                g, mask, PARAMS.noise, PARAMS.beta
            ),
            lambda g, mask: resolve_at(
                g, mask, np.arange(4), PARAMS.noise, PARAMS.beta
            ),
            lambda g, mask: resolve_at(
                g, [0], mask, PARAMS.noise, PARAMS.beta
            ),
            lambda g, mask: resolve_reception_many(
                g, [[0], mask], PARAMS.noise, PARAMS.beta
            ),
        ],
        ids=[
            "resolve_reception", "resolve_at-transmitters",
            "resolve_at-listeners", "resolve_reception_many",
        ],
    )
    def test_boolean_mask_rejected_as_indices(self, backend, resolve):
        # Read as indices, the mask below names stations 1, 0, 1, 0:
        # the round of transmitters {0, 1}, not {0, 2}.
        coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0]])
        gain = (
            _gains(coords) if backend == "dense"
            else SparseGainBackend(coords, PARAMS)
        )
        with pytest.raises(ValueError, match=r"must be integers in"):
            resolve(gain, np.array([True, False, True, False]))
        # An empty list (float64 to numpy) still names no station.
        assert np.all(
            resolve_reception(gain, [], PARAMS.noise, PARAMS.beta)
            == NO_SENDER
        )


class TestBatchedReception:
    """The ``(B, n)`` resolver agrees elementwise with the single form."""

    def _random_case(self, seed, n=20, B=8, density=0.25):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 2.5, size=(n, 2))
        g = _gains(coords)
        tx_mask = rng.random((B, n)) < density
        return g, tx_mask

    def test_matches_single_resolver_elementwise(self):
        for seed in range(8):
            g, tx_mask = self._random_case(seed)
            batched = resolve_reception_batch(
                g, tx_mask, PARAMS.noise, PARAMS.beta
            )
            for b in range(tx_mask.shape[0]):
                single = resolve_reception(
                    g, np.flatnonzero(tx_mask[b]), PARAMS.noise, PARAMS.beta
                )
                assert np.array_equal(batched[b], single), (seed, b)

    def test_matches_on_equal_gain_ties(self):
        # Symmetric geometry: equidistant transmitters have bitwise-equal
        # gains, so the tie-break (lowest index) must match the single
        # resolver exactly.
        g = _gains([[0, 0], [1, 0], [2, 0], [3, 0]])
        tx_mask = np.array(
            [[True, False, False, True], [False, True, True, False]]
        )
        batched = resolve_reception_batch(g, tx_mask, PARAMS.noise, 0.4)
        for b in range(2):
            single = resolve_reception(
                g, np.flatnonzero(tx_mask[b]), PARAMS.noise, 0.4
            )
            assert np.array_equal(batched[b], single)

    def test_half_duplex_across_batch(self):
        g, tx_mask = self._random_case(3, density=0.5)
        heard = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        assert np.all(heard[tx_mask] == NO_SENDER)

    def test_empty_transmitter_rows(self):
        g, tx_mask = self._random_case(4)
        tx_mask[2] = False  # one replication with nobody transmitting
        heard = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        assert np.all(heard[2] == NO_SENDER)

    def test_all_rows_empty(self):
        g = _gains([[0, 0], [0.5, 0]])
        tx_mask = np.zeros((3, 2), dtype=bool)
        heard = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        assert np.all(heard == NO_SENDER)

    def test_heard_senders_transmit_in_own_replication(self):
        # A replication must never hear a station that only transmits in
        # *another* replication of the batch.
        g, tx_mask = self._random_case(5, density=0.15)
        heard = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        for b in range(tx_mask.shape[0]):
            for u in np.flatnonzero(heard[b] != NO_SENDER):
                assert tx_mask[b, heard[b, u]]

    def test_slab_chunking_is_bitwise_neutral(self, monkeypatch):
        g, tx_mask = self._random_case(6, n=12, B=16)
        whole = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        monkeypatch.setattr(reception, "SLAB_ELEMENTS", 12 * 12)
        slabbed = resolve_reception_batch(
            g, tx_mask, PARAMS.noise, PARAMS.beta
        )
        assert np.array_equal(whole, slabbed)

    @pytest.mark.parametrize("budget", [1 << 19, 2 * 3 * 12 * 12, 12])
    def test_block_of_rounds_matches_its_rounds(self, monkeypatch, budget):
        # (R, B, n) rounds, with each round's own union: whole, in
        # slabs of whole rounds, and with every round split into rows.
        g, rows = self._random_case(9, n=12, B=18)
        rounds = rows.reshape(6, 3, 12)
        monkeypatch.setattr(reception, "SLAB_ELEMENTS", budget)
        block = resolve_reception_batch(
            g, rounds, PARAMS.noise, PARAMS.beta
        )
        assert block.shape == rounds.shape
        for r in range(6):
            assert np.array_equal(block[r], resolve_reception_batch(
                g, rounds[r], PARAMS.noise, PARAMS.beta
            ))

    def test_batch_size_is_bitwise_neutral(self):
        # Rows resolved inside a batch equal the same rows resolved alone.
        g, tx_mask = self._random_case(7)
        whole = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        for b in range(tx_mask.shape[0]):
            alone = resolve_reception_batch(
                g, tx_mask[b:b + 1], PARAMS.noise, PARAMS.beta
            )[0]
            assert np.array_equal(whole[b], alone)

    def test_sinr_values_batch_match(self):
        # A batched row is the single-round resolution of that round:
        # the same heard senders, and a station hears exactly where it
        # is silent and the reported SINR clears beta.
        g, tx_mask = self._random_case(8, B=4)
        heard = resolve_reception_batch(g, tx_mask, PARAMS.noise, PARAMS.beta)
        for b in range(4):
            tx = np.flatnonzero(tx_mask[b])
            sheard, ssinr = resolve_at(
                g, tx, np.arange(g.shape[0]), PARAMS.noise, PARAMS.beta
            )
            got = heard[b] != NO_SENDER
            assert got.any()
            assert np.array_equal(heard[b], sheard)
            assert np.array_equal(got, (ssinr >= PARAMS.beta) & ~tx_mask[b])

    def test_rejects_bad_shape(self):
        g = _gains([[0, 0], [0.5, 0]])
        with pytest.raises(ValueError):
            resolve_reception_batch(
                g, np.zeros((2, 3), dtype=bool), PARAMS.noise, PARAMS.beta
            )


class TestSinrValues:
    def test_empty_transmitters(self):
        g = _gains([[0, 0], [1, 0]])
        heard, sinr = resolve_at(
            g, np.array([], dtype=int), np.arange(2),
            PARAMS.noise, PARAMS.beta,
        )
        assert np.all(heard == NO_SENDER)
        assert np.all(sinr == 0)

    def test_matches_manual_sinr(self):
        # Station 1 sits midway between the two transmitters: the SINR
        # of either one there, and it clears no threshold >= 1.
        g = _gains([[0, 0], [0.6, 0], [1.2, 0]])
        tx = np.array([0, 2])
        heard, sinr = resolve_at(
            g, tx, np.arange(3), PARAMS.noise, PARAMS.beta
        )
        manual = g[0, 1] / (PARAMS.noise + g[2, 1])
        assert heard[1] == NO_SENDER
        assert sinr[1] == pytest.approx(manual)


class TestKernelEdgeCases:
    """Degenerate shapes where loop bounds and sentinels earn their keep.

    Each case also asserts numpy vs compiled bitwise equality within
    the one test, independent of the autouse parametrization — so a
    broken fixture cannot mask a divergence.
    """

    @staticmethod
    def _both(fn):
        results = []
        for compiled in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "COMPILED", compiled)
                results.append(fn())
        a, b = results
        assert np.array_equal(a, b)
        return a

    def test_single_station_transmitting(self):
        g = _gains([[0.0, 0.0]])  # n=1: the 1x1 zero matrix
        heard = self._both(
            lambda: resolve_reception(
                g, np.array([0]), PARAMS.noise, PARAMS.beta
            )
        )
        assert heard[0] == NO_SENDER  # half-duplex, nobody to hear it

    def test_single_station_silent(self):
        g = _gains([[0.0, 0.0]])
        heard = self._both(
            lambda: resolve_reception(
                g, np.array([], dtype=int), PARAMS.noise, PARAMS.beta
            )
        )
        assert heard[0] == NO_SENDER

    def test_all_transmit(self):
        g = _gains([[0, 0], [0.5, 0], [1.0, 0], [0.2, 0.4]])
        heard = self._both(
            lambda: resolve_reception(
                g, np.arange(4), PARAMS.noise, PARAMS.beta
            )
        )
        assert np.all(heard == NO_SENDER)

    def test_empty_transmitter_set_batched(self):
        g = _gains([[0, 0], [0.5, 0], [1.0, 0]])
        tx_mask = np.zeros((4, 3), dtype=bool)
        tx_mask[1, 0] = True  # one live row between empty ones
        heard = self._both(
            lambda: resolve_reception_batch(
                g, tx_mask, PARAMS.noise, PARAMS.beta
            )
        )
        assert np.all(heard[[0, 2, 3]] == NO_SENDER)
        assert heard[1, 1] == 0

    def test_single_listener(self):
        # Everyone but station 2 transmits: one listener, full channel.
        g = _gains([[0, 0], [3.0, 0], [0.3, 0.3]])
        heard = self._both(
            lambda: resolve_reception(
                g, np.array([0, 1]), PARAMS.noise, PARAMS.beta
            )
        )
        assert heard[2] == 0  # station 1 is too far to interfere
        assert heard[0] == heard[1] == NO_SENDER

    def test_equal_gain_tie_breaks_to_lowest_index(self):
        # Station 1 sits midway between transmitters 0 and 2: their
        # gains there are bitwise equal, and beta < 1 lets the tie be
        # heard, so the tie-break decides the sender.
        g = _gains([[0, 0], [1, 0], [2, 0]])
        heard = self._both(
            lambda: resolve_reception_batch(
                g, np.array([[True, False, True]]), PARAMS.noise, 0.4
            )
        )
        assert heard[0, 1] == 0
        # The single-round resolver is the batch's B = 1 row: the order
        # the transmitters are given in cannot move the tie-break.
        heard = self._both(
            lambda: resolve_reception(g, np.array([2, 0]), PARAMS.noise, 0.4)
        )
        assert heard[1] == 0

    def test_sparse_backend_edges(self):
        coords = np.random.default_rng(5).uniform(0, 3, size=(16, 2))
        backend = SparseGainBackend(coords, PARAMS, None, 1.5)
        for tx in (
            np.array([], dtype=int),        # empty transmitter set
            np.arange(16),                  # all transmit
            np.array([3]),                  # lone transmitter
        ):
            heard = self._both(
                lambda: resolve_reception(
                    backend, tx, PARAMS.noise, PARAMS.beta
                )
            )
            if tx.size in (0, 16):
                assert np.all(heard == NO_SENDER)


class TestRankCacheEviction:
    """The listener-ranking cache must keep matrices in active service.

    Regression for the defensive ``.clear()`` that wiped the whole cache
    (including rankings of still-live gain matrices) whenever a 33rd
    matrix appeared: eviction is now least-recently-used, so a matrix
    that keeps being ranked survives arbitrary churn of other matrices.
    """

    @staticmethod
    def _matrix(rng, n=6):
        g = rng.random((n, n))
        np.fill_diagonal(g, 0.0)
        return g

    def test_live_ranking_survives_32_plus_matrices(self):
        from repro.sinr.reception import (
            _RANK_CACHE,
            _RANK_CACHE_LIMIT,
            _listener_ranking,
        )

        rng = np.random.default_rng(3)
        live = self._matrix(rng)
        rank0, pos0 = _listener_ranking(live)
        others = []  # held alive: finalizers must not prune for us
        for _ in range(_RANK_CACHE_LIMIT + 8):
            other = self._matrix(rng)
            others.append(other)
            _listener_ranking(other)
            # The live matrix is ranked every round (the round-loop access
            # pattern); identity proves the cache entry survived.
            rank, pos = _listener_ranking(live)
            assert rank is rank0
            assert pos is pos0
        assert len(_RANK_CACHE) <= _RANK_CACHE_LIMIT

    def test_eviction_drops_least_recently_used_first(self):
        from repro.sinr.reception import (
            _RANK_CACHE,
            _RANK_CACHE_LIMIT,
            _listener_ranking,
        )

        rng = np.random.default_rng(4)
        cold = self._matrix(rng)
        cold_rank, _ = _listener_ranking(cold)
        churn = [self._matrix(rng) for _ in range(_RANK_CACHE_LIMIT)]
        for g in churn:
            _listener_ranking(g)
        # Never re-ranked while 32 fresh matrices arrived: evicted.
        assert id(cold) not in _RANK_CACHE
        new_rank, _ = _listener_ranking(cold)
        assert new_rank is not cold_rank
        assert np.array_equal(new_rank, cold_rank)

    def test_concurrent_churn_is_safe(self):
        # Regression for the unlocked LRU: concurrent rank lookups with
        # eviction churn could hit `move_to_end`/`popitem` races (KeyError
        # out of a *read* path).  The service drives resolvers from
        # executor threads, so hammer the cache from several threads past
        # its limit and require clean results and a bounded cache.
        import threading

        from repro.sinr.reception import (
            _RANK_CACHE,
            _RANK_CACHE_LIMIT,
            _listener_ranking,
        )

        live = self._matrix(np.random.default_rng(5))
        expect_rank, expect_pos = _listener_ranking(live)
        expect_rank = expect_rank.copy()
        expect_pos = expect_pos.copy()
        errors: list = []

        def churn(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(_RANK_CACHE_LIMIT):
                    _listener_ranking(self._matrix(rng))
                    rank, pos = _listener_ranking(live)
                    if not (
                        np.array_equal(rank, expect_rank)
                        and np.array_equal(pos, expect_pos)
                    ):
                        raise AssertionError("corrupt ranking under churn")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(100 + t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(_RANK_CACHE) <= _RANK_CACHE_LIMIT


class TestResolveReceptionMany:
    """The service's serving oracle: heterogeneous sets, batched once.

    Every row must be bitwise identical to resolving that transmitter
    set alone through the batched resolver — that is the contract that
    makes the daemon's request coalescing semantically invisible.
    """

    def _case(self, seed, n=10, sets=5):
        rng = np.random.default_rng(seed)
        g = _gains(rng.uniform(0, 1.5, size=(n, 2)))
        transmitter_sets = [
            np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.5))
            for _ in range(sets)
        ]
        transmitter_sets.append(np.array([], dtype=int))  # empty set row
        transmitter_sets.append(np.arange(n))             # all-transmit row
        return g, transmitter_sets

    def test_rows_match_singleton_batches(self):
        from repro.sinr.reception import resolve_reception_many

        g, sets = self._case(9)
        many = resolve_reception_many(g, sets, PARAMS.noise, PARAMS.beta)
        assert len(many) == len(sets)
        for tx, heard in zip(sets, many):
            mask = np.zeros((1, g.shape[0]), dtype=bool)
            mask[0, tx] = True
            alone = resolve_reception_batch(
                g, mask, PARAMS.noise, PARAMS.beta
            )[0]
            assert np.array_equal(heard, alone)

    def test_ragged_sets_accepted(self):
        from repro.sinr.reception import resolve_reception_many

        g, _ = self._case(10, n=6)
        many = resolve_reception_many(
            g, [[0], [0, 1, 2], []], PARAMS.noise, PARAMS.beta
        )
        assert [m.shape for m in many] == [(6,), (6,), (6,)]
        assert np.all(many[2] == NO_SENDER)

    def test_empty_request_list(self):
        from repro.sinr.reception import resolve_reception_many

        g, _ = self._case(11, n=4)
        assert resolve_reception_many(g, [], PARAMS.noise, PARAMS.beta) == []

    def test_sparse_backend_rows_match(self):
        from repro.sinr.reception import resolve_reception_many

        rng = np.random.default_rng(12)
        coords = rng.uniform(0, 2.0, size=(14, 2))
        backend = SparseGainBackend(coords, PARAMS, None, 1.5)
        sets = [np.array([0, 5]), np.array([], dtype=int), np.arange(7)]
        many = resolve_reception_many(
            backend, sets, PARAMS.noise, PARAMS.beta
        )
        for tx, heard in zip(sets, many):
            mask = np.zeros((1, 14), dtype=bool)
            mask[0, tx] = True
            alone = backend.resolve_reception_batch(
                mask, PARAMS.noise, PARAMS.beta
            )[0]
            assert np.array_equal(heard, alone)


class TestExactCancellation:
    """``noise + total`` rounds to the signal: the SINR's denominator is 0.

    On a geometric chain a transmitter sits 2**-k from its neighbour,
    so its gain dwarfs the noise and every far co-transmitter, and the
    fold's ``(noise + total) - signal`` cancels to exactly zero.  The
    SINR then reads ``+inf`` without a ``RuntimeWarning``, and every
    decision matches ``signal / (noise + the other transmitters' gains
    summed on their own)``.
    """

    ROUNDS = ([38], [37, 38], [0, 20, 39], [5, 6, 30], [12, 25, 33, 38])

    def _reference(self, gains, tx, noise, beta):
        n = gains.shape[0]
        expected = np.full(n, NO_SENDER)
        for u in range(n):
            if u in tx:
                continue
            g = gains[tx, u]
            best = int(np.argmax(g))  # the first maximum: lowest index
            other = sum(float(x) for k, x in enumerate(g) if k != best)
            if g[best] / (noise + other) >= beta:
                expected[u] = tx[best]
        return expected

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_chain_decisions_without_warnings(self, backend):
        chain = geometric_chain(40, ratio=0.5, first_gap=0.5)
        net = Network(chain.coords, backend=backend, cutoff=2.0)
        gains = Network(chain.coords, backend="dense").gains
        noise, beta = net.params.noise, net.params.beta
        stations = np.arange(net.size)
        masks = np.zeros((len(self.ROUNDS), net.size), dtype=bool)
        for b, tx in enumerate(self.ROUNDS):
            masks[b, tx] = True
        saw_inf = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = resolve_reception_batch(
                net.gain_operator, masks, noise, beta
            )
            for b, tx in enumerate(self.ROUNDS):
                expected = self._reference(gains, tx, noise, beta)
                assert np.array_equal(batch[b], expected), tx
                heard, sinr = resolve_at(
                    net.gain_operator, tx, stations, noise, beta
                )
                assert np.array_equal(heard, expected), tx
                saw_inf |= bool(np.isinf(sinr).any())
                (many,) = resolve_reception_many(
                    net.gain_operator, [np.asarray(tx)], noise, beta
                )
                assert np.array_equal(many, expected), tx
        assert saw_inf
