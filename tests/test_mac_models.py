"""Cross-MAC conformance suite (models, sessions, kernels, E16).

The contracts pinned here, per DESIGN.md §11:

* **SlottedAloha is the regression anchor** — every protocol kind run
  under the default model is bitwise identical to a bare run.
* **CSMA invariants** — no station transmits while a sense-neighbour
  holds a strictly earlier backoff sub-slot (it would have heard the
  carrier); hidden pairs are never serialized and can still collide.
* **TDMA invariants** — the slot schedule is a proper coloring of the
  interference graph: no two interference-adjacent stations share a
  slot.
* **Batched == sequential** — a batched sweep under any MAC equals a
  sequential loop of single-instance runs with fresh media (round-keyed
  arbitration makes this exact, not statistical).
* **Cache-key separation** — ``mac=`` kwargs land in grid point keys
  through the model's ``identity()``; no MAC can replay a bare sweep's
  cached results, or another MAC's.

Property quantification lives in ``tests/test_hypothesis_mac.py``; the
E16 experiment rides here end to end (its metrics are the acceptance
bar of the hidden-node story).
"""

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import BrownianDrift
from repro.errors import GeometryError, ProtocolError
from repro.fastsim import run_sweep, spawn_rngs
from repro.fastsim.broadcast import fast_spont_broadcast_batch
from repro.fastsim.cache import fingerprint_bytes, point_key
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import Medium
from repro.mac import (
    CSMA,
    MacModel,
    RateTable,
    SlottedAloha,
    TdmaFromColoring,
    derive_sense_range,
    round_rng,
)
from repro.network.network import Network
from repro.sim.wakeup import WakeupSchedule
from repro.sinr.channel import LogNormalShadowing
from repro.sinr.params import SINRParameters


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


def _net(n=24, side=1.8, seed=3, **kwargs):
    rng = np.random.default_rng(seed)
    return Network(rng.uniform(0, side, size=(n, 2)), **kwargs)


def _hidden_triple():
    """A-R-B: senders in comm range of R, out of sense range of each
    other (the E16 hidden cluster, sense range 1.0 < 1.30)."""
    return Network(np.array([[0.0, 0.0], [0.65, 0.0], [1.30, 0.0]]))


class TestModels:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            SlottedAloha(0.0)
        with pytest.raises(ProtocolError):
            SlottedAloha(1.5)
        with pytest.raises(ProtocolError):
            CSMA(sense_range=-1.0)
        with pytest.raises(ProtocolError):
            CSMA(cw=0)
        with pytest.raises(ProtocolError):
            CSMA(persist=0.0)
        with pytest.raises(ProtocolError):
            TdmaFromColoring(interference_scale=0.0)
        # NaN fails every comparison, so it must not slip past a check
        # written as "reject if <= 0" (no sensing, a one-slot frame).
        with pytest.raises(ProtocolError):
            CSMA(sense_range=float("nan"))
        with pytest.raises(ProtocolError):
            TdmaFromColoring(interference_scale=float("nan"))

    def test_identity_separates_models_and_knobs(self):
        models = [
            SlottedAloha(),
            SlottedAloha(0.5),
            SlottedAloha(0.5, seed=1),
            CSMA(),
            CSMA(seed=1),
            CSMA(cw=16),
            CSMA(persist=0.5),
            CSMA(sense_range=0.9),
            CSMA(sense_threshold=2.0),
            TdmaFromColoring(),
            TdmaFromColoring(seed=1),
            TdmaFromColoring(interference_scale=3.0),
        ]
        assert len({m.identity() for m in models}) == len(models)
        assert len({m.fingerprint() for m in models}) == len(models)

    def test_equality_and_repr(self):
        assert CSMA(cw=16, seed=2) == CSMA(cw=16, seed=2)
        assert CSMA(cw=16, seed=2) != CSMA(cw=16, seed=3)
        assert "csma" in repr(CSMA())
        assert "slotted-aloha" in repr(SlottedAloha())
        assert isinstance(TdmaFromColoring(), MacModel)

    def test_hashable_on_identity(self):
        pool = {
            CSMA(cw=16, seed=2), CSMA(cw=16, seed=2), CSMA(cw=16, seed=3),
            SlottedAloha(), TdmaFromColoring(),
            RateTable(), RateTable(),
        }
        assert len(pool) == 5
        assert hash(CSMA(cw=16, seed=2)) == hash(CSMA(cw=16, seed=2))

    def test_fingerprint_bytes_uses_model_identity(self):
        a = fingerprint_bytes(CSMA(cw=16, seed=4))
        b = fingerprint_bytes(CSMA(cw=16, seed=4))
        c = fingerprint_bytes(CSMA(cw=16, seed=5))
        assert a == b != c

    def test_round_rng_is_pure_function_of_round(self):
        assert round_rng(3, 7).random() == round_rng(3, 7).random()
        assert round_rng(3, 7).random() != round_rng(3, 8).random()
        assert round_rng(3, 7).random() != round_rng(4, 7).random()


class TestSenseRange:
    def test_derivation_matches_closed_form(self):
        # P d^-alpha = N  =>  d = (P/N)^(1/alpha) = beta^(1/alpha) * r.
        net = _net()
        p = net.params
        expected = (p.power / p.noise) ** (1.0 / p.alpha)
        assert derive_sense_range(net) == pytest.approx(expected, abs=1e-9)

    def test_threshold_override(self):
        net = _net()
        p = net.params
        expected = (p.power / (2.0 * p.noise)) ** (1.0 / p.alpha)
        assert derive_sense_range(net, 2.0 * p.noise) == pytest.approx(
            expected, abs=1e-9
        )

    def test_wider_than_comm_radius(self):
        net = _net()
        assert derive_sense_range(net) > net.params.comm_radius

    def test_non_radial_channel_requires_explicit_range(self):
        net = _net(channel=LogNormalShadowing(sigma_db=2.0, seed=0))
        with pytest.raises(ProtocolError):
            derive_sense_range(net)
        with pytest.raises(ProtocolError):
            CSMA().session(net)
        # An explicit range sidesteps the derivation entirely.
        session = CSMA(sense_range=1.0).session(net)
        assert session.sense_range == 1.0

    def test_bad_threshold(self):
        with pytest.raises(ProtocolError):
            derive_sense_range(_net(), 0.0)

    def test_pairs_within_matches_distances(self):
        net = _net()
        ii, jj = net.pairs_within(0.8)
        dense = set(
            zip(*np.nonzero(np.triu(net.distances <= 0.8, k=1)))
        )
        assert set(zip(ii.tolist(), jj.tolist())) == dense
        with pytest.raises(GeometryError):
            net.pairs_within(-0.1)

    @pytest.mark.parametrize("radius", [0.8, 3.0])
    def test_pairs_within_sparse_matches_dense(self, radius):
        # radius 0.8 <= cutoff delegates to the CSR backend; radius 3.0
        # exceeds it and takes the chunked brute-force fallback.
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 2.5, size=(48, 2))
        dense = Network(coords)
        sparse = Network(coords, backend="sparse", cutoff=1.0)
        expected = set(
            zip(*np.nonzero(np.triu(dense.distances <= radius, k=1)))
        )
        ii, jj = sparse.pairs_within(radius)
        assert set(zip(ii.tolist(), jj.tolist())) == expected

    def test_unbounded_sense_range_rejected(self):
        # A threshold the power-law gain never undercuts within the
        # doubling probe: the range would be unbounded.
        with pytest.raises(ProtocolError, match="unbounded"):
            derive_sense_range(_net(), 1e-300)


class TestAloha:
    def test_default_is_identity_filter(self):
        net = _net()
        session = SlottedAloha().session(net)
        intents = np.random.default_rng(0).random((2, net.size)) < 0.5
        assert np.array_equal(session.transmit_mask(0, intents, net), intents)

    def test_persistence_thins_and_replays(self):
        net = _net()
        model = SlottedAloha(0.4, seed=9)
        intents = np.ones((1, net.size), dtype=bool)
        a = model.session(net).transmit_mask(5, intents, net)
        b = model.session(net).transmit_mask(5, intents, net)
        assert np.array_equal(a, b)
        assert 0 < a.sum() < net.size
        # A different round draws a different gate.
        c = model.session(net).transmit_mask(6, intents, net)
        assert not np.array_equal(a, c)


class TestCsma:
    def test_never_transmit_against_earlier_sense_neighbour(self):
        net = _net(n=40, side=1.6, seed=5)
        model = CSMA(seed=2)
        session = model.session(net)
        intents = np.ones((1, net.size), dtype=bool)
        for round_no in range(6):
            tx = session.transmit_mask(round_no, intents, net)[0]
            backoff = session.round_backoff(round_no)
            for i, j in zip(
                session.sense_i.tolist(), session.sense_j.tolist()
            ):
                if tx[i] and tx[j]:
                    assert backoff[i] == backoff[j]
                if tx[i] and not tx[j]:
                    assert backoff[i] <= backoff[j]

    def test_hidden_pair_always_transmits_and_collides(self):
        from repro.sinr.reception import NO_SENDER, resolve_reception

        net = _hidden_triple()
        session = CSMA(seed=1).session(net)
        # A and B are out of each other's sense range: arbitration
        # never serializes them.
        intents = np.array([[True, False, True]])
        for round_no in range(8):
            tx = session.transmit_mask(round_no, intents, net)
            assert np.array_equal(tx, intents)
        heard = resolve_reception(
            net.gain_operator, np.array([0, 2]), net.params.noise,
            net.params.beta,
        )
        assert heard[1] == NO_SENDER  # equidistant senders: collision

    def test_sensed_pair_is_serialized(self):
        # Both senders inside sense range: at most one transmits unless
        # their backoffs tie.
        net = Network(np.array([[0.0, 0.0], [0.55, 0.0], [0.9, 0.0]]))
        session = CSMA(seed=3).session(net)
        intents = np.array([[True, False, True]])
        ties = both = 0
        for round_no in range(32):
            tx = session.transmit_mask(round_no, intents, net)[0]
            backoff = session.round_backoff(round_no)
            if tx[0] and tx[2]:
                both += 1
                assert backoff[0] == backoff[2]
            ties += int(backoff[0] == backoff[2])
        assert both == ties  # simultaneous starts are exactly the ties

    def test_transmitters_subset_of_intents(self):
        net = _net(n=30, seed=11)
        session = CSMA(persist=0.7, seed=4).session(net)
        intents = np.random.default_rng(1).random((3, net.size)) < 0.6
        tx = session.transmit_mask(2, intents, net)
        assert not np.any(tx & ~intents)


class TestTdma:
    def test_schedule_is_proper_interference_coloring(self):
        net = _net(n=36, side=1.5, seed=7)
        session = TdmaFromColoring(seed=2).session(net)
        ii, jj = session.interference_pairs
        assert ii.size > 0
        assert np.all(session.slots[ii] != session.slots[jj])
        assert session.frame == int(session.slots.max()) + 1
        assert np.all(session.slots >= 0)

    def test_hidden_pair_never_shares_a_slot(self):
        net = _hidden_triple()
        session = TdmaFromColoring(seed=0).session(net)
        # A and B cannot sense each other yet are interference-graph
        # neighbours (1.30 <= 2 * 0.7): the schedule separates them.
        assert session.slots[0] != session.slots[2]

    def test_transmit_only_in_own_slot(self):
        net = _net(n=20, seed=9)
        session = TdmaFromColoring(seed=1).session(net)
        intents = np.ones((2, net.size), dtype=bool)
        seen = np.zeros(net.size, dtype=bool)
        for round_no in range(session.frame):
            tx = session.transmit_mask(round_no, intents, net)
            expect = session.slots == (round_no % session.frame)
            assert np.array_equal(tx[0], expect)
            assert np.array_equal(tx[1], expect)
            seen |= tx[0]
        assert seen.all()  # every station owns a slot in each frame

    def test_schedule_reproducible_for_fixed_seed(self):
        net = _net(n=28, seed=13)
        a = TdmaFromColoring(seed=5).session(net)
        b = TdmaFromColoring(seed=5).session(net)
        assert np.array_equal(a.slots, b.slots)


class TestRateTable:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(), rates=())
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(2.0, 2.0), rates=(2, 3))
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(4.0, 2.0), rates=(2, 3))
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(2.0,), rates=(0,))
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(2.0, 4.0), rates=(2,))
        # A NaN threshold is never reached; an infinite one never cleared.
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(2.0, float("nan")), rates=(2, 3))
        with pytest.raises(ProtocolError):
            RateTable(thresholds=(2.0, float("inf")), rates=(2, 3))

    def test_rate_lookup(self):
        table = RateTable(thresholds=(2.0, 4.0, 8.0), rates=(2, 3, 4))
        assert table.rate_for(0.5) == 1
        assert table.rate_for(1.99) == 1
        assert table.rate_for(2.0) == 2  # thresholds are inclusive
        assert table.rate_for(5.0) == 3
        assert table.rate_for(100.0) == 4

    def test_identity_and_equality(self):
        a = RateTable()
        b = RateTable()
        c = RateTable(thresholds=(3.0,), rates=(2,))
        assert a == b and a != c
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()
        assert fingerprint_bytes(a) != fingerprint_bytes(c)
        assert "RateTable" in repr(a)


class TestAlohaAnchor:
    """Default SlottedAloha is bitwise invisible on every protocol kind."""

    B = 2
    SEED = 17

    def _pair(self, kind, network, constants, **kwargs):
        bare = run_sweep(
            kind, network, self.B, self.SEED, constants, **kwargs
        )
        anchored = run_sweep(
            kind, network, self.B, self.SEED, constants,
            mac=SlottedAloha(), **kwargs,
        )
        assert np.array_equal(bare.rounds, anchored.rounds, equal_nan=True)
        assert np.array_equal(bare.success, anchored.success)

    def test_broadcast_kinds(self, small_square, constants):
        for kind in (
            "spont_broadcast", "nospont_broadcast", "uniform_broadcast",
            "decay_broadcast", "local_broadcast",
        ):
            self._pair(kind, small_square, constants, source=0)

    def test_coloring(self, small_square, constants):
        self._pair("coloring", small_square, constants)

    def test_adhoc_wakeup(self, small_chain, constants):
        schedule = WakeupSchedule.staggered(
            small_chain.size, spread=30,
            rng=np.random.default_rng(0), fraction=0.5,
        )
        self._pair("adhoc_wakeup", small_chain, constants,
                   schedule=schedule)

    def test_colored_wakeup(self, small_chain, constants):
        colors = fast_coloring_batch(
            small_chain, constants, [np.random.default_rng(5)]
        ).replication(0).colors
        self._pair(
            "colored_wakeup", small_chain, constants,
            initiators=[0], base_colors=np.nan_to_num(colors),
        )

    @pytest.mark.slow
    def test_consensus_and_leader(self, small_chain, constants):
        self._pair("consensus", small_chain, constants, x_max=3)
        self._pair("leader_election", small_chain, constants)


class TestBatchedEqualsSequential:
    """Batched kernels under a real MAC equal a sequential loop with a
    fresh medium per replication (round-keyed arbitration makes the MAC
    stream independent of batch composition)."""

    B = 3
    SEED = 23

    @pytest.mark.parametrize("model", [
        SlottedAloha(0.8, seed=1),
        CSMA(persist=0.9, seed=1),
        TdmaFromColoring(seed=1),
    ], ids=["aloha", "csma", "tdma"])
    def test_spont_broadcast(self, small_square, constants, model):
        sweep = run_sweep(
            "spont_broadcast", small_square, self.B, self.SEED,
            constants, source=0, mac=model,
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_spont_broadcast_batch(
                small_square, 0, constants, [rng],
                medium=Medium(small_square, mac=model),
            )[0]
            assert np.array_equal(
                out.informed_round, single.informed_round
            )
            assert out.total_rounds == single.total_rounds
            assert out.success == single.success

    def test_mac_sweep_reproducible(self, small_square, constants):
        a = run_sweep(
            "spont_broadcast", small_square, 3, seed=5, source=0,
            mac=CSMA(persist=0.9, seed=7),
        )
        b = run_sweep(
            "spont_broadcast", small_square, 3, seed=5, source=0,
            mac=CSMA(persist=0.9, seed=7),
        )
        assert np.array_equal(a.rounds, b.rounds, equal_nan=True)


class TestMediumContract:
    def test_medium_intersects_with_intents(self):
        # Even a session returning all-ones may only remove, never add.
        net = _net(n=8, seed=1)

        class Loud(SlottedAloha):
            def session(self, network):
                model = self

                class S:
                    def transmit_mask(self, round_no, intents, network):
                        return np.ones_like(intents)

                return S()

        medium = Medium(net, mac=Loud())
        intents = np.zeros((1, net.size), dtype=bool)
        intents[0, 2] = True
        transmitted, _ = medium.resolve(0, intents)
        assert np.array_equal(transmitted, intents)

    def test_medium_owns_one_session(self):
        net = _net(n=10, seed=2)
        built = []

        class Counted(TdmaFromColoring):
            def session(self, network):
                built.append(network)
                return super().session(network)

        medium = Medium(
            net, mobility=BrownianDrift(0.3, seed=1), mac=Counted(seed=4)
        )
        intents = np.ones((1, net.size), dtype=bool)
        first, _ = medium.resolve(0, intents)
        # A moved deployment must not rebuild the schedule.
        again, _ = medium.resolve(0, intents)
        assert np.array_equal(first, again)
        # One session, built on the first round's network, i.e. after
        # that round's mobility step.
        assert len(built) == 1 and built[0] is not net


class TestSweepIntegration:
    def test_cache_keys_split_bare_and_models(self, small_square):
        def key(kwargs):
            return point_key(
                kind="spont_broadcast",
                network_fingerprint=small_square.fingerprint(),
                constants=None,
                seed=1,
                n_replications=2,
                kwargs=kwargs,
            )

        keys = {
            key({"source": 0}),
            key({"source": 0, "mac": SlottedAloha(0.5, seed=1)}),
            key({"source": 0, "mac": SlottedAloha(0.5, seed=2)}),
            key({"source": 0, "mac": CSMA(seed=1)}),
            key({"source": 0, "mac": TdmaFromColoring(seed=1)}),
        }
        assert len(keys) == 5


class TestE16:
    def test_registered(self):
        from repro.experiments.registry import list_experiments

        assert "E16" in list_experiments()

    def test_quick_metrics_hold(self, tmp_path):
        from repro.experiments.registry import get_experiment
        from repro.fastsim.grid import GridOptions, set_default_grid_options

        try:
            set_default_grid_options(
                GridOptions(jobs=1, cache_dir=str(tmp_path))
            )
            report = get_experiment("E16")(scale="quick")
        finally:
            set_default_grid_options(GridOptions())
        # The asymmetry: hidden flows collide an order of magnitude more
        # than sensed ones under CSMA.
        assert report.metrics["csma_asymmetry"] > 5.0
        # The control: without sensing the sensed cluster collides too.
        assert (
            report.metrics["aloha_sensed_collisions"]
            > 4 * report.metrics["csma_sensed_collisions"]
        )
        # The paper's answer: interference-graph TDMA is conflict-free
        # and beats CSMA exactly where sensing is blind.
        assert report.metrics["tdma_collision_free"] is True
        assert report.metrics["tdma_beats_csma_hidden"] is True
        assert report.metrics["tdma_jain"] == pytest.approx(1.0)
        assert report.metrics["all_conserved"] is True

    def test_quick_jobs_identity_and_cache_replay(self, tmp_path):
        from repro.experiments.registry import get_experiment
        from repro.fastsim.grid import (
            GridOptions,
            last_grid_stats,
            set_default_grid_options,
        )

        run = get_experiment("E16")
        try:
            set_default_grid_options(
                GridOptions(jobs=1, cache_dir=str(tmp_path))
            )
            serial = run(scale="quick", seed=91)
            set_default_grid_options(
                GridOptions(jobs=2, cache_dir=str(tmp_path))
            )
            replayed = run(scale="quick", seed=91)
            stats = last_grid_stats()
            assert stats["cached"] == stats["points"] > 0
            set_default_grid_options(GridOptions(jobs=2, cache_dir=None))
            parallel = run(scale="quick", seed=91)
        finally:
            set_default_grid_options(GridOptions())
        assert serial.metrics == replayed.metrics == parallel.metrics
        assert serial.rows == parallel.rows
