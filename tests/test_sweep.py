"""Tests for the batched multi-seed sweep engine."""

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.errors import ProtocolError
from repro.fastsim import (
    fast_adhoc_wakeup_batch,
    fast_coloring_batch,
    fast_consensus_batch,
    fast_leader_election_batch,
    fast_nospont_broadcast_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
    run_sweep,
    spawn_rngs,
    sweep_kinds,
)
from repro.sim.wakeup import WakeupSchedule


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


class TestSpawnRngs:
    def test_independent(self):
        a, b = spawn_rngs(2, seed=1)
        assert a.random() != b.random()

    def test_reproducible(self):
        a1 = [g.random() for g in spawn_rngs(3, seed=5)]
        a2 = [g.random() for g in spawn_rngs(3, seed=5)]
        assert a1 == a2

    def test_rejects_zero_replications(self):
        with pytest.raises(ProtocolError):
            spawn_rngs(0, seed=1)


class TestRunSweepDispatch:
    def test_kinds_listed(self):
        kinds = sweep_kinds()
        for expected in (
            "coloring", "spont_broadcast", "nospont_broadcast",
            "uniform_broadcast", "decay_broadcast", "local_broadcast",
            "adhoc_wakeup", "colored_wakeup", "consensus",
            "leader_election",
        ):
            assert expected in kinds

    def test_unknown_kind(self, small_square):
        with pytest.raises(ProtocolError):
            run_sweep("teleportation", small_square, 2, 0)

    def test_result_shape(self, small_square, constants):
        result = run_sweep(
            "spont_broadcast", small_square, 3, 7, constants, source=0
        )
        assert result.n_replications == 3
        assert result.kind == "spont_broadcast"
        assert result.seed == 7
        assert len(result.outcomes) == 3
        assert result.rounds.shape == (3,)
        assert 0.0 <= result.success_rate() <= 1.0

    def test_mean_rounds_over_successes(self, small_square, constants):
        result = run_sweep(
            "uniform_broadcast", small_square, 3, 7, q=0.2, source=0
        )
        if result.success.any():
            assert result.mean_rounds() == pytest.approx(
                float(np.mean(result.rounds[result.success]))
            )

    def test_coloring_sweep_deterministic_rounds(self, small_square,
                                                 constants):
        result = run_sweep("coloring", small_square, 2, 3, constants)
        assert np.all(result.success)
        assert np.all(
            result.rounds
            == constants.coloring_total_rounds(small_square.size)
        )


class TestSweepEqualsSequentialLoop:
    """Spot checks of the exact-equality contract (hypothesis tests in
    ``test_hypothesis_sweep.py`` cover random deployments)."""

    B = 4
    SEED = 2014

    def test_spont_broadcast(self, small_square, constants):
        sweep = run_sweep(
            "spont_broadcast", small_square, self.B, self.SEED,
            constants, source=0,
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_spont_broadcast_batch(
                small_square, 0, constants, [rng]
            )[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds
            assert out.success == single.success

    def test_nospont_broadcast(self, small_chain, constants):
        # The phase loop is the only kernel mixing per-phase participant
        # masks with per-replication retirement — keep it covered at B>1.
        sweep = run_sweep(
            "nospont_broadcast", small_chain, self.B, self.SEED,
            constants, source=0,
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_nospont_broadcast_batch(
                small_chain, 0, constants, [rng]
            )[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds
            assert out.extras["phases_used"] == single.extras["phases_used"]

    def test_uniform_broadcast(self, small_chain):
        sweep = run_sweep(
            "uniform_broadcast", small_chain, self.B, self.SEED,
            q=0.3, source=0,
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_uniform_broadcast_batch(
                small_chain, 0, [rng], q=0.3
            )[0]
            assert np.array_equal(out.informed_round, single.informed_round)

    def test_coloring(self, small_square, constants):
        sweep = run_sweep("coloring", small_square, self.B, self.SEED,
                          constants)
        for res, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_coloring_batch(
                small_square, constants, [rng]
            ).replication(0)
            assert np.array_equal(res.quit_levels, single.quit_levels)
            assert np.allclose(res.colors, single.colors, equal_nan=True)

    def test_adhoc_wakeup(self, small_chain, constants):
        schedule = WakeupSchedule.staggered(
            small_chain.size, spread=40,
            rng=np.random.default_rng(0), fraction=0.5,
        )
        sweep = run_sweep(
            "adhoc_wakeup", small_chain, self.B, self.SEED, constants,
            schedule=schedule,
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_adhoc_wakeup_batch(
                small_chain, schedule, constants, [rng]
            )[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds

    @pytest.mark.slow
    def test_consensus_with_drawn_values(self, small_chain, constants):
        x_max = 7
        sweep = run_sweep(
            "consensus", small_chain, self.B, self.SEED, constants,
            x_max=x_max,
        )
        for res, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            values = rng.integers(0, x_max + 1, size=small_chain.size)
            single = fast_consensus_batch(
                small_chain, values.tolist(), x_max, constants, [rng]
            )[0]
            assert np.array_equal(res.decided, single.decided)
            assert res.total_rounds == single.total_rounds
            assert res.rounds_per_bit == single.rounds_per_bit

    @pytest.mark.slow
    def test_leader_election(self, small_chain, constants):
        sweep = run_sweep(
            "leader_election", small_chain, self.B, self.SEED, constants
        )
        for res, rng in zip(sweep.outcomes, spawn_rngs(self.B, self.SEED)):
            single = fast_leader_election_batch(
                small_chain, constants, [rng]
            )[0]
            assert res.leader == single.leader
            assert np.array_equal(res.ids, single.ids)
            assert res.total_rounds == single.total_rounds
