"""Tests for the vectorized Sect. 5 applications.

Unit behaviour of ``fast_adhoc_wakeup_batch`` /
``fast_colored_wakeup_batch`` / ``fast_consensus_batch`` /
``fast_leader_election_batch`` on single runs (one-element generator
lists), plus cross-validation against the ``repro.core`` reference
implementations in the style of the coloring/broadcast checks in
``test_fastsim.py``: identical
termination/safety properties on every trial, and round-count
distributions on the same scale (the statistical-equivalence contract of
DESIGN.md §6).  The heavier distribution comparisons carry the ``slow``
marker so CI's fast lane can skip them.
"""

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.core.consensus import run_consensus
from repro.core.leader_election import run_leader_election
from repro.core.outcome import NEVER_INFORMED
from repro.core.wakeup import run_adhoc_wakeup, run_colored_wakeup
from repro.deploy import uniform_chain
from repro.errors import ProtocolError
from repro.fastsim import (
    fast_adhoc_wakeup_batch,
    fast_colored_wakeup_batch,
    fast_coloring_batch,
    fast_consensus_batch,
    fast_leader_election_batch,
)
from repro.sim.wakeup import WakeupSchedule


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


@pytest.fixture(scope="module")
def chain():
    return uniform_chain(8, gap=0.5)


@pytest.fixture(scope="module")
def chain_colors(chain, constants):
    result = fast_coloring_batch(
        chain, constants, [np.random.default_rng(5)]
    ).replication(0)
    return np.where(np.isnan(result.colors), 0.0, result.colors)


class TestFastAdhocWakeup:
    def test_single_waker_wakes_all(self, chain, constants, rng):
        schedule = WakeupSchedule.single(chain.size, 0)
        out = fast_adhoc_wakeup_batch(chain, schedule, constants, [rng])[0]
        assert out.success
        assert out.extras["wakeup_time"] >= 0
        assert out.completion_round == int(out.informed_round.max())

    def test_all_at_zero_instant(self, chain, constants, rng):
        schedule = WakeupSchedule.all_at(chain.size)
        out = fast_adhoc_wakeup_batch(chain, schedule, constants, [rng])[0]
        assert out.success
        assert out.extras["wakeup_time"] == 0

    def test_staggered_wakes_all(self, chain, constants, rng):
        schedule = WakeupSchedule.staggered(
            chain.size, spread=50, rng=rng, fraction=0.5
        )
        out = fast_adhoc_wakeup_batch(chain, schedule, constants, [rng])[0]
        assert out.success

    def test_wake_time_measured_from_first_wake(self, chain, constants, rng):
        schedule = WakeupSchedule.single(chain.size, 0, round_no=40)
        out = fast_adhoc_wakeup_batch(chain, schedule, constants, [rng])[0]
        assert out.success
        assert out.extras["first_wake"] == 40
        assert (
            out.extras["wakeup_time"] == out.completion_round - 40
        )

    def test_budget_failure_reported(self, chain, constants, rng):
        schedule = WakeupSchedule.single(chain.size, 0)
        out = fast_adhoc_wakeup_batch(
            chain, schedule, constants, [rng], round_budget=2
        )[0]
        assert not out.success
        assert out.completion_round == NEVER_INFORMED
        assert out.extras["wakeup_time"] == -1

    def test_schedule_size_mismatch(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            fast_adhoc_wakeup_batch(
                chain, WakeupSchedule.single(chain.size + 1, 0),
                constants, [rng],
            )

    def test_reproducible(self, chain, constants):
        schedule = WakeupSchedule.single(chain.size, 0)
        a = fast_adhoc_wakeup_batch(
            chain, schedule, constants, [np.random.default_rng(9)]
        )[0]
        b = fast_adhoc_wakeup_batch(
            chain, schedule, constants, [np.random.default_rng(9)]
        )[0]
        assert np.array_equal(a.informed_round, b.informed_round)


class TestFastColoredWakeup:
    def test_initiators_spread_message(self, chain, constants,
                                       chain_colors, rng):
        out = fast_colored_wakeup_batch(
            chain, [0], chain_colors, constants, [rng]
        )[0]
        assert out.success
        assert out.informed_round[0] == out.extras["aux_coloring_rounds"]

    def test_no_refresh_skips_aux_stage(self, chain, constants,
                                        chain_colors, rng):
        out = fast_colored_wakeup_batch(
            chain, [0], chain_colors, constants, [rng], refresh_coloring=False
        )[0]
        assert out.extras["aux_coloring_rounds"] == 0

    def test_needs_initiators(self, chain, constants, chain_colors, rng):
        with pytest.raises(ProtocolError):
            fast_colored_wakeup_batch(
                chain, [], chain_colors, constants, [rng]
            )

    def test_initiator_out_of_range(self, chain, constants,
                                    chain_colors, rng):
        with pytest.raises(ProtocolError):
            fast_colored_wakeup_batch(
                chain, [chain.size], chain_colors, constants, [rng]
            )

    def test_bad_base_colors_shape(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            fast_colored_wakeup_batch(
                chain, [0], np.zeros(chain.size + 2), constants, [rng]
            )

    @pytest.mark.parametrize(
        "initiators", [[1.9], [True, False, True], [np.float64(2.0)]],
        ids=["fraction", "short-mask", "float"],
    )
    def test_initiators_must_be_station_indices(
        self, chain, constants, chain_colors, rng, initiators
    ):
        # 1.9 would truncate to station 1, and a boolean list that is
        # no (n,) mask would read as stations {0, 1}.
        with pytest.raises(ProtocolError, match="station index"):
            fast_colored_wakeup_batch(
                chain, initiators, chain_colors, constants, [rng]
            )

    def test_per_replication_index_lists_refused(
        self, chain, constants, chain_colors
    ):
        # A (B, k) index array used to flatten into one set shared by
        # every replication: [[0], [7]] started both from {0, 7}.
        with pytest.raises(ProtocolError, match=r"\(2, 8\) boolean mask"):
            fast_colored_wakeup_batch(
                chain, np.array([[0], [chain.size - 1]]), chain_colors,
                constants,
                [np.random.default_rng(1), np.random.default_rng(2)],
                refresh_coloring=False, round_budget=1,
            )

    def test_masks_stay_masks(self, chain, constants, chain_colors):
        # (n,) and (B, n) boolean arrays name the stations they mark.
        mask = np.arange(chain.size) == 7
        runs = [
            fast_colored_wakeup_batch(
                chain, initiators, chain_colors, constants,
                [np.random.default_rng(3)], refresh_coloring=False,
            )[0]
            for initiators in (mask, mask[None, :], [7])
        ]
        assert np.flatnonzero(runs[0].informed_round == 0).tolist() == [7]
        for out in runs[1:]:
            assert np.array_equal(out.informed_round, runs[0].informed_round)


class TestFastConsensus:
    def test_agrees_on_minimum(self, chain, constants, rng):
        values = [5, 3, 7, 3, 6, 4, 5, 7]
        result = fast_consensus_batch(chain, values, 7, constants, [rng])[0]
        assert result.agreed
        assert result.correct
        assert int(result.decided[0]) == 3
        assert result.bits == 3
        assert len(result.rounds_per_bit) == 3

    def test_all_equal_values(self, chain, constants, rng):
        result = fast_consensus_batch(
            chain, [2] * chain.size, 3, constants, [rng]
        )[0]
        assert result.agreed and result.correct
        assert int(result.decided[0]) == 2

    def test_zero_message_space(self, chain, constants, rng):
        result = fast_consensus_batch(
            chain, [0] * chain.size, 0, constants, [rng]
        )[0]
        assert result.agreed and result.correct

    def test_value_count_mismatch(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            fast_consensus_batch(chain, [1, 2], 3, constants, [rng])

    def test_value_out_of_range(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            fast_consensus_batch(
                chain, [9] * chain.size, 7, constants, [rng]
            )

    def test_negative_value(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            fast_consensus_batch(
                chain, [-1] * chain.size, 7, constants, [rng]
            )

    @pytest.mark.parametrize(
        "values",
        [[2.7, 3.9, 5.5, 6, 7, 4.2, 3.1, 2.9], [True] * 8],
    )
    def test_non_integer_values_rejected(self, chain, constants, rng, values):
        # Truncated, the floats decide 2 (held by no station) as correct.
        with pytest.raises(ProtocolError, match="integers"):
            fast_consensus_batch(chain, values, 7, constants, [rng])

    def test_non_integer_x_max_rejected(self, chain, constants, rng):
        with pytest.raises(ProtocolError, match="x_max"):
            fast_consensus_batch(chain, [1] * chain.size, 7.5, constants,
                                 [rng])

    def test_numpy_integer_inputs_accepted(self, chain, constants, rng):
        values = np.array([5, 3, 7, 3, 6, 4, 5, 7], dtype=np.int32)
        result = fast_consensus_batch(
            chain, values, np.int64(7), constants, [rng]
        )[0]
        assert result.correct and int(result.decided[0]) == 3

    def test_rounds_accumulate(self, chain, constants, rng):
        result = fast_consensus_batch(
            chain, [1] * chain.size, 3, constants, [rng]
        )[0]
        backbone = constants.coloring_total_rounds(chain.size)
        assert result.total_rounds == backbone + sum(result.rounds_per_bit)


class TestFastLeaderElection:
    def test_elects_unique_leader(self, chain, constants, rng):
        result = fast_leader_election_batch(chain, constants, [rng])[0]
        assert result.success
        assert result.unique
        assert result.ids[result.leader] == result.agreed_id
        assert result.agreed_id == int(result.ids.min())

    def test_ids_match_reference_stream(self, chain, constants):
        # Fast and reference draw IDs from the same stream position, so a
        # shared seed yields identical ID vectors (makes the
        # cross-validation below apples-to-apples).
        fast = fast_leader_election_batch(
            chain, constants, [np.random.default_rng(31)]
        )[0]
        ref = run_leader_election(
            chain, constants, np.random.default_rng(31)
        )
        assert np.array_equal(fast.ids, ref.ids)


class TestCrossValidationSafety:
    """Termination/safety properties match the reference on every seed."""

    def test_wakeup_termination_agrees(self, chain, constants):
        schedule = WakeupSchedule.single(chain.size, 0)
        for seed in range(3):
            ref = run_adhoc_wakeup(
                chain, schedule, constants, np.random.default_rng(seed)
            )
            fast = fast_adhoc_wakeup_batch(
                chain, schedule, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.success and fast.success
            assert np.all(fast.informed_round >= 0)

    def test_consensus_safety_agrees(self, chain, constants):
        values = [4, 2, 6, 2, 5, 3, 7, 6]
        for seed in range(3):
            ref = run_consensus(
                chain, values, 7, constants, np.random.default_rng(seed)
            )
            fast = fast_consensus_batch(
                chain, values, 7, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.agreed and fast.agreed
            assert ref.correct and fast.correct
            assert np.array_equal(ref.decided, fast.decided)
            assert ref.bits == fast.bits

    def test_leader_safety_agrees(self, chain, constants):
        for seed in range(3):
            ref = run_leader_election(
                chain, constants, np.random.default_rng(seed)
            )
            fast = fast_leader_election_batch(
                chain, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.success and fast.success
            # Same ID stream + agreement on the true minimum => same leader.
            assert ref.leader == fast.leader
            assert ref.agreed_id == fast.agreed_id


@pytest.mark.slow
class TestCrossValidationDistributions:
    """Round-count distributions agree within tolerance (DESIGN.md §6)."""

    SEEDS = range(4)

    def test_wakeup_rounds_same_scale(self, chain, constants):
        schedule = WakeupSchedule.single(chain.size, 0)
        ref_t, fast_t = [], []
        for seed in self.SEEDS:
            ref = run_adhoc_wakeup(
                chain, schedule, constants, np.random.default_rng(seed)
            )
            fast = fast_adhoc_wakeup_batch(
                chain, schedule, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.success and fast.success
            ref_t.append(ref.extras["wakeup_time"])
            fast_t.append(fast.extras["wakeup_time"])
        assert np.mean(fast_t) < 3 * np.mean(ref_t) + 500
        assert np.mean(ref_t) < 3 * np.mean(fast_t) + 500

    def test_colored_wakeup_rounds_same_scale(self, chain, constants,
                                              chain_colors):
        ref_t, fast_t = [], []
        for seed in self.SEEDS:
            ref = run_colored_wakeup(
                chain, [0], chain_colors, constants,
                np.random.default_rng(seed),
            )
            fast = fast_colored_wakeup_batch(
                chain, [0], chain_colors, constants,
                [np.random.default_rng(seed)],
            )[0]
            assert ref.success and fast.success
            ref_t.append(ref.completion_round)
            fast_t.append(fast.completion_round)
        assert np.mean(fast_t) < 3 * np.mean(ref_t) + 500
        assert np.mean(ref_t) < 3 * np.mean(fast_t) + 500

    def test_consensus_rounds_same_scale(self, chain, constants):
        values = [4, 2, 6, 2, 5, 3, 7, 6]
        ref_t, fast_t = [], []
        for seed in self.SEEDS:
            ref = run_consensus(
                chain, values, 7, constants, np.random.default_rng(seed)
            )
            fast = fast_consensus_batch(
                chain, values, 7, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.correct and fast.correct
            ref_t.append(ref.total_rounds)
            fast_t.append(fast.total_rounds)
        assert np.mean(fast_t) < 3 * np.mean(ref_t) + 500
        assert np.mean(ref_t) < 3 * np.mean(fast_t) + 500

    def test_leader_rounds_same_scale(self, chain, constants):
        ref_t, fast_t = [], []
        for seed in self.SEEDS:
            ref = run_leader_election(
                chain, constants, np.random.default_rng(seed)
            )
            fast = fast_leader_election_batch(
                chain, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.success and fast.success
            ref_t.append(ref.total_rounds)
            fast_t.append(fast.total_rounds)
        assert np.mean(fast_t) < 3 * np.mean(ref_t) + 500
        assert np.mean(ref_t) < 3 * np.mean(fast_t) + 500
