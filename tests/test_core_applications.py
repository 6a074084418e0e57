"""Tests for the Sect. 5 applications: wake-up, consensus, leader election."""

import numpy as np
import pytest

from repro.core.consensus import (
    ConsensusResult,
    bits_for_range,
    run_consensus,
    value_bits,
)
from repro.core.constants import ProtocolConstants
from repro.core.coloring import run_coloring
from repro.core.leader_election import (
    LeaderElectionResult,
    id_space,
    run_leader_election,
)
from repro.core.wakeup import run_adhoc_wakeup, run_colored_wakeup
from repro.deploy import uniform_chain
from repro.errors import ProtocolError
from repro.sim.wakeup import WakeupSchedule


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


@pytest.fixture(scope="module")
def chain():
    return uniform_chain(8, gap=0.5)


@pytest.fixture(scope="module")
def chain_colors(chain, constants):
    result = run_coloring(chain, constants, np.random.default_rng(5))
    return np.where(np.isnan(result.colors), 0.0, result.colors)


class TestAdhocWakeup:
    def test_single_waker_wakes_all(self, chain, constants, rng):
        schedule = WakeupSchedule.single(chain.size, 0)
        out = run_adhoc_wakeup(chain, schedule, constants, rng)
        assert out.success
        assert out.extras["wakeup_time"] >= 0

    def test_all_at_zero_instant(self, chain, constants, rng):
        schedule = WakeupSchedule.all_at(chain.size)
        out = run_adhoc_wakeup(chain, schedule, constants, rng)
        assert out.success
        assert out.extras["wakeup_time"] == 0

    def test_staggered_wakes_all(self, chain, constants, rng):
        schedule = WakeupSchedule.staggered(
            chain.size, spread=50, rng=rng, fraction=0.5
        )
        out = run_adhoc_wakeup(chain, schedule, constants, rng)
        assert out.success

    def test_wake_time_measured_from_first_wake(self, chain, constants, rng):
        schedule = WakeupSchedule.single(chain.size, 0, round_no=40)
        out = run_adhoc_wakeup(chain, schedule, constants, rng)
        assert out.success
        assert out.extras["first_wake"] == 40
        assert (
            out.extras["wakeup_time"]
            == out.completion_round - 40
        )

    def test_schedule_size_mismatch(self, chain, constants, rng):
        schedule = WakeupSchedule.single(4, 0)
        with pytest.raises(ProtocolError):
            run_adhoc_wakeup(chain, schedule, constants, rng)


class TestColoredWakeup:
    def test_reaches_everyone(self, chain, constants, chain_colors, rng):
        out = run_colored_wakeup(
            chain, [0], chain_colors, constants, rng
        )
        assert out.success
        assert out.algorithm == "ColoredWakeup"

    def test_multiple_initiators(self, chain, constants, chain_colors, rng):
        out = run_colored_wakeup(
            chain, [0, chain.size - 1], chain_colors, constants, rng
        )
        assert out.success
        # Both ends start informed.
        assert out.informed_round[0] <= out.extras["aux_coloring_rounds"]

    def test_no_refresh_faster_but_still_works(
        self, chain, constants, chain_colors, rng
    ):
        out = run_colored_wakeup(
            chain, [0], chain_colors, constants, rng, refresh_coloring=False
        )
        assert out.extras["aux_coloring_rounds"] == 0
        assert out.success

    def test_requires_initiators(self, chain, constants, chain_colors, rng):
        with pytest.raises(ProtocolError):
            run_colored_wakeup(chain, [], chain_colors, constants, rng)

    def test_bad_colors_shape(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            run_colored_wakeup(
                chain, [0], np.zeros(3), constants, rng
            )

    def test_bad_initiator_index(self, chain, constants, chain_colors, rng):
        with pytest.raises(ProtocolError):
            run_colored_wakeup(
                chain, [chain.size], chain_colors, constants, rng
            )

    @pytest.mark.parametrize(
        "initiators",
        [np.arange(8) == 7, [True, False], [1.9], [np.float64(3.0)], [-1]],
        ids=["mask", "bools", "fraction", "float", "negative"],
    )
    def test_initiators_must_be_station_indices(
        self, chain, constants, chain_colors, rng, initiators
    ):
        # Read as indices, the mask of station 7 would name stations
        # {0, 1} and 1.9 would truncate to station 1.
        with pytest.raises(ProtocolError, match="station index"):
            run_colored_wakeup(
                chain, initiators, chain_colors, constants, rng
            )

    def test_numpy_integer_initiators(self, chain, constants, chain_colors):
        a = run_colored_wakeup(
            chain, np.array([5, 2, 5]), chain_colors, constants,
            np.random.default_rng(3),
        )
        b = run_colored_wakeup(
            chain, [2, 5], chain_colors, constants, np.random.default_rng(3)
        )
        assert np.array_equal(a.informed_round, b.informed_round)
        assert a.informed_round[2] == a.informed_round[5] == a.extras[
            "aux_coloring_rounds"
        ]


class TestConsensusHelpers:
    @pytest.mark.parametrize(
        "x,bits", [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9)]
    )
    def test_bits_for_range(self, x, bits):
        assert bits_for_range(x) == bits

    def test_bits_rejects_negative(self):
        with pytest.raises(ProtocolError):
            bits_for_range(-1)

    @pytest.mark.parametrize("x", [7.5, 7.0, True, "7"])
    def test_bits_rejects_non_integer(self, x):
        with pytest.raises(ProtocolError, match="integer"):
            bits_for_range(x)

    def test_bits_accepts_numpy_integers(self):
        assert bits_for_range(np.int64(7)) == 3
        assert bits_for_range(np.uint8(255)) == 8

    def test_value_bits_msb_first(self):
        assert value_bits(5, 4) == "0101"

    def test_value_bits_overflow(self):
        with pytest.raises(ProtocolError):
            value_bits(16, 4)

    def test_value_bits_negative(self):
        with pytest.raises(ProtocolError):
            value_bits(-1, 4)


class TestConsensus:
    def test_agrees_on_minimum(self, chain, constants, rng):
        values = [5, 3, 7, 3, 6, 4, 5, 7]
        result = run_consensus(chain, values, x_max=7, constants=constants,
                               rng=rng)
        assert result.agreed
        assert result.correct
        assert int(result.decided[0]) == 3

    def test_all_same_value(self, chain, constants, rng):
        result = run_consensus(
            chain, [6] * chain.size, x_max=7, constants=constants, rng=rng
        )
        assert result.correct
        assert int(result.decided[0]) == 6

    def test_minimum_zero(self, chain, constants, rng):
        values = [0] + [7] * (chain.size - 1)
        result = run_consensus(chain, values, x_max=7, constants=constants,
                               rng=rng)
        assert result.correct
        assert int(result.decided[0]) == 0

    def test_maximum_message_space(self, chain, constants, rng):
        values = [7] * chain.size
        result = run_consensus(chain, values, x_max=7, constants=constants,
                               rng=rng)
        assert result.correct

    def test_bits_count(self, chain, constants, rng):
        result = run_consensus(
            chain, [1] * chain.size, x_max=255, constants=constants, rng=rng
        )
        assert result.bits == 8
        assert len(result.rounds_per_bit) == 8

    def test_rounds_grow_with_bits(self, chain, constants):
        small = run_consensus(
            chain, [1] * chain.size, x_max=3,
            constants=constants, rng=np.random.default_rng(1),
        )
        large = run_consensus(
            chain, [1] * chain.size, x_max=255,
            constants=constants, rng=np.random.default_rng(1),
        )
        assert large.total_rounds > small.total_rounds

    def test_value_count_mismatch(self, chain, constants, rng):
        with pytest.raises(ProtocolError):
            run_consensus(chain, [1, 2], x_max=7, constants=constants,
                          rng=rng)

    def test_value_exceeding_range_rejected(self, chain, constants, rng):
        values = [9] * chain.size
        with pytest.raises(ProtocolError):
            run_consensus(chain, values, x_max=7, constants=constants,
                          rng=rng)

    @pytest.mark.parametrize(
        "values",
        [[2.7, 3.9, 5.5, 6, 7, 4.2, 3.1, 2.9], [True] * 8],
    )
    def test_non_integer_values_rejected(self, chain, constants, rng, values):
        # Truncated, the floats decide 2 (held by no station) as correct.
        with pytest.raises(ProtocolError, match="integers"):
            run_consensus(chain, values, x_max=7, constants=constants,
                          rng=rng)

    def test_non_integer_x_max_rejected(self, chain, constants, rng):
        with pytest.raises(ProtocolError, match="x_max"):
            run_consensus(chain, [1] * chain.size, x_max=7.5,
                          constants=constants, rng=rng)


class TestRecords:
    """The agreement and election rules both engines build records with."""

    def test_consensus_record(self):
        ok = ConsensusResult.of(
            np.array([3, 3, 3]), [5, 3, 7], 40, [20, 20], 2
        )
        assert (ok.agreed, ok.correct, ok.total_rounds) == (True, True, 40)
        wrong = ConsensusResult.of(np.array([3, 3, 3]), [2, 3, 7], 40, [], 2)
        assert (wrong.agreed, wrong.correct) == (True, False)
        split = ConsensusResult.of(np.array([3, 5, 3]), [3, 5, 7], 40, [], 2)
        assert (split.agreed, split.correct) == (False, False)

    @pytest.mark.parametrize(
        "ids,decided,leader,unique",
        [
            ([5, 3, 7], [3, 3, 3], 1, True),     # one holder
            ([3, 3, 7], [3, 3, 3], -1, False),   # two holders
            ([5, 3, 7], [4, 4, 4], -1, False),   # nobody holds it
            ([5, 3, 7], [3, 5, 3], -1, False),   # no agreement
        ],
    )
    def test_election_record(self, ids, decided, leader, unique):
        ids = np.array(ids)
        consensus = ConsensusResult.of(np.array(decided), ids, 40, [], 3)
        result = LeaderElectionResult.of(ids, consensus)
        assert (result.leader, result.unique) == (leader, unique)
        assert result.success == (leader >= 0)
        assert result.agreed_id == (decided[0] if consensus.agreed else -1)

    def test_id_space(self):
        assert [id_space(n) for n in (1, 2, 10)] == [2, 8, 1000]
        with pytest.raises(ProtocolError):
            id_space(0)


class TestLeaderElection:
    def test_unique_leader(self, chain, constants, rng):
        result = run_leader_election(chain, constants, rng)
        assert result.success
        assert 0 <= result.leader < chain.size

    def test_leader_holds_min_id(self, chain, constants, rng):
        result = run_leader_election(chain, constants, rng)
        assert result.agreed_id == result.ids.min()
        assert result.ids[result.leader] == result.agreed_id

    def test_ids_in_range(self, chain, constants, rng):
        result = run_leader_election(chain, constants, rng)
        assert np.all(result.ids >= 1)
        assert np.all(result.ids <= chain.size ** 3)

    def test_reproducible(self, chain, constants):
        a = run_leader_election(chain, constants, np.random.default_rng(2))
        b = run_leader_election(chain, constants, np.random.default_rng(2))
        assert a.leader == b.leader
        assert a.total_rounds == b.total_rounds
