"""Tests for adversarial wake-up schedules."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.wakeup import WakeupSchedule


class TestConstruction:
    def test_requires_one_spontaneous(self):
        with pytest.raises(SimulationError):
            WakeupSchedule(np.full(4, WakeupSchedule.NEVER))

    def test_requires_1d(self):
        with pytest.raises(SimulationError):
            WakeupSchedule(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize(
        "wake_rounds",
        [np.array([0.9, 2.5, -0.5]), np.array([0.0, 1.0]), [True, False]],
    )
    def test_rejects_non_integer_rounds(self, wake_rounds):
        # Truncation would wake the -0.5 station at round 0 and turn a
        # boolean mask into rounds 1 and 0.
        with pytest.raises(SimulationError, match="integers"):
            WakeupSchedule(wake_rounds)

    def test_accepts_int_list_and_int32(self):
        for wake_rounds in ([3, -1, 0], np.array([3, -1, 0], dtype=np.int32)):
            s = WakeupSchedule(wake_rounds)
            assert s.wake_rounds.dtype == np.dtype(int)
            assert s.wake_rounds.tolist() == [3, -1, 0]

    def test_first_wake(self):
        s = WakeupSchedule(np.array([5, WakeupSchedule.NEVER, 2]))
        assert s.first_wake == 2

    def test_is_awake(self):
        s = WakeupSchedule(np.array([3, WakeupSchedule.NEVER]))
        assert not s.is_awake(0, 2)
        assert s.is_awake(0, 3)
        assert not s.is_awake(1, 1000)


class TestSingle:
    def test_single(self):
        s = WakeupSchedule.single(5, station=2, round_no=7)
        assert s.first_wake == 7
        assert s.is_awake(2, 7)
        assert not any(s.is_awake(i, 100) for i in (0, 1, 3, 4))

    @pytest.mark.parametrize("round_no", [-0.5, 7.5, 2.0, True, np.True_])
    def test_rejects_non_integer_round(self, round_no):
        # Item assignment would truncate -0.5 to a wake at round 0, 7.5
        # to 7, and turn True into round 1.
        with pytest.raises(SimulationError, match="round_no"):
            WakeupSchedule.single(4, 1, round_no=round_no)

    @pytest.mark.parametrize("station", [-1, 4, 7, 1.0, True])
    def test_rejects_bad_station(self, station):
        # -1 would wake station 3 and 7 raise a bare IndexError.
        with pytest.raises(SimulationError, match="station"):
            WakeupSchedule.single(4, station)

    def test_negative_round_leaves_no_one_to_wake(self):
        with pytest.raises(SimulationError, match="at least one station"):
            WakeupSchedule.single(4, 1, round_no=-3)

    @pytest.mark.parametrize(
        "station, round_no",
        [(3, 5), (np.int64(3), np.int16(5)), (np.int32(3), np.uint8(5))],
    )
    def test_accepts_python_and_numpy_integers(self, station, round_no):
        s = WakeupSchedule.single(4, station, round_no=round_no)
        assert s.wake_rounds.tolist() == [-1, -1, -1, 5]


class TestAllAt:
    def test_all_at_zero(self):
        s = WakeupSchedule.all_at(4)
        assert all(s.is_awake(i, 0) for i in range(4))

    def test_all_at_later(self):
        s = WakeupSchedule.all_at(4, round_no=9)
        assert not s.is_awake(0, 8)
        assert s.is_awake(3, 9)


class TestStaggered:
    def test_within_spread(self, rng):
        s = WakeupSchedule.staggered(20, spread=10, rng=rng)
        waking = s.wake_rounds[s.wake_rounds >= 0]
        assert waking.size == 20
        assert waking.max() <= 10

    def test_fractional_leaves_sleepers(self, rng):
        s = WakeupSchedule.staggered(50, spread=5, rng=rng, fraction=0.3)
        sleepers = np.sum(s.wake_rounds < 0)
        assert 0 < sleepers < 50

    def test_at_least_one_wakes(self):
        # Even with a tiny fraction, someone must wake.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s = WakeupSchedule.staggered(5, spread=3, rng=rng, fraction=0.01)
            assert np.any(s.wake_rounds >= 0)

    def test_bad_args(self, rng):
        with pytest.raises(SimulationError):
            WakeupSchedule.staggered(5, spread=-1, rng=rng)
        with pytest.raises(SimulationError):
            WakeupSchedule.staggered(5, spread=1, rng=rng, fraction=0.0)


class TestFarLast:
    def test_order_respected(self):
        order = np.array([2, 0, 1])  # station 2 first, station 1 last
        s = WakeupSchedule.adversarial_far_last(3, spread=10, order=order)
        assert s.wake_rounds[2] <= s.wake_rounds[0] <= s.wake_rounds[1]
        assert s.wake_rounds[1] == 10

    def test_single_station(self):
        s = WakeupSchedule.adversarial_far_last(
            1, spread=10, order=np.array([0])
        )
        assert s.wake_rounds[0] == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(SimulationError):
            WakeupSchedule.adversarial_far_last(
                3, spread=5, order=np.array([0, 0, 1])
            )
