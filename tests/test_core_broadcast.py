"""Tests for NoSBroadcast and SBroadcast (reference implementations)."""

import numpy as np
import pytest

from repro.core.broadcast_nospont import NoSBroadcastNode, run_nospont_broadcast
from repro.core.broadcast_spont import SBroadcastNode, run_spont_broadcast
from repro.core.constants import ColoringSchedule, ProtocolConstants
from repro.core.outcome import NEVER_INFORMED
from repro.errors import ProtocolError
from repro.network.network import Network


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


class TestNoSBroadcastNode:
    def test_source_active_in_phase_zero(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = NoSBroadcastNode(0, schedule, source_payload="m")
        assert node.informed
        assert node.active_from_phase == 0
        prob, payload = node.transmission(0)
        assert payload == "m"

    def test_uninformed_silent(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = NoSBroadcastNode(1, schedule)
        assert not node.informed
        assert node.transmission(0) == (0.0, None)

    def test_joins_next_phase_after_hearing(self, constants):
        from repro.sim.messages import Message, Reception

        schedule = ColoringSchedule(constants, 8)
        node = NoSBroadcastNode(1, schedule)
        phase_len = constants.phase_rounds(8)
        # Hear the message mid-phase 0.
        node.end_round(
            Reception(
                round_no=3, transmitted=False,
                message=Message(sender=0, payload="m"),
            )
        )
        assert node.informed
        assert node.active_from_phase == 1
        # Still silent for the rest of phase 0...
        assert node.transmission(5) == (0.0, None)
        # ...active from phase 1 on.
        prob, payload = node.transmission(phase_len)
        assert payload == "m"

    def test_dissemination_part_probability(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = NoSBroadcastNode(0, schedule, source_payload="m")
        offset = schedule.total_rounds  # first round of part 2
        prob, _ = node.transmission(offset)
        expected = constants.dissemination_prob(
            node.core.finished_color(), 8
        )
        assert prob == pytest.approx(expected)


class TestRunNoSBroadcast:
    def test_completes_on_line(self, small_chain, constants, rng):
        out = run_nospont_broadcast(small_chain, 0, constants, rng)
        assert out.success
        assert out.algorithm == "NoSBroadcast"
        assert np.all(out.informed_round >= 0)

    def test_informed_rounds_monotone_along_chain(
        self, small_chain, constants, rng
    ):
        out = run_nospont_broadcast(small_chain, 0, constants, rng)
        rounds = out.informed_round
        # The far end cannot be informed before a middle station.
        assert rounds[-1] >= rounds[small_chain.size // 2]

    def test_source_informed_at_zero(self, small_chain, constants, rng):
        out = run_nospont_broadcast(small_chain, 2, constants, rng)
        assert out.informed_round[2] == 0

    def test_single_station(self, constants, rng):
        net = Network(np.array([[0.0, 0.0]]))
        out = run_nospont_broadcast(net, 0, constants, rng)
        assert out.success
        assert out.completion_round == 0

    def test_budget_exhaustion_reports_failure(
        self, small_chain, constants, rng
    ):
        out = run_nospont_broadcast(
            small_chain, 0, constants, rng, round_budget=5
        )
        assert not out.success
        assert out.completion_round == NEVER_INFORMED
        assert out.num_informed >= 1

    def test_invalid_source(self, small_chain, constants, rng):
        for source in (99, True, 1.0, -1):
            with pytest.raises(ProtocolError):
                run_nospont_broadcast(small_chain, source, constants, rng)

    def test_none_payload_rejected(self, small_chain, constants, rng):
        with pytest.raises(ProtocolError):
            run_nospont_broadcast(
                small_chain, 0, constants, rng, payload=None
            )

    def test_extras_phase_accounting(self, small_chain, constants, rng):
        out = run_nospont_broadcast(small_chain, 0, constants, rng)
        assert out.extras["phase_rounds"] == constants.phase_rounds(
            small_chain.size
        )
        assert out.extras["phases_used"] >= 1


class TestSBroadcastNode:
    def test_source_pilot_round(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = SBroadcastNode(0, schedule, source_payload="m")
        prob, payload = node.transmission(schedule.total_rounds)
        assert prob == 1.0
        assert payload == "m"

    def test_non_source_silent_in_pilot(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = SBroadcastNode(1, schedule)
        assert node.transmission(schedule.total_rounds) == (0.0, None)

    def test_uninformed_ignores_empty_payload(self, constants):
        from repro.sim.messages import Message, Reception

        schedule = ColoringSchedule(constants, 8)
        node = SBroadcastNode(1, schedule)
        node.end_round(
            Reception(
                round_no=0, transmitted=False,
                message=Message(sender=2, payload=None),
            )
        )
        assert not node.informed

    def test_everyone_colors_in_stage_one(self, constants):
        schedule = ColoringSchedule(constants, 8)
        node = SBroadcastNode(1, schedule)
        prob, _ = node.transmission(0)
        assert prob == pytest.approx(constants.pstart(8))


class TestRunSBroadcast:
    def test_completes_on_line(self, small_chain, constants, rng):
        out = run_spont_broadcast(small_chain, 0, constants, rng)
        assert out.success
        assert out.algorithm == "SBroadcast"

    def test_completes_on_square(self, small_square, constants, rng):
        out = run_spont_broadcast(small_square, 0, constants, rng)
        assert out.success

    def test_colors_in_extras(self, small_chain, constants, rng):
        out = run_spont_broadcast(small_chain, 0, constants, rng)
        colors = out.extras["colors"]
        assert colors.shape == (small_chain.size,)
        assert np.all(colors > 0)

    def test_faster_than_nospont_on_chain(self, constants):
        from repro.deploy import uniform_chain

        chain = uniform_chain(16, gap=0.5)
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        spont = run_spont_broadcast(chain, 0, constants, rng_a)
        nospont = run_nospont_broadcast(chain, 0, constants, rng_b)
        assert spont.success and nospont.success
        assert spont.completion_round < nospont.completion_round

    def test_budget_failure(self, small_chain, constants, rng):
        out = run_spont_broadcast(
            small_chain, 0, constants, rng, round_budget=1
        )
        assert not out.success

    def test_invalid_source(self, small_chain, constants, rng):
        for source in (-1, True, 1.0):
            with pytest.raises(ProtocolError):
                run_spont_broadcast(small_chain, source, constants, rng)

    def test_progress_curve_monotone(self, small_chain, constants, rng):
        out = run_spont_broadcast(small_chain, 0, constants, rng)
        curve = out.progress_curve()
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == small_chain.size
