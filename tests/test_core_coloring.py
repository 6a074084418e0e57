"""Tests for StabilizeProbability (reference implementation)."""

import numpy as np
import pytest

from repro.core.coloring import (
    ColoringCore,
    ColoringNode,
    FINAL_COLOR_LEVEL,
    NOT_PARTICIPATING,
    run_coloring,
)
from repro.core.constants import ColoringSchedule, ProtocolConstants
from repro.core.properties import (
    coloring_report,
    lemma1_max_color_mass,
    lemma2_best_masses,
    lemma2_min_best_mass,
)
from repro.errors import AnalysisError, ProtocolError
from repro.network.network import Network


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


@pytest.fixture(scope="module")
def schedule(constants):
    return ColoringSchedule(constants, 16)


class TestColoringCore:
    def test_initial_state(self, schedule):
        core = ColoringCore(schedule)
        assert not core.has_quit
        assert core.finished_level() == FINAL_COLOR_LEVEL
        assert core.finished_color() == schedule.constants.survivor_color

    def test_density_probability(self, schedule):
        core = ColoringCore(schedule)
        assert core.transmission_probability(0) == schedule.level_probability(0)

    def test_playoff_probability_scaled(self, schedule):
        core = ColoringCore(schedule)
        p = core.transmission_probability(schedule.density_len)
        expected = min(
            1.0, schedule.level_probability(0) * schedule.constants.ceps
        )
        assert p == pytest.approx(expected)

    def test_quit_when_both_tests_pass(self, schedule):
        core = ColoringCore(schedule)
        # Feed successes on every round of the first block.
        for offset in range(schedule.block_len):
            core.observe(offset, heard=True, transmitted=False)
        assert core.has_quit
        assert core.quit_level == 0
        assert core.finished_color() == schedule.constants.pstart(16)

    def test_dissemination_probability_until_reset(self, schedule):
        constants = schedule.constants
        core = ColoringCore(schedule)
        assert core.dissemination_probability() == (
            constants.dissemination_prob(constants.survivor_color, 16)
        )
        # A fresh execution that quits at level 0 gets its own color's.
        core.reset()
        for offset in range(schedule.block_len):
            core.observe(offset, heard=True, transmitted=False)
        assert core.dissemination_probability() == (
            constants.dissemination_prob(constants.pstart(16), 16)
        )

    def test_no_quit_when_playoff_fails(self, schedule):
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            _, _, part, _ = schedule.position(offset)
            core.observe(
                offset, heard=(part == "density"), transmitted=False
            )
        assert not core.has_quit

    def test_no_quit_when_density_fails(self, schedule):
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            _, _, part, _ = schedule.position(offset)
            core.observe(
                offset, heard=(part == "playoff"), transmitted=False
            )
        assert not core.has_quit

    def test_self_transmissions_count_for_density_only(self, schedule):
        assert schedule.constants.playoff_counts_self is False
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            core.observe(offset, heard=False, transmitted=True)
        # Density passed (sends count), playoff did not (receptions only).
        assert not core.has_quit

    def test_self_counts_in_playoff_when_enabled(self):
        constants = ProtocolConstants.practical(playoff_counts_self=True)
        schedule = ColoringSchedule(constants, 16)
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            core.observe(offset, heard=False, transmitted=True)
        assert core.has_quit

    def test_quit_station_stops_transmitting(self, schedule):
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            core.observe(offset, heard=True, transmitted=False)
        assert core.transmission_probability(schedule.block_len) == 0.0

    def test_counters_reset_between_blocks(self, schedule):
        core = ColoringCore(schedule)
        # Half the successes in block 0, half in block 1: neither passes
        # alone if the threshold exceeds half a block's successes.
        dthr = schedule.constants.density_threshold(16)
        half = max(0, dthr - 1)
        fed = 0
        for offset in range(2 * schedule.block_len):
            _, _, part, _ = schedule.position(offset)
            heard = part == "density" and fed < half
            if heard:
                fed += 1
            if offset == schedule.block_len:
                fed = 0
            core.observe(offset, heard=heard, transmitted=False)
        assert not core.has_quit

    def test_reset_restores_state(self, schedule):
        core = ColoringCore(schedule)
        for offset in range(schedule.block_len):
            core.observe(offset, heard=True, transmitted=False)
        core.reset()
        assert not core.has_quit


class TestRunColoring:
    def test_all_participants_colored(self, small_square, constants, rng):
        result = run_coloring(small_square, constants, rng)
        assert np.all(result.participants)
        assert not np.any(np.isnan(result.colors))

    def test_colors_are_ladder_values(self, small_square, constants, rng):
        result = run_coloring(small_square, constants, rng)
        n = small_square.size
        legal = {
            constants.color_of_level(lv, n)
            for lv in range(constants.num_levels(n))
        }
        legal.add(constants.survivor_color)
        for c in result.distinct_colors():
            assert any(abs(c - v) < 1e-12 for v in legal)

    def test_rounds_match_schedule(self, small_square, constants, rng):
        result = run_coloring(small_square, constants, rng)
        assert result.rounds == constants.coloring_total_rounds(
            small_square.size
        )

    def test_subset_participation(self, small_square, constants, rng):
        subset = [0, 1, 2, 3]
        result = run_coloring(
            small_square, constants, rng, participants=subset
        )
        assert list(np.flatnonzero(result.participants)) == subset
        outsiders = np.flatnonzero(~result.participants)
        assert np.all(result.quit_levels[outsiders] == NOT_PARTICIPATING)
        assert np.all(np.isnan(result.colors[outsiders]))

    def test_empty_participants_rejected(self, small_square, constants, rng):
        with pytest.raises(ProtocolError):
            run_coloring(small_square, constants, rng, participants=[])

    def test_out_of_range_participants_rejected(
        self, small_square, constants, rng
    ):
        with pytest.raises(ProtocolError):
            run_coloring(small_square, constants, rng, participants=[99])

    @pytest.mark.parametrize(
        "participants",
        [np.arange(32) == 7, [True, False], [1.5]],
        ids=["mask", "bools", "fraction"],
    )
    def test_participants_must_be_station_indices(
        self, small_square, constants, rng, participants
    ):
        # Read as indices, both boolean inputs would color stations {0, 1}.
        with pytest.raises(ProtocolError, match="station index"):
            run_coloring(
                small_square, constants, rng, participants=participants
            )

    def test_single_station(self, constants, rng):
        net = Network(np.array([[0.0, 0.0]]))
        result = run_coloring(net, constants, rng)
        # A lone station hears nothing: it must survive the whole ladder.
        assert result.quit_levels[0] == FINAL_COLOR_LEVEL
        assert result.colors[0] == constants.survivor_color

    def test_isolated_pair_far_apart_survives(self, constants, rng):
        # Two stations out of range: no receptions, playoff never passes.
        net = Network(np.array([[0.0, 0.0], [3.0, 0.0]]))
        result = run_coloring(net, constants, rng)
        assert np.all(result.quit_levels == FINAL_COLOR_LEVEL)

    def test_color_mask(self, small_square, constants, rng):
        result = run_coloring(small_square, constants, rng)
        total = sum(
            result.color_mask(c).sum() for c in result.distinct_colors()
        )
        assert total == small_square.size

    def test_reproducible(self, small_square, constants):
        a = run_coloring(small_square, constants, np.random.default_rng(3))
        b = run_coloring(small_square, constants, np.random.default_rng(3))
        assert np.array_equal(a.quit_levels, b.quit_levels)


class TestColoringNode:
    def test_non_participant_silent(self, constants):
        schedule = ColoringSchedule(constants, 4)
        node = ColoringNode(0, schedule, participating=False)
        assert node.transmission(0) == (0.0, None)
        assert node.finished

    def test_outside_window_silent(self, constants):
        schedule = ColoringSchedule(constants, 4)
        node = ColoringNode(0, schedule, start_round=100)
        assert node.transmission(0) == (0.0, None)
        assert node.transmission(100 + schedule.total_rounds)[0] == 0.0

    def test_payload_passthrough(self, constants):
        schedule = ColoringSchedule(constants, 4)
        node = ColoringNode(0, schedule, payload=("msg", 7))
        _, payload = node.transmission(0)
        assert payload == ("msg", 7)


class TestProperties:
    @pytest.fixture(scope="class")
    def colored(self, small_square, constants):
        rng = np.random.default_rng(11)
        return run_coloring(small_square, constants, rng)

    def test_lemma1_bounded(self, small_square, colored):
        assert 0 < lemma1_max_color_mass(small_square, colored) < 2.0

    def test_lemma1_monotone_radius(self, small_square, colored):
        small = lemma1_max_color_mass(small_square, colored, radius=0.5)
        large = lemma1_max_color_mass(small_square, colored, radius=1.0)
        assert large >= small

    def test_lemma2_positive(self, small_square, colored):
        assert lemma2_min_best_mass(small_square, colored) > 0

    def test_lemma2_per_station_vector(self, small_square, colored):
        masses = lemma2_best_masses(small_square, colored, radius=0.4)
        assert masses.shape == (small_square.size,)
        assert np.all(masses > 0)

    def test_lemma2_min_is_vector_min(self, small_square, colored):
        masses = lemma2_best_masses(small_square, colored, radius=0.4)
        assert lemma2_min_best_mass(
            small_square, colored, radius=0.4
        ) == pytest.approx(masses.min())

    def test_every_station_best_mass_at_least_own_color(
        self, small_square, colored
    ):
        masses = lemma2_best_masses(small_square, colored, radius=0.0)
        for v in range(small_square.size):
            assert masses[v] >= colored.colors[v] - 1e-12

    def test_report_fields(self, small_square, colored):
        rep = coloring_report(small_square, colored)
        assert rep.n == small_square.size
        assert rep.num_participants == small_square.size
        assert rep.num_colors_used <= rep.num_colors_available
        assert rep.lemma1_mass <= rep.all_colors_mass + 1e-12

    def test_size_mismatch_rejected(self, small_chain, colored):
        with pytest.raises(AnalysisError):
            lemma1_max_color_mass(small_chain, colored)
