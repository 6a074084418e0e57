"""Tests for protocol constants and the coloring schedule."""

import math

import pytest

import numpy as np

from repro.core.constants import (
    ColoringSchedule,
    ProtocolConstants,
    converging_zeta,
    dissemination_budget,
    log2ceil,
    phase_budget,
)
from repro.errors import ProtocolError
from repro.sinr.params import SINRParameters


class TestLog2Ceil:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10)]
    )
    def test_values(self, n, expected):
        assert log2ceil(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ProtocolError):
            log2ceil(0)


class TestConvergingZeta:
    def test_known_value_pi_squared_over_six(self):
        assert converging_zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-6)

    def test_monotone_decreasing_in_exponent(self):
        assert converging_zeta(1.5) > converging_zeta(2.0) > converging_zeta(3.0)

    def test_diverges_rejected(self):
        with pytest.raises(ProtocolError):
            converging_zeta(1.0)


class TestProtocolConstantsValidation:
    def test_practical_valid(self):
        c = ProtocolConstants.practical()
        assert c.pmax * c.ceps <= 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_scale": 0.0},
            {"pmax": 0.0},
            {"pmax": 0.6},
            {"ceps": 0.5},
            {"pmax": 0.5, "ceps": 4.0},  # product > 1
            {"density_rounds": 0.0},
            {"density_frac": 0.0},
            {"density_frac": 1.0},
            {"playoff_frac": 1.5},
            {"repeats": 0},
            {"dissemination": 0.0},
            {"part2_scale": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ProtocolError):
            ProtocolConstants.practical(**kwargs)

    def test_overrides_apply(self):
        c = ProtocolConstants.practical(repeats=3)
        assert c.repeats == 3


class TestLadder:
    def test_pstart_scales_inverse_n(self):
        c = ProtocolConstants.practical()
        assert c.pstart(100) == pytest.approx(c.start_scale / 100)

    def test_pstart_capped_at_pmax(self):
        c = ProtocolConstants.practical()
        assert c.pstart(1) == c.pmax

    def test_num_levels_grows_with_n(self):
        c = ProtocolConstants.practical()
        assert c.num_levels(1024) > c.num_levels(64) >= 1

    def test_num_levels_is_log(self):
        c = ProtocolConstants.practical()
        # Doubling n adds exactly one level (once past the cap regime).
        assert c.num_levels(2048) == c.num_levels(1024) + 1

    def test_num_colors_is_levels_plus_one(self):
        c = ProtocolConstants.practical()
        assert c.num_colors(256) == c.num_levels(256) + 1

    def test_color_of_level_doubles(self):
        c = ProtocolConstants.practical()
        assert c.color_of_level(1, 512) == pytest.approx(
            2 * c.color_of_level(0, 512)
        )

    def test_color_capped_at_pmax(self):
        c = ProtocolConstants.practical()
        assert c.color_of_level(60, 512) == c.pmax

    def test_color_negative_level_rejected(self):
        with pytest.raises(ProtocolError):
            ProtocolConstants.practical().color_of_level(-1, 8)

    def test_survivor_color(self):
        c = ProtocolConstants.practical()
        assert c.survivor_color == pytest.approx(2 * c.pmax)


class TestRoundCounts:
    def test_test_lengths_scale_log(self):
        c = ProtocolConstants.practical()
        assert c.density_test_rounds(256) == round(c.density_rounds * 8)
        assert c.playoff_rounds(256) == round(c.playoff_rds * 8)

    def test_thresholds_positive(self):
        c = ProtocolConstants.practical()
        assert c.density_threshold(64) >= 1
        assert c.playoff_threshold(64) >= 1

    def test_threshold_fraction_of_length(self):
        c = ProtocolConstants.practical()
        n = 256
        assert c.density_threshold(n) == math.ceil(
            c.density_frac * c.density_test_rounds(n)
        )

    def test_coloring_total_structure(self):
        c = ProtocolConstants.practical()
        n = 128
        block = c.density_test_rounds(n) + c.playoff_rounds(n)
        assert c.coloring_total_rounds(n) == c.num_levels(n) * c.repeats * block

    def test_coloring_rounds_polylog(self):
        c = ProtocolConstants.practical()
        # O(log^2 n): ratio to n must vanish as n grows.
        assert c.coloring_total_rounds(4096) / 4096 < c.coloring_total_rounds(64) / 64

    def test_part2_rounds_log_squared(self):
        c = ProtocolConstants.practical()
        assert c.part2_rounds(256) == math.ceil(c.part2_scale * 64)

    def test_phase_is_coloring_plus_part2(self):
        c = ProtocolConstants.practical()
        assert c.phase_rounds(64) == c.coloring_total_rounds(64) + c.part2_rounds(64)


class TestDissemination:
    def test_prob_scales_with_color(self):
        c = ProtocolConstants.practical()
        assert c.dissemination_prob(0.02, 256) == pytest.approx(
            0.02 * c.dissemination / 8
        )

    def test_prob_capped_at_one(self):
        c = ProtocolConstants.practical()
        assert c.dissemination_prob(100.0, 4) == 1.0

    def test_negative_color_rejected(self):
        with pytest.raises(ProtocolError):
            ProtocolConstants.practical().dissemination_prob(-0.1, 8)

    def test_array_colors_equal_scalar_calls(self):
        # The fast kernels pass (B, n) colors; each entry is the scalar
        # rule's value bit for bit.
        c = ProtocolConstants.practical()
        colors = np.array([[0.0, 0.01, 0.05], [0.3, 2 * c.pmax, 100.0]])
        probs = c.dissemination_prob(colors, 64)
        assert probs.shape == colors.shape
        assert [float(p) for p in probs.ravel()] == [
            float(c.dissemination_prob(float(x), 64)) for x in colors.ravel()
        ]
        with pytest.raises(ProtocolError):
            c.dissemination_prob(np.array([0.1, -0.1]), 64)


class TestBudgets:
    @pytest.mark.parametrize(
        "n,depth,expected", [(1, 0, 16), (8, 0, 144), (8, 5, 384),
                             (1000, 12, 3520)]
    )
    def test_dissemination_budget(self, n, depth, expected):
        # 16 (depth log n + log^2 n), log n = log2ceil(n).
        assert dissemination_budget(n, depth) == expected

    @pytest.mark.parametrize("depth,expected", [(0, 8), (1, 10), (7, 22)])
    def test_phase_budget(self, depth, expected):
        assert phase_budget(depth) == expected

    def test_eps_prime_keeps_product_legal(self):
        c = ProtocolConstants.practical()
        c2 = c.with_eps_prime()
        assert c2.ceps >= c.ceps
        assert c2.pmax * c2.ceps <= 1.0 + 1e-9


class TestTheoretical:
    def test_theoretical_constants_exist(self):
        c = ProtocolConstants.theoretical(SINRParameters.default(), gamma=2.0)
        assert c.pmax > 0
        assert c.ceps >= 1.0

    def test_theoretical_playoff_threshold_is_tiny(self):
        # The paper's proof constants are astronomically conservative.
        c = ProtocolConstants.theoretical(SINRParameters.default(), gamma=2.0)
        assert c.playoff_frac < 1e-3

    def test_theoretical_counts_self(self):
        c = ProtocolConstants.theoretical(SINRParameters.default(), gamma=2.0)
        assert c.playoff_counts_self is True

    def test_theoretical_self_tx_cannot_pass_playoff(self):
        # The paper's inequality: p_max * c_eps stays far below c3/c2, so
        # self-transmissions alone cannot clear the Playoff threshold.
        c = ProtocolConstants.theoretical(SINRParameters.default(), gamma=2.0)
        assert c.pmax * c.ceps <= c.playoff_frac

    def test_theoretical_requires_alpha_above_gamma(self):
        with pytest.raises(ProtocolError):
            ProtocolConstants.theoretical(
                SINRParameters.default(alpha=2.0), gamma=2.0
            )

    def test_theoretical_repeats_large(self):
        c = ProtocolConstants.theoretical(SINRParameters.default(), gamma=2.0)
        assert c.repeats >= 10  # c' = chi * C1 * ceps / q is huge


class TestColoringSchedule:
    def _schedule(self, n=64):
        return ColoringSchedule(ProtocolConstants.practical(), n)

    def test_block_structure(self):
        s = self._schedule()
        assert s.block_len == s.density_len + s.playoff_len
        assert s.level_len == s.constants.repeats * s.block_len
        assert s.total_rounds == s.levels * s.level_len

    def test_position_density_start(self):
        s = self._schedule()
        level, block, part, r = s.position(0)
        assert (level, block, part, r) == (0, 0, "density", 0)

    def test_position_playoff_boundary(self):
        s = self._schedule()
        level, block, part, r = s.position(s.density_len)
        assert part == "playoff" and r == 0

    def test_position_second_level(self):
        s = self._schedule()
        level, _, _, _ = s.position(s.level_len)
        assert level == 1

    def test_position_out_of_range(self):
        s = self._schedule()
        with pytest.raises(ProtocolError):
            s.position(s.total_rounds)
        with pytest.raises(ProtocolError):
            s.position(-1)

    def test_test_probability(self):
        s = self._schedule()
        for level in range(s.levels):
            p_v = s.level_probability(level)
            assert s.test_probability(level, "density") == p_v
            assert s.test_probability(level, "playoff") == min(
                1.0, p_v * s.constants.ceps
            )

    def test_block_end_detection(self):
        s = self._schedule()
        assert s.is_block_end(s.block_len - 1)
        assert not s.is_block_end(s.block_len - 2)

    def test_level_probability_matches_constants(self):
        s = self._schedule()
        assert s.level_probability(0) == s.constants.pstart(64)

    def test_every_offset_decomposes(self):
        s = ColoringSchedule(ProtocolConstants.practical(), 16)
        seen_levels = set()
        for offset in range(s.total_rounds):
            level, block, part, r = s.position(offset)
            assert 0 <= level < s.levels
            assert 0 <= block < s.constants.repeats
            assert part in ("density", "playoff")
            seen_levels.add(level)
        assert seen_levels == set(range(s.levels))

    @pytest.mark.parametrize("theoretical", [False, True])
    def test_lengths_match_constants_formulas(self, theoretical):
        # The lengths are computed once per schedule; each must still be
        # the ProtocolConstants formula at every n.
        constants = (
            ProtocolConstants.theoretical(SINRParameters.default())
            if theoretical else ProtocolConstants.practical(repeats=3)
        )
        for n in range(1, 4097):
            s = ColoringSchedule(constants, n)
            density = constants.density_test_rounds(n)
            playoff = constants.playoff_rounds(n)
            assert s.density_len == density
            assert s.playoff_len == playoff
            assert s.block_len == density + playoff
            assert s.level_len == constants.repeats * (density + playoff)
            assert s.levels == constants.num_levels(n)
            assert s.total_rounds == constants.coloring_total_rounds(n)
            assert s == ColoringSchedule(constants, n)
            assert hash(s) == hash(ColoringSchedule(constants, n))
