"""Tests for fitting, statistics and table rendering."""

import math

import numpy as np
import pytest

from repro.analysis.fitting import (
    COMPLEXITY_MODELS,
    daum_bound,
    fit_models,
    fit_single,
    fit_two_term,
    growth_exponent,
    paper_bound_nospont,
    paper_bound_spont,
)
from repro.analysis.stats import (
    aggregate_trials,
    relative_spread,
    success_rate,
)
from repro.analysis.tables import render_table
from repro.errors import AnalysisError


class TestFitSingle:
    def test_recovers_linear(self):
        x = [1, 2, 4, 8, 16]
        y = [3 * v for v in x]
        fit = fit_single(x, y, "n")
        assert fit.scale == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_log_squared(self):
        x = [4, 16, 64, 256, 1024]
        y = [5 * math.log2(v) ** 2 for v in x]
        fit = fit_single(x, y, "log^2 n")
        assert fit.scale == pytest.approx(5.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_wrong_model_lower_r2(self):
        x = [4, 16, 64, 256, 1024]
        y = [2.0 * v for v in x]
        good = fit_single(x, y, "n")
        bad = fit_single(x, y, "log n")
        assert good.r_squared > bad.r_squared

    def test_predict(self):
        fit = fit_single([1, 2, 3], [2, 4, 6], "n")
        assert fit.predict(np.array([10]))[0] == pytest.approx(20.0)

    def test_unknown_model(self):
        with pytest.raises(AnalysisError):
            fit_single([1, 2], [1, 2], "n^3")

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            fit_single([1], [1], "n")

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError):
            fit_single([1, 2], [1, 2, 3], "n")


class TestFitModels:
    def test_sorted_by_r2(self):
        x = [2, 4, 8, 16, 32, 64]
        y = [7.0 * v for v in x]
        fits = fit_models(x, y, ["log n", "n", "n^2"])
        assert fits[0].model == "n"
        assert fits[0].r_squared >= fits[1].r_squared >= fits[2].r_squared

    def test_default_models_all_run(self):
        x = [2, 4, 8, 16]
        y = [1.0, 2.0, 3.0, 4.0]
        fits = fit_models(x, y)
        assert len(fits) == len(COMPLEXITY_MODELS)


class TestFitTwoTerm:
    def test_recovers_paper_shape(self):
        x = np.array([4, 8, 16, 32, 64, 128])
        y = 10 * np.log2(x) ** 2 + 5 * np.log2(x)
        a, b, r2 = fit_two_term(x, y, "log^2 n", "log n")
        assert a == pytest.approx(10.0, rel=1e-6)
        assert b == pytest.approx(5.0, rel=1e-6)
        assert r2 == pytest.approx(1.0)

    def test_affine_in_depth(self):
        x = np.array([3, 6, 12, 24])
        y = 100.0 * x + 250.0
        slope, intercept, r2 = fit_two_term(x, y, "n", "const")
        assert slope == pytest.approx(100.0)
        assert intercept == pytest.approx(250.0)

    def test_needs_three_points(self):
        with pytest.raises(AnalysisError):
            fit_two_term([1, 2], [1, 2], "n", "const")

    def test_unknown_model(self):
        with pytest.raises(AnalysisError):
            fit_two_term([1, 2, 3], [1, 2, 3], "nope", "const")


class TestGrowthExponent:
    def test_linear_is_one(self):
        x = [1, 2, 4, 8]
        assert growth_exponent(x, [2 * v for v in x]) == pytest.approx(1.0)

    def test_flat_is_zero(self):
        assert growth_exponent([1, 2, 4, 8], [5, 5, 5, 5]) == pytest.approx(0.0)

    def test_quadratic_is_two(self):
        x = [1, 2, 4, 8]
        assert growth_exponent(x, [v ** 2 for v in x]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(AnalysisError):
            growth_exponent([1, 2], [0, 1])

    def test_rejects_single_point(self):
        with pytest.raises(AnalysisError):
            growth_exponent([1], [1])


class TestBounds:
    def test_daum_bound_grows_with_granularity(self):
        small = daum_bound(10, 100, 2.0, 3.0)
        large = daum_bound(10, 100, 2.0 ** 20, 3.0)
        assert large > small * 1000

    def test_daum_bound_validates(self):
        with pytest.raises(AnalysisError):
            daum_bound(0, 100, 2.0, 3.0)

    def test_paper_bounds_shapes(self):
        assert paper_bound_spont(10, 256) == pytest.approx(10 * 8 + 64)
        assert paper_bound_nospont(10, 256) == pytest.approx(10 * 64)

    def test_nospont_dominates_spont(self):
        for d in (1, 5, 50):
            assert paper_bound_nospont(d, 256) >= paper_bound_spont(d, 256) / 2


class TestStats:
    def test_aggregate_basics(self):
        s = aggregate_trials([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_aggregate_single(self):
        s = aggregate_trials([7.0])
        assert s.std == 0.0
        assert s.p90 == 7.0

    def test_aggregate_empty_rejected(self):
        with pytest.raises(AnalysisError):
            aggregate_trials([])

    def test_str_contains_mean(self):
        assert "mean=2.5" in str(aggregate_trials([2.0, 3.0]))

    def test_success_rate(self):
        assert success_rate([True, True, False, False]) == 0.5
        assert success_rate([True]) == 1.0

    def test_success_rate_empty_rejected(self):
        with pytest.raises(AnalysisError):
            success_rate([])

    def test_relative_spread(self):
        assert relative_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)

    def test_relative_spread_zero_median(self):
        with pytest.raises(AnalysisError):
            relative_spread([0.0, 0.0])


class TestRenderTable:
    def test_basic_render(self):
        out = render_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "30" in lines[3]

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_alignment(self):
        out = render_table(["col"], [["verylongcell"], ["x"]])
        lines = out.splitlines()
        assert len(lines[1]) == len("verylongcell")

    def test_width_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            render_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(AnalysisError):
            render_table([], [])


class TestOutcome:
    def test_progress_curve(self):
        from repro.core.outcome import BroadcastOutcome

        out = BroadcastOutcome(
            success=True,
            completion_round=3,
            total_rounds=5,
            informed_round=np.array([0, 1, 1, 3]),
            algorithm="test",
        )
        curve = out.progress_curve()
        assert list(curve) == [1, 3, 3, 4, 4, 4]
        assert out.num_informed == 4

    def test_num_informed_with_failures(self):
        from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome

        out = BroadcastOutcome(
            success=False,
            completion_round=NEVER_INFORMED,
            total_rounds=5,
            informed_round=np.array([0, NEVER_INFORMED]),
            algorithm="test",
        )
        assert out.num_informed == 1

    def test_of_applies_the_success_rule(self):
        from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome

        done = BroadcastOutcome.of(np.array([0, 4, 2]), np.int64(6), "t")
        assert (done.success, done.completion_round) == (True, 4)
        assert type(done.total_rounds) is int and done.extras == {}
        partial = BroadcastOutcome.of(
            np.array([0, NEVER_INFORMED]), 9, "t", {"k": 1}
        )
        assert (partial.success, partial.completion_round) == (
            False, NEVER_INFORMED
        )
        assert partial.extras == {"k": 1}

    def test_check_stations(self):
        from repro.core.outcome import check_stations
        from repro.errors import ProtocolError

        # Sorted, without repeats, from any iterable of integers.
        assert check_stations(5, (v for v in [3, 1, 3])) == [1, 3]
        assert check_stations(5, np.array([4, 0], dtype=np.uint8)) == [0, 4]
        assert check_stations(5, []) == []
        for bad in ([5], [-1], [True], [np.bool_(False)], [1.0], [0.5]):
            with pytest.raises(ProtocolError, match="station index"):
                check_stations(5, bad, "initiators")
