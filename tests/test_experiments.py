"""Tests for the experiment harness (registry, base, reports).

The quick-scale experiments themselves run in the benchmark suite; here
we validate the harness plumbing plus the two fastest experiments end to
end (their metrics encode paper claims).
"""

import pytest

from repro.analysis.tables import render_table
from repro.errors import AnalysisError
from repro.experiments.base import ExperimentReport, check_scale, fmt
from repro.experiments.registry import get_experiment, list_experiments


class TestRegistry:
    def test_sixteen_experiments(self):
        assert len(list_experiments()) == 16
        assert list_experiments()[0] == "E01"
        assert list_experiments()[-1] == "E16"

    def test_lookup_case_insensitive(self):
        assert get_experiment("e05") is get_experiment("E05")

    def test_unknown_id(self):
        with pytest.raises(AnalysisError):
            get_experiment("E99")


class TestBase:
    def test_check_scale(self):
        assert check_scale("quick") == "quick"
        with pytest.raises(AnalysisError):
            check_scale("huge")

    def test_fmt(self):
        assert fmt(3.14159) == "3.1"
        assert fmt(3.14159, 3) == "3.142"

    def test_report_render(self):
        report = ExperimentReport(
            exp_id="EXX",
            title="T",
            claim="C",
            headers=["a"],
            rows=[[1]],
            metrics={"m": 2},
            notes=["n"],
        )
        text = report.render()
        assert "EXX" in text and "claim: C" in text
        assert "m=2" in text and "note: n" in text


class TestQuickExperiments:
    """Run the two cheapest experiments fully; assert their paper claims."""

    def test_e01_coloring_polylog(self):
        report = get_experiment("E01")(scale="quick")
        assert report.metrics["log_poly_r2"] > 0.999
        # Sub-polynomial growth: far below linear.
        assert report.metrics["growth_exponent"] < 0.8
        assert len(report.rows) == 5

    def test_e12_geometry_independence(self):
        report = get_experiment("E12")(scale="quick")
        # Same-graph family varies far less than different graphs.
        assert report.metrics["family_spread"] < 0.5
        assert (
            report.metrics["family_spread"]
            < report.metrics["with_controls_spread"]
        )

    def test_reports_render_as_tables(self):
        report = get_experiment("E01")(scale="quick")
        text = render_table(report.headers, report.rows)
        assert text.count("\n") >= len(report.rows)
