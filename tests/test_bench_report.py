"""Tests for tools/bench_report.py (BENCH artifact -> trajectory merge)."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)
import bench_report  # noqa: E402  (tools/ is not a package)


def _artifact(tmp_path, name, benches):
    payload = {
        "machine_info": {"node": "ci", "python_version": "3.x",
                         "cpu": {"count": 2}},
        "benchmarks": [
            {
                "name": bench_name,
                "stats": {"mean": mean, "min": mean, "stddev": 0.0,
                          "rounds": 1},
                "extra_info": extra,
            }
            for bench_name, mean, extra in benches
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestMerge:
    def test_merges_across_artifacts(self, tmp_path):
        a = _artifact(tmp_path, "BENCH_grid.json",
                      [("bench_a", 1.5, {"jobs": 4})])
        b = _artifact(tmp_path, "BENCH_distrib.json",
                      [("bench_b", 0.5, {})])
        snap = bench_report.merge_snapshot([a, b], "abc123")
        assert snap["label"] == "abc123"
        assert set(snap["benchmarks"]) == {"bench_a", "bench_b"}
        assert snap["benchmarks"]["bench_a"]["mean_s"] == 1.5
        assert snap["benchmarks"]["bench_a"]["source"] == "BENCH_grid.json"
        assert snap["sources"] == ["BENCH_distrib.json", "BENCH_grid.json"]
        assert snap["machine"]["node"] == "ci"

    def test_machine_facts_lifted_from_extra_info(self, tmp_path):
        a = _artifact(tmp_path, "BENCH_sweep.json", [("bench_a", 1.0, {})])
        b = _artifact(tmp_path, "BENCH_traffic.json", [
            ("bench_b", 0.3, {"nproc": 8, "kernel_kind": "numpy"}),
        ])
        snap = bench_report.merge_snapshot([a, b], "x")
        assert snap["machine"]["nproc"] == 8
        assert snap["machine"]["kernel_kind"] == "numpy"
        assert snap["machine"]["cpu"] == {"count": 2}
        # The facts stay with the benchmark that measured them too.
        assert snap["benchmarks"]["bench_b"]["extra_info"]["nproc"] == 8

    def test_machine_facts_default_without_extra_info(self, tmp_path):
        a = _artifact(tmp_path, "BENCH_grid.json", [("bench_a", 1.0, {})])
        snap = bench_report.merge_snapshot([a], "x")
        assert snap["machine"]["nproc"] == 2  # the cpuinfo core count
        assert snap["machine"]["kernel_kind"] is None

    def test_non_benchmark_json_rejected(self, tmp_path):
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text(json.dumps({"not": "a benchmark"}))
        with pytest.raises(ValueError, match="not a pytest-benchmark"):
            bench_report.merge_snapshot([bogus], "x")


class TestTrajectory:
    def test_append_then_replace_by_label(self, tmp_path):
        a = _artifact(tmp_path, "BENCH_a.json", [("bench", 1.0, {})])
        out = tmp_path / "TRAJECTORY.json"
        bench_report.append_snapshot(
            out, bench_report.merge_snapshot([a], "one")
        )
        bench_report.append_snapshot(
            out, bench_report.merge_snapshot([a], "two")
        )
        trajectory = json.loads(out.read_text())
        assert [s["label"] for s in trajectory] == ["one", "two"]
        # Re-running a label replaces its snapshot, not duplicates it.
        b = _artifact(tmp_path, "BENCH_b.json", [("bench", 2.0, {})])
        bench_report.append_snapshot(
            out, bench_report.merge_snapshot([b], "one")
        )
        trajectory = json.loads(out.read_text())
        assert [s["label"] for s in trajectory] == ["two", "one"]
        assert trajectory[-1]["benchmarks"]["bench"]["mean_s"] == 2.0

    def test_cli_end_to_end(self, tmp_path, capsys):
        a = _artifact(tmp_path, "BENCH_a.json", [("bench", 1.0, {})])
        out = tmp_path / "TRAJECTORY.json"
        assert bench_report.main(
            [str(a), "--output", str(out), "--label", "sha1"]
        ) == 0
        printed = capsys.readouterr().out
        assert "snapshot 'sha1'" in printed and "bench" in printed
        assert json.loads(out.read_text())[0]["label"] == "sha1"

    def test_cli_print_only_writes_nothing(self, tmp_path, capsys):
        a = _artifact(tmp_path, "BENCH_a.json", [("bench", 1.0, {})])
        out = tmp_path / "TRAJECTORY.json"
        assert bench_report.main(
            [str(a), "--output", str(out), "--print"]
        ) == 0
        assert not out.exists()
        assert "snapshot 'local'" in capsys.readouterr().out

    def test_corrupt_trajectory_rejected(self, tmp_path):
        a = _artifact(tmp_path, "BENCH_a.json", [("bench", 1.0, {})])
        out = tmp_path / "TRAJECTORY.json"
        out.write_text(json.dumps({"oops": 1}))
        with pytest.raises(ValueError, match="must be a JSON list"):
            bench_report.append_snapshot(
                out, bench_report.merge_snapshot([a], "x")
            )
