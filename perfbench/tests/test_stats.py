"""Percentile sample-count rule and open-loop due-time accounting."""

import pytest

from stats import MIN_BEYOND, OpenLoopSchedule, percentile, quartiles


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 99) is None  # 9 beyond
    assert percentile(list(range(1000)), 99)["beyond"] == 10
    p = percentile(list(range(1100)), 99)
    assert p == {"value": 1088, "samples": 1100, "beyond": 11}
    assert percentile([], 50) is None


def test_percentile_median_nearest_rank():
    p = percentile([5.0, 1.0, 3.0] * 10, 50)
    assert p["value"] == 3.0 and p["samples"] == 30
    assert p["beyond"] >= MIN_BEYOND


def test_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_open_loop_latency_runs_from_due_time():
    sched = OpenLoopSchedule(rate=100.0, start=10.0)
    assert sched.due(0) == 10.0 and sched.due(5) == pytest.approx(10.05)
    # Request 3 leaves 20 ms late (the generator stalled) and its reply
    # takes 5 ms: the latency charged is 25 ms, not the 5 ms of service.
    sched.sent(3, 10.03 + 0.02)
    sched.done(3, 10.03 + 0.025)
    assert sched.lateness == [pytest.approx(0.02)]
    assert sched.latencies == [pytest.approx(0.025)]


def test_open_loop_early_send_is_not_negative_lateness():
    sched = OpenLoopSchedule(rate=10.0, start=0.0)
    sched.sent(1, 0.05)
    assert sched.lateness == [0.0]


def test_open_loop_count_due():
    sched = OpenLoopSchedule(rate=1000.0, start=1.0)
    assert sched.count_due(0.5) == 0
    assert sched.count_due(1.0) == 1
    assert sched.count_due(1.0105) == 11
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=0.0, start=0.0)
