"""Self time, span nesting and fork inheritance of the tracer."""

import multiprocessing
import types

import pytest

from spans import Patcher, Tracer, covered, layer_table, read_spans, self_times


def _span(span_id, parent, start, end, name="x", pid=1):
    return {"id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "pid": pid, "run": "r"}


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert covered([(0, 10), (5, 15)], 8, 12) == 4
    assert covered([(0, 5), (5, 9)], 0, 100) == 9
    assert covered([], 0, 100) == 0


def test_self_time_nested_children():
    spans = [
        _span("a", None, 0, 100),
        _span("b", "a", 10, 40),
        _span("c", "b", 20, 30),
    ]
    own = self_times(spans)
    assert own == {"a": 70, "b": 20, "c": 10}
    assert sum(own.values()) == 100  # self times account for the root


def test_self_time_overlapping_children_counted_once():
    spans = [
        _span("a", None, 0, 100),
        _span("b", "a", 10, 60),
        _span("c", "a", 40, 80),   # overlaps b (concurrent task)
        _span("d", "a", 90, 120),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own["a"] == 100 - (70 + 10)
    assert own["b"] == 50 and own["c"] == 40


def test_layer_table_sums_by_name():
    spans = [
        _span("a", None, 0, 100, name="outer"),
        _span("b", "a", 0, 30, name="inner"),
        _span("c", "a", 50, 60, name="inner", pid=2),
    ]
    table = layer_table(spans)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["self_s"] == pytest.approx(40e-9)
    assert table["outer"]["self_s"] == pytest.approx(60e-9)
    assert table["inner"]["pids"] == {1, 2}


def test_wrap_records_parent_and_attrs(tmp_path):
    tracer = Tracer("t", tmp_path)

    def inner(x):
        return x * 2

    wrapped_inner = tracer.wrap(inner, "inner",
                                attrs=lambda a, k, r: {"out": r})

    def outer(x):
        return wrapped_inner(x) + 1

    assert tracer.wrap(outer, "outer")(3) == 7
    by_name = {s["name"]: s for s in tracer.records()}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["attrs"] == {"out": 6}


def test_wrap_skips_calls_when_predicate_false(tmp_path):
    tracer = Tracer("t", tmp_path)
    fn = tracer.wrap(lambda x: x, "f", when=lambda a, k: a[0] > 0)
    fn(0)
    fn(1)
    assert len(tracer.spans) == 1


def test_wrap_records_span_when_call_raises(tmp_path):
    tracer = Tracer("t", tmp_path)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert [s["name"] for s in tracer.records()] == ["boom"]


def test_patcher_rebinds_and_restores():
    def original():
        return "orig"

    mod = types.ModuleType("workloads._patch_probe")
    mod.alias = original
    import sys

    sys.modules[mod.__name__] = mod
    try:
        patcher = Patcher()
        assert patcher.everywhere(original, lambda: "new") == 1
        assert mod.alias() == "new"
        table = {"k": 1}
        patcher.item(table, "k", 2)
        patcher.restore()
        assert mod.alias is original and table == {"k": 1}
    finally:
        del sys.modules[mod.__name__]


def _work(x):
    return _TRACED(x)


_TRACED = None


def test_fork_workers_write_their_own_spans(tmp_path):
    global _TRACED
    tracer = Tracer("forked", tmp_path)
    _TRACED = tracer.wrap(lambda x: x + 1, "task")
    tracer.follow_forks()
    with tracer.span("parent"):
        with multiprocessing.get_context("fork").Pool(2) as pool:
            assert pool.map(_work, range(6)) == list(range(1, 7))
            pool.close()
            pool.join()
    tracer.flush()
    timeline = read_spans(sorted(tmp_path.glob("spans-forked-*.jsonl")))
    tasks = [s for s in timeline if s["name"] == "task"]
    assert len(tasks) == 6
    parent = [s for s in timeline if s["name"] == "parent"][0]
    assert {s["pid"] for s in tasks}.isdisjoint({parent["pid"]})
    # Workers inherit the context they were forked in.
    assert {s["parent"] for s in tasks} == {parent["id"]}
