"""Verdicts of the compare tool on synthetic result sets."""

import json

from compare import load, main, pairs_won, verdict


def _runs(values):
    return {seed: v for seed, v in enumerate(values)}


def _judge(parent, change, higher=True, bound=0.1):
    won, pairs = pairs_won(_runs(parent), _runs(change), higher)
    return verdict(parent, change, won, pairs, higher, bound)


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_clear_gain_is_improved():
    assert _judge(STEADY, [v * 1.2 for v in STEADY]) == "improved"
    assert _judge(STEADY, [v * 0.8 for v in STEADY],
                  higher=False) == "improved"


def test_same_distribution_is_no_worse():
    assert _judge(STEADY, list(reversed(STEADY))) == "no worse"


def test_small_loss_within_bound_is_no_worse():
    assert _judge(STEADY, [v * 0.95 for v in STEADY]) == "no worse"


def test_loss_beyond_bound_is_worse():
    assert _judge(STEADY, [v * 0.8 for v in STEADY]) == "worse"


def test_gain_with_too_few_pairs_won_is_not_improved():
    change = [v * 1.02 for v in STEADY]
    change[:3] = [v * 0.99 for v in STEADY[:3]]  # loses 3 of 10 pairs
    assert _judge(STEADY, change) == "no worse"


def test_noisy_parent_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
    assert _judge(noisy, [v * 0.9 for v in noisy]) == "unresolved"


def test_noisy_but_dominating_change_is_no_worse():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
    assert _judge(noisy, [v + 100.0 for v in noisy]) == "improved"
    # Every run beats every parent run, but by less than the parent's
    # interquartile range: not a claimable gain, yet clearly no worse.
    assert _judge(noisy, [141.0] * 10) == "no worse"


def test_ties_count_for_neither_side():
    assert pairs_won(_runs([1.0, 2.0]), _runs([1.0, 3.0]), True) == (1, 2)


def _write(path, values, workload="w"):
    with open(path, "w") as handle:
        for seed, v in enumerate(values):
            handle.write(json.dumps({
                "context": {"workload": workload, "seed": seed},
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": {"value": v, "unit": "1/s"}},
            }) + "\n")


def test_main_reports_and_fails_on_worse(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.1}],
        "per_layer": [],
    }))
    _write(tmp_path / "p.jsonl", STEADY)
    _write(tmp_path / "c.jsonl", [v * 0.5 for v in STEADY])
    assert len(load(tmp_path / "p.jsonl")[("w", "ops_per_s")]) == 10
    code = main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"),
                 "--benchmark", str(bench)])
    assert code == 1
    assert "worse" in capsys.readouterr().out
