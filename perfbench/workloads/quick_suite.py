"""``quick_suite``: all sixteen experiments at quick scale, cold then warm.

Runs every registered experiment in-process with ``jobs=2`` (the grid
fork pool) and a fresh result-cache directory.  The cold pass computes
every grid point and writes the cache entries and journals; the warm
passes repeat the suite and replay them.  Covers the dense small-n
kernels of every protocol and the cache in both directions; the sparse
near scan does almost no work here.
"""

from __future__ import annotations

import shutil
import statistics
import time

from common import OUT, Paced, Result, peak_rss_mb, span
from repro.experiments.registry import get_experiment, list_experiments
from repro.fastsim.grid import (
    GridOptions,
    get_default_grid_options,
    last_grid_stats,
    set_default_grid_options,
)

#: Modules whose import is part of set-up.
IMPORTS = ["repro.experiments.registry", "repro.fastsim.grid"]

JOBS = 2
MIN_COLD_PASSES = 2
MIN_WARM_PASSES = 2
#: Experiment seed of workload seed ``s`` is ``BASE_SEED + s``.
BASE_SEED = 2014


def run_pass(seed: int, pace=None):
    """One pass over the registry.

    :param pace: a :class:`common.Paced` probing the machine speed
        between experiments, or ``None``.
    :returns: ``(reports, grid stats, seconds, seconds at nominal
        machine speed or None)``.
    """
    reports, grids = {}, {}
    seconds, scaled = 0.0, 0.0
    for exp_id in list_experiments():
        t0 = time.perf_counter()
        reports[exp_id] = get_experiment(exp_id)(
            scale="quick", seed=BASE_SEED + seed
        )
        spent = time.perf_counter() - t0
        grids[exp_id] = last_grid_stats()
        seconds += spent
        if pace is not None:
            scaled += spent / pace.add(1, spent)
    return reports, grids, seconds, scaled if pace is not None else None


def _same(a, b) -> bool:
    """Equality that also holds for NaN (reports may carry NaN metrics)."""
    return a == b or repr(a) == repr(b)


def prepare(seed: int) -> int:
    """Inputs are generated from the seed inside set-up."""
    return seed


def _check(reference, run, label, warm, problems) -> int:
    """Failures of one pass against the first cold pass."""
    reports, grids = run[0], run[1]
    failed = 0
    for exp_id, report in reference.items():
        grid = grids[exp_id]
        expected_cached = grid["points"] if warm else 0
        if grid["cached"] != expected_cached:
            failed += abs(grid["cached"] - expected_cached)
            problems.append(
                f"{label} {exp_id}: {grid['cached']} of {grid['points']} "
                f"grid points came from the cache, expected "
                f"{expected_cached}"
            )
        other = reports[exp_id].metrics
        if set(other) != set(report.metrics) or not all(
            _same(report.metrics[m], other[m]) for m in report.metrics
        ):
            failed += 1
            problems.append(f"{label} {exp_id}: metrics differ from the "
                            "first cold pass")
    return failed


def measure(seed, seconds, tracer=None, setup_reps=1, import_s=0.0):
    """Cold passes for half of ``seconds``, warm passes for the rest.

    Each cold pass gets a fresh cache directory; the warm passes replay
    the last one.  Set-up is the imports alone (``import_s``); the
    experiments build their own deployments inside the timed passes.
    """
    previous = get_default_grid_options()
    caches, cold, warm = [], [], []
    pace = Paced()
    try:
        with span(tracer, "bench.timed"):
            start = time.perf_counter()
            while (len(cold) < MIN_COLD_PASSES
                   or time.perf_counter() - start < seconds / 2):
                caches.append(OUT / f"cache-{seed}-{time.time_ns()}")
                set_default_grid_options(
                    GridOptions(jobs=JOBS, cache_dir=str(caches[-1]))
                )
                cold.append(run_pass(seed, pace))
            while (len(warm) < MIN_WARM_PASSES
                   or time.perf_counter() - start < seconds):
                warm.append(run_pass(seed))
    finally:
        set_default_grid_options(previous)
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)

    problems: list = []
    reference = cold[0][0]
    failed = 0
    for label, passes, is_warm in (("cold", cold, False),
                                   ("warm", warm, True)):
        for k, run in enumerate(passes):
            failed += _check(reference, run, f"{label} pass {k}", is_warm,
                             problems)
    points = sum(g["points"] for g in cold[0][1].values())
    attempted = sum(
        len(run[0]) + sum(g["points"] for g in run[1].values())
        for run in cold + warm
    )
    suite_s = statistics.mean(run[2] for run in cold)
    scaled_s = statistics.median(run[3] for run in cold)
    replay_s = statistics.median(run[2] for run in warm)
    return Result(
        metrics={
            "setup_s": import_s,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": points / scaled_s,
        },
        report={
            "suite_s": (suite_s, "s", f"mean of {len(cold)} cold passes, "
                                      f"{points} grid points, jobs={JOBS}"),
            "scaled_suite_s": (scaled_s, "s",
                               "median at nominal machine speed"),
            "speed_factor": (statistics.median(pace.factors), "ratio",
                             "machine slowness, 1 = nominal"),
            "replay_s": (replay_s, "s",
                         f"median of {len(warm)} warm passes"),
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
