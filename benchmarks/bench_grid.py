"""The grid orchestrator's reason to exist: parallel vs serial point sweeps.

One multi-point SBroadcast grid (10 deployments of growing size, batched
replications per point) runs through three paths — ``run_grid(jobs=1)``
(the serial baseline the experiments used to hand-roll), ``run_grid``
with a 4-worker fork pool running on the parent's gain matrices, and a
pure cache replay.  The acceptance criteria of the grid subsystem are asserted
directly:

* the parallel run is **bitwise result-identical** to the serial run
  (always checked — seeds are fixed at preparation time);
* at 4 workers the parallel run beats serial by **>= 3x** wall-clock
  (checked where >= 4 cores exist; wall-clock parallelism cannot exceed
  the core count, so smaller boxes record the JSON without gating).

Results land in the pytest-benchmark JSON like every other bench module
(``pytest benchmarks/bench_grid.py --benchmark-only
--benchmark-json=...``); CI uploads the JSON as ``BENCH_grid.json``.
"""

import os
import time

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim import GridPoint, GridSpec, run_grid

SEED = 2014
N_REPLICATIONS = 24
#: >= 8 points per the acceptance criterion; sizes vary so the schedule
#: is irregular (the pool must load-balance, not just stripe).
POINT_SIZES = (96, 104, 112, 120, 128, 136, 144, 152, 112, 128)
JOBS = 4


def _spec() -> GridSpec:
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=2.5, rng=rng
            ),
            n_replications=N_REPLICATIONS,
            label=f"n={n}#{i}",
            constants=ProtocolConstants.practical(),
            kwargs={"source": 0},
        )
        for i, n in enumerate(POINT_SIZES)
    ]
    return GridSpec(points=points, seed=SEED, name="bench-grid")


def _assert_complete(results):
    assert len(results) == len(POINT_SIZES)
    assert all(r.sweep.n_replications == N_REPLICATIONS for r in results)


def test_grid_serial(benchmark):
    results = benchmark.pedantic(
        lambda: run_grid(_spec(), jobs=1, cache=False),
        rounds=1, iterations=1,
    )
    _assert_complete(results)


def test_grid_parallel(benchmark):
    results = benchmark.pedantic(
        lambda: run_grid(_spec(), jobs=JOBS, cache=False),
        rounds=1, iterations=1,
    )
    _assert_complete(results)


def test_grid_cache_replay(benchmark, tmp_path):
    run_grid(_spec(), jobs=JOBS, cache_dir=tmp_path)  # populate
    results = benchmark.pedantic(
        lambda: run_grid(_spec(), jobs=1, cache_dir=tmp_path),
        rounds=1, iterations=1,
    )
    _assert_complete(results)
    assert all(r.cached for r in results)


def test_parallel_bitwise_identical_to_serial():
    """Acceptance criterion: jobs=4 and jobs=1 agree bit for bit."""
    serial = run_grid(_spec(), jobs=1, cache=False)
    parallel = run_grid(_spec(), jobs=JOBS, cache=False)
    for s, p in zip(serial, parallel):
        assert np.array_equal(s.sweep.rounds, p.sweep.rounds, equal_nan=True)
        assert np.array_equal(s.sweep.success, p.sweep.success)
        for so, po in zip(s.sweep.outcomes, p.sweep.outcomes):
            assert np.array_equal(so.informed_round, po.informed_round)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < JOBS,
    reason=f"needs >= {JOBS} cores for a {JOBS}-worker wall-clock gate",
)
def test_parallel_at_least_3x_faster_than_serial():
    """Acceptance criterion: >= 3x wall-clock at 4 workers on >= 8 points."""
    # One throwaway parallel run first: fork-pool startup, numpy caches
    # and page-cache effects land outside the timed region.
    run_grid(_spec(), jobs=JOBS, cache=False)

    t0 = time.perf_counter()
    run_grid(_spec(), jobs=1, cache=False)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_grid(_spec(), jobs=JOBS, cache=False)
    parallel_s = time.perf_counter() - t0

    speedup = serial_s / parallel_s
    print(
        f"\nserial {serial_s:.2f}s vs {JOBS}-worker {parallel_s:.2f}s "
        f"({speedup:.1f}x over {len(POINT_SIZES)} points)"
    )
    assert speedup >= 3.0, (
        f"grid only {speedup:.1f}x faster at {JOBS} workers (need >= 3x)"
    )
