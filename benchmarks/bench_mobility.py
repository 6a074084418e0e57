"""Mobility: incremental sparse advance vs rebuild-per-round, plus E15.

The acceptance criteria of the mobility layer (DESIGN.md §7) are
asserted directly:

* at n >= 20,000 with at most 5% of the stations moving per round, the
  incremental :meth:`repro.network.network.Network.advance` path is at
  least **5x faster** than rebuilding the sparse backend from scratch,
  and the patched CSR state is **bitwise equal** to the rebuilt one;
* the E15 experiment's quick mode runs end to end and its headline
  metrics hold (broadcast stays reliable under drift, escape time is
  monotone in the mobility rate).

CI uploads the pytest-benchmark JSON as ``BENCH_mobility.json``
alongside ``BENCH_grid.json`` and ``BENCH_sinr.json``; the advance
record's ``extra_info`` carries n, the move fraction, the best patch
and rebuild times, their ratio, the core count and the kernel kind,
written even when the speedup floor then fails.
"""

import math
import os
import time

import numpy as np
import pytest

from repro.sysmem import available_memory_bytes
from repro.network.network import Network
from repro.sinr.sparse import SparseGainBackend

SEED = 2014
DENSITY = 12.0
CUTOFF = 2.0

N = 20_000
MOVE_FRACTION = 0.05
STEP_SCALE = 0.05
ROUNDS = 5
SPEEDUP_FLOOR = 5.0


def _base_network(n: int) -> Network:
    side = math.sqrt(n / DENSITY)
    coords = np.random.default_rng(SEED).uniform(0, side, size=(n, 2))
    return Network(
        coords, name=f"mob-{n}", backend="sparse", cutoff=CUTOFF
    )


def _interior_displacement(
    net: Network, rng: np.random.Generator
) -> np.ndarray:
    """Move MOVE_FRACTION of the interior stations (bounding box stable,
    so the advance stays on the incremental path)."""
    coords = net.coords
    side = coords.max()
    interior = np.flatnonzero(
        np.all((coords > 1.0) & (coords < side - 1.0), axis=1)
    )
    moved = rng.choice(
        interior, size=int(MOVE_FRACTION * net.size), replace=False
    )
    disp = np.zeros_like(coords)
    disp[moved] = STEP_SCALE * rng.standard_normal((moved.size, 2))
    return disp


@pytest.mark.skipif(
    available_memory_bytes() < 2 * 10**9,
    reason="needs ~2 GB available memory for the 20k sparse builds",
)
def test_incremental_advance_speedup_and_equivalence(benchmark, capsys):
    """Acceptance: advance >= 5x faster than rebuild, state bitwise equal."""
    net = _base_network(N)
    net.sparse_backend  # build once outside the timed region
    rng = np.random.default_rng(SEED + 1)
    disps = [_interior_displacement(net, rng) for _ in range(ROUNDS)]

    patch_times = []
    current = net
    for disp in disps:
        t0 = time.perf_counter()
        current = current.advance(disp)
        patch_times.append(time.perf_counter() - t0)
        assert current.advance_mode == "patched-sparse"

    rebuild_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rebuilt = SparseGainBackend(
            current.coords, net.params, net.channel, CUTOFF
        )
        rebuild_times.append(time.perf_counter() - t0)

    # Best-of runs: on shared machines the medians are noise-bound; the
    # minima measure the code paths.
    patch = min(patch_times)
    rebuild = min(rebuild_times)
    speedup = rebuild / patch

    patched = current.sparse_backend
    assert np.array_equal(patched.indptr, rebuilt.indptr)
    assert np.array_equal(patched.indices, rebuilt.indices)
    assert np.array_equal(patched.data, rebuilt.data)
    assert np.array_equal(patched.dists, rebuilt.dists)

    with capsys.disabled():
        print(
            f"\nincremental advance n={N} ({MOVE_FRACTION:.0%} moving): "
            f"patch {patch * 1e3:.0f} ms vs rebuild {rebuild * 1e3:.0f} ms "
            f"-> {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)"
        )
    # Recorded before the floor is asserted, so the JSON keeps the
    # figures of a run whose floor fails.
    benchmark.extra_info.update(
        n=N,
        move_fraction=MOVE_FRACTION,
        patch_ms=patch * 1e3,
        rebuild_ms=rebuild * 1e3,
        speedup=speedup,
        nproc=os.cpu_count(),
        kernel_kind=net.kernel_kind,
    )
    benchmark.pedantic(
        lambda: net.advance(disps[0]), rounds=1, iterations=1
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental advance only {speedup:.1f}x faster than rebuild "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_advance_rebuild_threshold(capsys):
    """Above the moved-fraction threshold the advance must not patch."""
    net = _base_network(4096)
    net.sparse_backend
    disp = np.full((net.size, 2), 1e-3)
    out = net.advance(disp)
    assert out.advance_mode == "rebuild"


def test_e15_mobility(run_experiment):
    report = run_experiment("E15")
    # Broadcast must stay reliable under drift (mild rates).
    assert report.metrics["min_success_rate"] >= 0.9
    # Movement changes cost by a bounded factor, not an order.
    assert report.metrics["max_slowdown"] < 3.0
    # Faster drift escapes the same-graph family no later.
    assert report.metrics["escape_monotone"] is True
