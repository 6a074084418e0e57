"""The sweep engine's reason to exist: batched vs sequential replication.

Three benchmarks run the same 64-seed SBroadcast sweep on the same
deployment through the three available execution paths — the batched
sweep engine, a Python loop of one-generator kernel calls, and the
reference per-node simulator (on a replication budget scaled down by
``REFERENCE_SCALE``; its per-replication time is what the JSON records).
A fourth test asserts the acceptance criterion directly: the batched
sweep beats the sequential fastsim loop by at least 5x at B=64.

Results land in the pytest-benchmark JSON format like every other bench
module (``pytest benchmarks/bench_sweep.py --benchmark-only
--benchmark-json=...``).
"""

import time

import numpy as np
import pytest

from repro.core.broadcast_spont import run_spont_broadcast
from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim import fast_spont_broadcast_batch, run_sweep, spawn_rngs

N_STATIONS = 64
N_REPLICATIONS = 64
SEED = 2014
#: The reference engine is orders of magnitude slower; bench a slice.
REFERENCE_SCALE = 16


@pytest.fixture(scope="module")
def net():
    return uniform_square(
        n=N_STATIONS, side=2.5, rng=np.random.default_rng(7)
    )


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


def _batched(net, constants):
    return run_sweep(
        "spont_broadcast", net, N_REPLICATIONS, SEED, constants, source=0
    )


def _looped(net, constants, n_replications=N_REPLICATIONS):
    return [
        fast_spont_broadcast_batch(net, 0, constants, [rng])[0]
        for rng in spawn_rngs(n_replications, SEED)
    ]


def test_sweep_batched(benchmark, net, constants):
    result = benchmark.pedantic(
        lambda: _batched(net, constants), rounds=1, iterations=1
    )
    assert result.n_replications == N_REPLICATIONS
    assert result.success_rate() == 1.0


def test_sweep_looped_fastsim(benchmark, net, constants):
    outcomes = benchmark.pedantic(
        lambda: _looped(net, constants), rounds=1, iterations=1
    )
    assert all(out.success for out in outcomes)


def test_sweep_reference_simulator(benchmark, net, constants):
    outcomes = benchmark.pedantic(
        lambda: [
            run_spont_broadcast(net, 0, constants, rng)
            for rng in spawn_rngs(
                N_REPLICATIONS // REFERENCE_SCALE, SEED
            )
        ],
        rounds=1, iterations=1,
    )
    assert all(out.success for out in outcomes)


def test_batched_at_least_5x_faster_than_loop(net, constants):
    """Acceptance criterion: 64 batched replications >= 5x faster than 64
    sequential single-instance fastsim runs."""
    # Warm caches (gain matrix, eccentricity) so both paths time the
    # replication work, not the shared one-off deployment costs.
    net.gains
    _looped(net, constants, n_replications=1)

    t0 = time.perf_counter()
    sweep = _batched(net, constants)
    batched_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    outcomes = _looped(net, constants)
    looped_s = time.perf_counter() - t0

    # Same seeds => identical per-replication outcomes (sanity check that
    # the comparison is apples to apples).
    for out, single in zip(sweep.outcomes, outcomes):
        assert np.array_equal(out.informed_round, single.informed_round)

    speedup = looped_s / batched_s
    print(
        f"\nbatched {batched_s:.2f}s vs looped {looped_s:.2f}s "
        f"({speedup:.1f}x, B={N_REPLICATIONS}, n={N_STATIONS})"
    )
    assert speedup >= 5.0, (
        f"batched sweep only {speedup:.1f}x faster than the sequential "
        f"fastsim loop (need >= 5x)"
    )
