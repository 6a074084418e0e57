"""Dense vs sparse SINR backend: peak memory and rounds/sec at scale.

The acceptance criteria of the sparse backend (DESIGN.md §2.2) are
asserted directly:

* at n = 50,000 the sparse backend's resident gain structure is at
  least **10x smaller** than the dense backend's (which holds the
  ``(n, n)`` distance *and* gain matrices — 40 GB at 50k, so the dense
  figure is analytic above :data:`DENSE_MEASURE_MAX`; at 2k both sides
  are measured and the analytic formula is cross-checked);
* an **n = 100,000 wake-up round** completes through the vectorized
  kernel stack in sparse mode.

Resolver throughput (rounds/sec on protocol-shaped transmitter sets) is
recorded for both backends at n = 2k and for the sparse backend at 10k,
20k and 50k, with the core count and the resolved kernel in ``extra_info``;
so are the traced (``tracemalloc``) peak of a separate, untimed build
and that build's bytes per near-field entry.
CI uploads the pytest-benchmark JSON as ``BENCH_sinr.json`` alongside
``BENCH_grid.json``.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from repro.sysmem import available_memory_bytes
from repro.core.constants import ProtocolConstants
from repro.network.network import Network
from repro.sinr.reception import resolve_reception_batch
from repro.sinr.sparse import SparseGainBackend

SEED = 2014
DENSITY = 12.0
CUTOFF = 2.0
#: Largest n whose dense matrices are actually materialized (2 * n^2 * 8
#: bytes); beyond it the dense figure is the same formula, unmeasured.
DENSE_MEASURE_MAX = 2048
#: Transmitter probability of the benchmark rounds — the scale of the
#: protocols' dissemination probabilities at these densities.
TX_PROB = 0.02
ROUNDS = 10
BATCH = 4

MEMORY_FLOOR_N = 50_000
MEMORY_FLOOR_RATIO = 10.0


def _coords(n: int, seed: int = SEED) -> np.ndarray:
    side = math.sqrt(n / DENSITY)
    return np.random.default_rng(seed).uniform(0.0, side, size=(n, 2))


def _dense_bytes(n: int) -> int:
    return 2 * n * n * 8


def _tx_batch(n: int, seed: int = SEED) -> np.ndarray:
    return np.random.default_rng(seed).random((BATCH, n)) < TX_PROB


def _throughput(gain_op, n: int, noise: float, beta: float) -> float:
    tx = _tx_batch(n)
    import time

    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        resolve_reception_batch(gain_op, tx, noise, beta)
    return ROUNDS / (time.perf_counter() - t0)


def _needs_memory(bytes_needed: int):
    return pytest.mark.skipif(
        available_memory_bytes() < bytes_needed,
        reason=f"needs ~{bytes_needed / 1e9:.0f} GB available memory",
    )


@pytest.mark.parametrize("n", [2000, 10_000, 20_000, 50_000])
def test_sparse_backend_scale(benchmark, n, capsys):
    """Sparse build time, resident bytes and rounds/sec at each n."""
    # The build transient (the sorted pair keys beside the index
    # array, then the CSR beside one row block of distances) peaks near
    # 3.5 kB/station at this density (traced 172 MB at n=50k; 7.3
    # kB/station while the build kept distances and held its keys
    # twice); with the traced second build below, the test holds about
    # 7 kB/station at once.
    if available_memory_bytes() < 25_000 * n:
        pytest.skip("not enough memory for the sparse build transient")
    coords = _coords(n)

    def build():
        net = Network(coords, backend="sparse", cutoff=CUTOFF)
        net.sparse_backend  # force construction
        return net

    net = benchmark.pedantic(build, rounds=1, iterations=1)
    backend = net.sparse_backend
    rps = _throughput(
        backend, n, net.params.noise, net.params.beta
    )
    sparse_bytes = backend.nbytes()
    nnz = int(backend.indices.size)
    ratio = _dense_bytes(n) / sparse_bytes
    tracemalloc.start()
    try:
        fresh = SparseGainBackend(coords, net.params, net.channel, CUTOFF)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Per entry as built, before the rounds above add far-field tables.
    per_entry = fresh.nbytes() / nnz
    benchmark.extra_info.update(
        n=n,
        sparse_bytes=sparse_bytes,
        bytes_per_entry=round(per_entry, 2),
        build_peak_bytes=build_peak,
        dense_bytes=_dense_bytes(n),
        memory_ratio=round(ratio, 1),
        rounds_per_sec=round(rps, 1),
        nnz=nnz,
        nproc=os.cpu_count(),
        kernel_kind=net.kernel_kind,
    )
    with capsys.disabled():
        print(
            f"\nsparse n={n}: {sparse_bytes / 1e6:.0f} MB "
            f"({per_entry:.2f} B/entry as built, build peak "
            f"{build_peak / 1e6:.0f} MB; "
            f"dense {_dense_bytes(n) / 1e9:.1f} GB, {ratio:.0f}x), "
            f"{rps:.1f} rounds/s (B={BATCH})"
        )
    if n >= MEMORY_FLOOR_N:
        assert ratio >= MEMORY_FLOOR_RATIO, (
            f"sparse backend only {ratio:.1f}x smaller than dense at "
            f"n={n}; acceptance floor is {MEMORY_FLOOR_RATIO}x"
        )


def test_dense_backend_reference(benchmark, capsys):
    """Dense figures at the largest size the matrices are affordable."""
    n = DENSE_MEASURE_MAX
    coords = _coords(n)

    def build():
        net = Network(coords, backend="dense")
        net.gains  # force both (n, n) matrices
        return net

    net = benchmark.pedantic(build, rounds=1, iterations=1)
    measured = net.distances.nbytes + net.gains.nbytes
    assert measured == _dense_bytes(n)  # the analytic formula is exact
    rps = _throughput(net.gains, n, net.params.noise, net.params.beta)
    benchmark.extra_info.update(
        n=n, dense_bytes=measured, rounds_per_sec=round(rps, 1),
        nproc=os.cpu_count(), kernel_kind=net.kernel_kind,
    )
    with capsys.disabled():
        print(
            f"\ndense n={n}: {measured / 1e6:.0f} MB, "
            f"{rps:.1f} rounds/s (B={BATCH})"
        )


@_needs_memory(6 * 10**9)
def test_wakeup_round_at_100k(benchmark, capsys):
    """Acceptance criterion: an n=100k wake-up round completes sparse."""
    from repro.fastsim.engine import spawn_rngs
    from repro.fastsim.wakeup import fast_adhoc_wakeup_batch
    from repro.sim.wakeup import WakeupSchedule

    n = 100_000
    coords = _coords(n)
    net = Network(coords, backend="sparse", cutoff=CUTOFF)
    schedule = WakeupSchedule.all_at(n, 0)
    constants = ProtocolConstants.practical()

    def wake():
        return fast_adhoc_wakeup_batch(
            net, schedule, constants, spawn_rngs(1, SEED),
            round_budget=4,
        )

    outcomes = benchmark.pedantic(wake, rounds=1, iterations=1)
    assert outcomes[0].success
    assert outcomes[0].completion_round == 0
    backend = net.sparse_backend
    benchmark.extra_info.update(
        n=n,
        sparse_bytes=backend.nbytes(),
        memory_ratio=round(_dense_bytes(n) / backend.nbytes(), 1),
        nproc=os.cpu_count(),
        kernel_kind=net.kernel_kind,
    )
    with capsys.disabled():
        print(
            f"\n100k wake-up round done; backend "
            f"{backend.nbytes() / 1e6:.0f} MB vs dense "
            f"{_dense_bytes(n) / 1e9:.0f} GB"
        )
