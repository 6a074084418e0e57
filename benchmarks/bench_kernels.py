"""Compiled vs numpy kernels: round throughput at n=100k and 1M.

The compiled kernels' acceptance criteria (DESIGN.md §2.3) are asserted
directly:

* at n = 100,000 the compiled CSR near-field scan sustains at least
  **10x** the sparse numpy resolver's round throughput — asserted only
  where numba is importable (without it, the compiled leg means the
  un-jitted pure-python loops, so the benchmark instead verifies one
  round of bitwise equivalence and records the environment).  Each leg
  patches :data:`repro.kernels.COMPILED`, the platform's choice;
* an **n = 1,000,000 wake-up round** completes through the sparse path
  the platform picks (compiled where numba is installed) within the
  scale-smoke budget.

Peak RSS rides along in ``extra_info`` for every figure.  CI uploads
the pytest-benchmark JSON as ``BENCH_kernels.json`` alongside
``BENCH_sinr.json``.
"""

import math
import time

import numpy as np
import pytest

from repro.sysmem import available_memory_bytes, peak_rss_bytes
from repro import kernels
from repro.core.constants import ProtocolConstants
from repro.network.network import Network
from repro.sinr.reception import NO_SENDER, resolve_reception_batch

SEED = 2014
DENSITY = 12.0
CUTOFF = 2.0
TX_PROB = 0.02
ROUNDS = 10
BATCH = 4

THROUGHPUT_N = 100_000
THROUGHPUT_FLOOR = 10.0

N_1M = 1_000_000
#: The 1M figure reuses the scale-smoke budget (tests/test_scale_smoke.py).
BUDGET_1M_SECONDS = 900.0


def _coords(n: int, seed: int = SEED) -> np.ndarray:
    side = math.sqrt(n / DENSITY)
    return np.random.default_rng(seed).uniform(0.0, side, size=(n, 2))


def _tx_batch(n: int, seed: int = SEED) -> np.ndarray:
    return np.random.default_rng(seed).random((BATCH, n)) < TX_PROB


def _resolve(backend, tx, noise, beta, compiled):
    """One batched round with :data:`repro.kernels.COMPILED` patched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "COMPILED", compiled)
        return backend.resolve_reception_batch(tx, noise, beta)


def _rounds_per_sec(backend, tx, noise, beta, compiled, rounds=ROUNDS):
    t0 = time.perf_counter()
    for _ in range(rounds):
        _resolve(backend, tx, noise, beta, compiled)
    return rounds / (time.perf_counter() - t0)


def _needs_memory(bytes_needed: int):
    return pytest.mark.skipif(
        available_memory_bytes() < bytes_needed,
        reason=f"needs ~{bytes_needed / 1e9:.0f} GB available memory",
    )


@pytest.mark.compiled
@_needs_memory(6 * 10**9)
def test_kernel_throughput_100k(benchmark, capsys):
    """Compiled vs numpy rounds/sec on the n=100k sparse resolver."""
    n = THROUGHPUT_N
    net = Network(_coords(n), backend="sparse", cutoff=CUTOFF)
    backend = net.sparse_backend
    noise, beta = net.params.noise, net.params.beta
    tx = _tx_batch(n)

    def numpy_rounds():
        return _rounds_per_sec(backend, tx, noise, beta, False)

    rps_numpy = benchmark.pedantic(numpy_rounds, rounds=1, iterations=1)

    if kernels.HAVE_NUMBA:
        # One warm-up round so jit compilation stays out of the figure.
        _resolve(backend, tx, noise, beta, True)
        rps_compiled = _rounds_per_sec(backend, tx, noise, beta, True)
        ratio = rps_compiled / rps_numpy
    else:
        # Pure-python loops cannot race numpy; verify the contract that
        # makes the race fair instead: one bitwise-identical round.
        heard_np = _resolve(backend, tx[:1], noise, beta, False)
        heard_c = _resolve(backend, tx[:1], noise, beta, True)
        assert np.array_equal(heard_np, heard_c)
        rps_compiled = _rounds_per_sec(
            backend, tx[:1], noise, beta, True, rounds=1
        )
        ratio = None

    benchmark.extra_info.update(
        n=n,
        have_numba=kernels.HAVE_NUMBA,
        rounds_per_sec_numpy=round(rps_numpy, 2),
        rounds_per_sec_compiled=round(rps_compiled, 2),
        throughput_ratio=None if ratio is None else round(ratio, 1),
        nnz=int(backend.indices.size),
        peak_rss_bytes=peak_rss_bytes(),
    )
    with capsys.disabled():
        if ratio is None:
            print(
                f"\nkernels n={n}: numpy {rps_numpy:.1f} rounds/s; no "
                f"numba — compiled leg verified bitwise, floor skipped"
            )
        else:
            print(
                f"\nkernels n={n}: numpy {rps_numpy:.1f} vs compiled "
                f"{rps_compiled:.1f} rounds/s ({ratio:.1f}x, B={BATCH})"
            )
    if ratio is not None:
        assert ratio >= THROUGHPUT_FLOOR, (
            f"compiled kernel only {ratio:.1f}x numpy at n={n}; "
            f"acceptance floor is {THROUGHPUT_FLOOR}x"
        )


@pytest.mark.compiled
@_needs_memory(12 * 10**9)
def test_wakeup_round_at_1m(benchmark, capsys):
    """Acceptance criterion: an n=1M wake-up round completes (compiled
    where numba is installed)."""
    from repro.fastsim.engine import spawn_rngs
    from repro.fastsim.wakeup import fast_adhoc_wakeup_batch
    from repro.sim.wakeup import WakeupSchedule

    start = time.perf_counter()
    # A tighter cutoff than the 100k figure keeps the near field at
    # ~65 entries/row — the same working set the scale smoke test uses.
    net = Network(_coords(N_1M), backend="sparse", cutoff=1.0)
    schedule = WakeupSchedule.all_at(N_1M, 0)
    constants = ProtocolConstants.practical()

    def wake():
        return fast_adhoc_wakeup_batch(
            net, schedule, constants, spawn_rngs(1, SEED),
            round_budget=2,
        )

    outcomes = benchmark.pedantic(wake, rounds=1, iterations=1)
    assert outcomes[0].success
    assert outcomes[0].completion_round == 0

    # One contended resolver round: 2% of a million transmitting.
    tx = np.zeros((1, N_1M), dtype=bool)
    tx[0, np.random.default_rng(SEED).choice(N_1M, N_1M // 50, False)] = True
    heard = resolve_reception_batch(
        net.gain_operator, tx, net.params.noise, net.params.beta
    )
    assert int((heard[0] != NO_SENDER).sum()) > 0

    elapsed = time.perf_counter() - start
    backend = net.sparse_backend
    benchmark.extra_info.update(
        n=N_1M,
        kernel_kind=net.kernel_kind,
        have_numba=kernels.HAVE_NUMBA,
        sparse_bytes=backend.nbytes(),
        nnz=int(backend.indices.size),
        elapsed_seconds=round(elapsed, 1),
        peak_rss_bytes=peak_rss_bytes(),
    )
    with capsys.disabled():
        print(
            f"\n1M wake-up round done in {elapsed:.0f}s "
            f"({net.kernel_kind} kernel, backend "
            f"{backend.nbytes() / 1e6:.0f} MB, "
            f"peak RSS {peak_rss_bytes() / 1e9:.1f} GB)"
        )
    assert elapsed < BUDGET_1M_SECONDS
