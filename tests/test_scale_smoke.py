"""Slow smoke tests: n=50k and n=1M wake-ups through the sparse path.

The sparse backend's reason to exist is deployments the dense resolver
cannot touch (a dense n=50k gain matrix alone is 20 GB).  These tests
drive the full production path at scale — deployment → sparse backend →
grid orchestrator → fork workers sharing the parent's CSR → batched
wake-up kernel at 50k, and a direct million-station wake-up round plus
resolver fold at 1M — gated behind the ``slow`` marker so the CI fast
lane stays fast (the tier-1 job runs them).
"""

import math
from time import perf_counter

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.fastsim.grid import GridPoint, GridSpec, run_grid
from repro.fastsim.wakeup import fast_adhoc_wakeup_batch
from repro.network.network import Network
from repro.sim.wakeup import WakeupSchedule
from repro.sinr.reception import NO_SENDER, resolve_reception_batch
from repro.sysmem import available_memory_bytes

N = 50_000
DENSITY = 12.0

N_1M = 1_000_000
#: Wall-clock ceiling for the 1M test: the sparse build measures ~140 s
#: on a single unremarkable core, so 900 s absorbs slow CI runners while
#: still catching an accidental O(n^2) regression (which would take
#: hours).
BUDGET_1M_SECONDS = 900.0


@pytest.mark.slow
@pytest.mark.skipif(
    available_memory_bytes() < 3 * 10**9,
    reason="needs ~3 GB available memory for the 50k sparse build",
)
def test_50k_wakeup_sweep_through_grid_layer():
    side = math.sqrt(N / DENSITY)
    coords = np.random.default_rng(2014).uniform(0, side, size=(N, 2))

    def deployment(rng):
        return Network(
            coords, name="smoke-50k", backend="sparse", cutoff=2.0
        )

    point = GridPoint(
        kind="adhoc_wakeup",
        deployment=deployment,
        n_replications=1,
        label="n=50k",
        constants=ProtocolConstants.practical(),
        kwargs={
            "schedule": WakeupSchedule.all_at(N, 0),
            # explicit budget: the default would compute the diameter,
            # which has no sparse path (and no need — every station is
            # awake after the first round's spontaneous wake-ups)
            "round_budget": 4,
        },
    )
    results = run_grid(
        GridSpec(points=[point], seed=7, name="smoke-50k"),
        jobs=1, cache=False,
    )
    sweep = results[0].sweep
    assert sweep.n_replications == 1
    assert bool(sweep.success[0])
    assert results[0].network.backend_kind == "sparse"
    backend = results[0].network.sparse_backend
    # the memory story this backend exists for: far below dense n^2
    assert backend.nbytes() < (N * N * 8) / 10


@pytest.mark.slow
@pytest.mark.compiled
@pytest.mark.skipif(
    available_memory_bytes() < 12 * 10**9,
    reason="needs ~12 GB available memory for the 1M sparse build",
)
def test_1m_wakeup_round_through_sparse_kernel():
    """One n=1M wake-up round completes under the wall-clock budget.

    The platform picks the kernels, which keeps the test honest on
    every machine: with numba installed it drives the compiled CSR
    kernels, without it the numpy fold (the two are bitwise identical,
    so the *protocol result* asserted here is the same either way).  A tighter cutoff than the
    50k test (1.0 vs 2.0) keeps the CSR near field at ~65 entries/row.
    """
    start = perf_counter()
    side = math.sqrt(N_1M / DENSITY)
    coords = np.random.default_rng(2014).uniform(0, side, size=(N_1M, 2))
    net = Network(coords, name="smoke-1m", backend="sparse", cutoff=1.0)

    # The wake-up round: every station wakes spontaneously at round 0
    # and the batched kernel resolves reception over the full million.
    schedule = WakeupSchedule.all_at(N_1M, 0)
    outcome = fast_adhoc_wakeup_batch(
        net, schedule, ProtocolConstants.practical(),
        [np.random.default_rng(7)], round_budget=2,
    )[0]
    assert outcome.success
    assert int(outcome.informed_round.max()) == 0

    # A contended round through the same backend: 2% of the million
    # transmitting exercises the CSR near-field fold at full scale
    # (spontaneous wake-ups alone keep the channel silent).
    tx = np.zeros((1, N_1M), dtype=bool)
    picks = np.random.default_rng(2014).choice(N_1M, N_1M // 50, False)
    tx[0, picks] = True
    heard = resolve_reception_batch(
        net.gain_operator, tx, net.params.noise, net.params.beta
    )
    assert int((heard[0] != NO_SENDER).sum()) > 0

    backend = net.sparse_backend
    assert backend.nbytes() < 4 * 10**9
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_1M_SECONDS, (
        f"1M wake-up took {elapsed:.0f}s, budget {BUDGET_1M_SECONDS:.0f}s"
    )
