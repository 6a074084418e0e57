"""``sparse_broadcast``: the paper's spontaneous-wake-up broadcast on the
sparse SINR backend.

One connected constant-density uniform square (E14's base: n = 2048,
12 stations per unit area, cutoff 2.0, so the far set is non-empty and
the far band runs every round) and repeated ``spont_broadcast`` sweeps
of B = 4 replications from station 0 under the hop-count round budget.
The sparse near scan dominates; the dense resolver is never used.

Runnable, but not among the gated workloads of ``BENCHMARK.json``: a
sweep takes 8-12 s, too long for the speed probe between repetitions to
follow a shared machine's speed drift, so its ``ops_per_s`` spread
between runs (0.13-0.30 of the median on a 2-vCPU VM) exceeds what the
gate needs.  The near scan and far band stay measured per layer on
``traffic_csma`` and, at small n, on ``quick_suite``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import (
    Paced, Result, check_pinned, digest, freeze_setup, peak_rss_mb, span,
)
from repro.experiments.base import connected_sparse_square, hop_round_budget
from repro.fastsim import run_sweep
from repro.sinr.params import SINRParameters

#: Modules whose import is part of set-up.
IMPORTS = ["repro.experiments.base", "repro.fastsim", "repro.sinr.params"]

N = 2048
DENSITY = 12.0
CUTOFF = 2.0
REPLICATIONS = 4
MIN_SWEEPS = 2


def setup(seed: int):
    """The deployment with its backend and communication graph built."""
    net = connected_sparse_square(
        N, DENSITY, np.random.default_rng(seed), SINRParameters.default(),
        cutoff=CUTOFF, name="bench-sparse",
    )
    net.sparse_backend
    net.graph
    return net


def sweep_once(net, seed: int):
    """One timed-region sweep."""
    return run_sweep(
        "spont_broadcast", net, REPLICATIONS, seed,
        source=0, round_budget=hop_round_budget(net),
    )


def output_of(result) -> str:
    """The pinned output of a sweep: digest of rounds and success."""
    return digest(result.rounds, result.success)


def prepare(seed: int) -> int:
    """Inputs are generated from the seed inside set-up."""
    return seed


def measure(seed, seconds, tracer=None, setup_reps=5, import_s=0.0):
    """Set up ``setup_reps`` times, then sweep for ``seconds``."""
    setup_times = []
    with span(tracer, "bench.setup"):
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            net = setup(seed)
            setup_times.append(time.perf_counter() - t0)

    freeze_setup()
    outputs, rounds, walls = [], [], []
    pace = Paced()
    with span(tracer, "bench.timed"):
        start = time.perf_counter()
        while (len(walls) < MIN_SWEEPS
               or time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            result = sweep_once(net, seed)
            wall = time.perf_counter() - t0
            pace.add(1, wall)
            rounds.append(float(result.rounds.sum()))
            walls.append(wall)
            outputs.append(output_of(result))

    problems: list = []
    failed = len(check_pinned("sparse_broadcast", seed, outputs, problems))
    sweeps = statistics.median(pace.scaled)
    return Result(
        metrics={
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": sweeps,
        },
        report={
            "rounds_per_s": (sum(rounds) / sum(walls), "1/s",
                             f"over {len(walls)} sweeps"),
            "scaled_sweeps_per_s": (sweeps, "1/s",
                                    "median at nominal machine speed"),
            "speed_factor": (statistics.median(pace.factors), "ratio",
                             "machine slowness, 1 = nominal"),
            "sweep_s": (statistics.median(walls), "s",
                        f"B={REPLICATIONS}, n={N}"),
            "mean_rounds": (statistics.mean(rounds) / REPLICATIONS,
                            "count", "per replication"),
        },
        attempted=len(outputs),
        failed=failed,
        problems=problems,
    )
