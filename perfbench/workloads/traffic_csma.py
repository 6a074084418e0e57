"""``traffic_csma``: multihop Poisson traffic under carrier sensing.

bench_traffic's n = 20k sparse deployment (12 stations per unit area,
cutoff 2.0) carrying 32 three-hop Poisson flows at 0.25 packets per slot
each, arbitrated by ``CSMA(persist=0.6)`` with 32-packet queues.  At
that load the queues stay unsaturated, so the work per slot does not
drift with run length.  Each repetition replays the same fixed-length
run; Python per-slot bookkeeping in ``repro.traffic`` dominates, and
this is the only workload that exercises the MAC's carrier sensing.
"""

from __future__ import annotations

import math
import statistics
import time

import networkx as nx
import numpy as np

from common import Paced, Result, freeze_setup, check_pinned, peak_rss_mb, span
from repro.mac import CSMA
from repro.network.network import Network
from repro.traffic import Flow, Poisson, run_traffic

#: Modules whose import is part of set-up.
IMPORTS = ["networkx", "repro.mac", "repro.network.network", "repro.traffic"]

N = 20_000
DENSITY = 12.0
CUTOFF = 2.0
N_FLOWS = 32
HOPS = 3
RATE = 0.25
PERSIST = 0.6
QUEUE_CAP = 32
SLOTS = 200
MIN_RUNS = 5


def setup(seed: int):
    """Deployment, backend, graph and flows of one seed."""
    rng = np.random.default_rng(seed)
    side = math.sqrt(N / DENSITY)
    coords = rng.uniform(0, side, size=(N, 2))
    net = Network(coords, name="bench-traffic", backend="sparse",
                  cutoff=CUTOFF)
    net.sparse_backend
    graph = net.graph
    flows = []
    for src in rng.choice(N, size=8 * N_FLOWS, replace=False).tolist():
        if len(flows) == N_FLOWS:
            break
        depths = nx.single_source_shortest_path_length(graph, src,
                                                       cutoff=HOPS)
        far = sorted(v for v, d in depths.items() if d == HOPS)
        if far:
            flows.append(Flow(src=src, dst=far[0], arrivals=Poisson(RATE)))
    if len(flows) != N_FLOWS:
        raise RuntimeError(f"seed {seed}: only {len(flows)} flows found")
    return net, flows


def play(net, flows, seed: int):
    """One timed-region traffic run."""
    return run_traffic(
        net, flows, SLOTS, np.random.default_rng([seed, 1]),
        mac=CSMA(persist=PERSIST, seed=seed), queue_cap=QUEUE_CAP,
    )


def output_of(result) -> list:
    """The pinned output: per-flow delivered, dropped and queued counts."""
    counts = [[fs.delivered, fs.dropped, fs.queued] for fs in result.flows]
    return [counts, bool(result.conservation_ok())]


def prepare(seed: int) -> int:
    """Inputs are generated from the seed inside set-up."""
    return seed


def measure(seed, seconds, tracer=None, setup_reps=3, import_s=0.0):
    """Set up ``setup_reps`` times, then replay runs for ``seconds``."""
    setup_times = []
    with span(tracer, "bench.setup"):
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            net, flows = setup(seed)
            setup_times.append(time.perf_counter() - t0)

    freeze_setup()
    outputs, results = [], []
    pace = Paced()
    with span(tracer, "bench.timed"):
        start = time.perf_counter()
        while (len(results) < MIN_RUNS
               or time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            result = play(net, flows, seed)
            pace.add(SLOTS, time.perf_counter() - t0)
            outputs.append(output_of(result))
            results.append(result)

    problems: list = []
    bad = set(check_pinned("traffic_csma", seed, outputs, problems))
    for i, result in enumerate(results):
        if not result.conservation_ok():
            problems.append(f"traffic run {i}: packet accounting leaked")
            bad.add(i)
    last = results[-1]
    scaled = statistics.median(pace.scaled)
    return Result(
        metrics={
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": scaled,
        },
        report={
            "slots_per_s": (statistics.median(pace.raw), "1/s",
                            f"median of {len(results)} runs of {SLOTS} "
                            "slots"),
            "scaled_slots_per_s": (scaled, "1/s",
                                   "median at nominal machine speed"),
            "speed_factor": (statistics.median(pace.factors), "ratio",
                             "machine slowness, 1 = nominal"),
            "delivered": (last.delivered(), "count", "per run"),
            "collision_rate": (last.collision_rate(), "ratio", "per run"),
        },
        attempted=len(outputs),
        failed=len(bad),
        problems=problems,
    )
