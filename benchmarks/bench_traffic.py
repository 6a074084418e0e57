"""Traffic workloads at scale: n = 20k sparse under contention MACs.

The MAC + traffic stack (DESIGN.md §11) must stay usable at the same
scale as the sparse backend it rides on, so one seeded packet workload
— 32 three-hop Poisson flows over a 20,000-station sparse deployment —
is played under :class:`repro.mac.SlottedAloha` and
:class:`repro.mac.CSMA` with identical persistence, asserting:

* the per-packet accounting closes under both MACs (flow conservation
  is not a small-n property);
* both MACs actually deliver traffic at this scale;
* carrier sensing never loses to blind persistence on collision rate —
  on the same workload, CSMA's arbitration can only remove conflicts
  ALOHA would have suffered.

The timed region is one full CSMA run; slot throughput and both MACs'
delivery/collision numbers land in ``extra_info``, with the core count
and kernel that ``tools/bench_report.py`` lifts into the snapshot's
``machine`` block.  CI uploads the pytest-benchmark JSON as
``BENCH_traffic.json`` alongside the other ``BENCH_*.json`` artifacts,
merged into ``benchmarks/TRAJECTORY.json`` by ``tools/bench_report.py``.
"""

import math
import os
import time

import networkx as nx
import numpy as np
import pytest

from repro.mac import CSMA, SlottedAloha
from repro.network.network import Network
from repro.sysmem import available_memory_bytes
from repro.traffic import Flow, Poisson, run_traffic

SEED = 2014
DENSITY = 12.0
CUTOFF = 2.0

N = 20_000
N_FLOWS = 32
HOPS = 3
RATE = 0.5
ROUNDS = 60
PERSIST = 0.6


def _network() -> Network:
    side = math.sqrt(N / DENSITY)
    coords = np.random.default_rng(SEED).uniform(0, side, size=(N, 2))
    return Network(
        coords, name=f"traffic-{N}", backend="sparse", cutoff=CUTOFF
    )


def _flows(net: Network) -> list:
    """N_FLOWS seeded multihop demands, each exactly HOPS hops long."""
    rng = np.random.default_rng(SEED + 7)
    sources = rng.choice(net.size, size=4 * N_FLOWS, replace=False)
    flows = []
    for src in sources.tolist():
        if len(flows) == N_FLOWS:
            break
        depths = nx.single_source_shortest_path_length(
            net.graph, src, cutoff=HOPS
        )
        far = [v for v, d in depths.items() if d == HOPS]
        if far:
            flows.append(Flow(src=src, dst=far[0], arrivals=Poisson(RATE)))
    assert len(flows) == N_FLOWS, "deployment too sparse for the workload"
    return flows


@pytest.mark.skipif(
    available_memory_bytes() < 2 * 10**9,
    reason="needs ~2 GB available memory for the 20k sparse build",
)
def test_traffic_throughput_at_scale(benchmark, capsys):
    """Conservation, delivery and the sensing edge at n = 20k sparse."""
    net = _network()
    net.sparse_backend  # build once outside the timed region
    flows = _flows(net)

    def play(mac):
        return run_traffic(
            net, flows, ROUNDS, np.random.default_rng(SEED + 1),
            mac=mac, queue_cap=32,
        )

    timings = {}
    results = {}
    for label, mac in (
        ("aloha", SlottedAloha(PERSIST, seed=3)),
        ("csma", CSMA(persist=PERSIST, seed=3)),
    ):
        t0 = time.perf_counter()
        results[label] = play(mac)
        timings[label] = time.perf_counter() - t0

    for label, result in results.items():
        assert result.conservation_ok(), f"{label}: accounting leaked"
        assert result.delivered() > 0, f"{label}: nothing delivered"
    aloha, csma = results["aloha"], results["csma"]
    assert csma.collision_rate() <= aloha.collision_rate(), (
        "carrier sensing lost to blind persistence: "
        f"csma {csma.collision_rate():.3f} vs "
        f"aloha {aloha.collision_rate():.3f}"
    )

    with capsys.disabled():
        print(f"\ntraffic n={N} ({N_FLOWS} flows x {ROUNDS} slots):")
        for label, result in results.items():
            print(
                f"  {label:<6} {ROUNDS / timings[label]:6.1f} slots/s  "
                f"delivered {result.delivered():4d}  "
                f"collision rate {result.collision_rate():.3f}"
            )
    benchmark.extra_info.update(
        {
            "nproc": os.cpu_count(),
            "kernel_kind": net.kernel_kind,
            "n": N,
            "flows": N_FLOWS,
            "rounds": ROUNDS,
            "slots_per_sec_csma": round(ROUNDS / timings["csma"], 2),
            "slots_per_sec_aloha": round(ROUNDS / timings["aloha"], 2),
            "delivered_csma": csma.delivered(),
            "delivered_aloha": aloha.delivered(),
            "collision_rate_csma": round(csma.collision_rate(), 4),
            "collision_rate_aloha": round(aloha.collision_rate(), 4),
        }
    )
    benchmark.pedantic(
        lambda: play(CSMA(persist=PERSIST, seed=3)), rounds=1, iterations=1
    )


def test_e16_hidden_node(run_experiment):
    """E16 quick regenerates and its headline asymmetry story holds."""
    report = run_experiment("E16")
    assert report.metrics["csma_asymmetry"] > 5.0
    assert report.metrics["tdma_collision_free"] is True
    assert report.metrics["tdma_beats_csma_hidden"] is True
    assert report.metrics["all_conserved"] is True
