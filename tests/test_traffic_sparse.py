"""Golden traffic runs on a sparse deployment with an active far field.

``tests/test_traffic.py`` exercises the engine on small dense networks
only.  Here one n = 2000 sparse deployment (cutoff 2, so the far field
is live and every slot pays the certified far-field band) carries
twelve three-hop Poisson flows under CSMA, under p-persistent ALOHA
with a :class:`~repro.mac.RateTable`, and under TDMA.  The per-flow
counters and a digest of every latency were recorded from the engine
before it moved to backlog-driven slots; any change to arrivals, queue
order, MAC arbitration or SINR resolution shows up as a pin mismatch.
"""

import hashlib
import math

import networkx as nx
import numpy as np
import pytest

from repro.mac import CSMA, RateTable, SlottedAloha, TdmaFromColoring
from repro.network.network import Network
from repro.traffic import Flow, Poisson, run_traffic

N = 2000
DENSITY = 12.0
CUTOFF = 2.0
SEED = 2014
N_FLOWS = 12
HOPS = 3


def _network() -> Network:
    side = math.sqrt(N / DENSITY)
    coords = np.random.default_rng(SEED).uniform(0, side, size=(N, 2))
    return Network(coords, name="golden", backend="sparse", cutoff=CUTOFF)


def _flows(net: Network) -> list:
    """N_FLOWS Poisson demands, each exactly HOPS hops long."""
    rng = np.random.default_rng(SEED + 1)
    flows = []
    for src in rng.choice(N, size=8 * N_FLOWS, replace=False).tolist():
        if len(flows) == N_FLOWS:
            break
        depths = nx.single_source_shortest_path_length(
            net.graph, src, cutoff=HOPS
        )
        far = sorted(v for v, d in depths.items() if d == HOPS)
        if far:
            flows.append(Flow(src=src, dst=far[0], arrivals=Poisson(0.4)))
    assert len(flows) == N_FLOWS
    return flows


@pytest.fixture(scope="module")
def workload():
    net = _network()
    assert not net.sparse_backend.far_empty
    return net, _flows(net)


def _summary(result) -> dict:
    """Per-flow counters, totals and a digest of every latency."""
    latencies = repr([fs.latencies for fs in result.flows]).encode()
    return {
        "flows": [
            [fs.injected, fs.delivered, fs.dropped, fs.queued, fs.collisions]
            for fs in result.flows
        ],
        "transmissions": result.transmissions,
        "collisions": result.collisions,
        "latency_digest": hashlib.sha256(latencies).hexdigest()[:16],
    }


def _play(net, flows, rounds, **kwargs):
    result = run_traffic(
        net, flows, rounds, np.random.default_rng([SEED, 2]),
        queue_cap=16, **kwargs,
    )
    assert result.conservation_ok()
    return _summary(result)


#: Per flow: injected, delivered, dropped, queued, collisions.
GOLDEN = {
    "csma": {
        "flows": [
            [61, 20, 25, 16, 9], [56, 41, 0, 15, 29], [55, 37, 0, 18, 6],
            [69, 43, 2, 24, 1], [68, 41, 4, 23, 10], [53, 30, 0, 23, 28],
            [57, 34, 2, 21, 46], [70, 35, 12, 23, 23], [69, 39, 1, 29, 10],
            [54, 38, 0, 16, 9], [72, 7, 44, 21, 41], [68, 38, 0, 30, 23],
        ],
        "transmissions": 1647,
        "collisions": 235,
        "latency_digest": "ddf473256b37e5c8",
    },
    "aloha_rates": {
        "flows": [
            [61, 18, 18, 25, 172], [56, 51, 0, 5, 38], [55, 54, 0, 1, 41],
            [69, 59, 0, 10, 49], [68, 66, 0, 2, 34], [53, 50, 0, 3, 103],
            [57, 33, 6, 18, 156], [70, 64, 0, 6, 47], [69, 67, 0, 2, 49],
            [54, 53, 0, 1, 29], [72, 4, 50, 18, 119], [68, 53, 0, 15, 107],
        ],
        "transmissions": 2131,
        "collisions": 944,
        "latency_digest": "870abc0958efd7f3",
    },
    "tdma": {
        "flows": [
            [241, 6, 213, 22, 0], [248, 11, 221, 16, 0],
            [263, 11, 235, 17, 0], [232, 10, 204, 18, 0],
            [223, 10, 195, 18, 0], [263, 10, 236, 17, 0],
            [238, 10, 211, 17, 0], [248, 11, 220, 17, 0],
            [218, 10, 191, 17, 0], [248, 11, 220, 17, 0],
            [243, 0, 221, 22, 0], [234, 10, 207, 17, 0],
        ],
        "transmissions": 370,
        "collisions": 0,
        "latency_digest": "12a960a70a5dd1cd",
    },
}


class TestGoldenRuns:
    def test_csma_fresh_and_memoized_adjacency(self, workload):
        _, flows = workload
        # A fresh network builds the sense adjacency; the second run on
        # the same network reuses the memoized one.
        net = _network()
        for _ in range(2):
            summary = _play(net, flows, 150, mac=CSMA(persist=0.6, seed=5))
            assert summary == GOLDEN["csma"]

    def test_aloha_with_rate_table(self, workload):
        net, flows = workload
        summary = _play(
            net, flows, 150, mac=SlottedAloha(0.7, seed=5),
            rate_table=RateTable(),
        )
        assert summary == GOLDEN["aloha_rates"]

    def test_tdma_from_coloring(self, workload):
        net, flows = workload
        summary = _play(net, flows, 600, mac=TdmaFromColoring(seed=5))
        assert summary == GOLDEN["tdma"]


def test_csma_session_on_advanced_network_sees_moved_positions():
    """The sense adjacency memo belongs to one set of positions."""
    coords = np.random.default_rng(3).uniform(0, 6.0, size=(400, 2))
    net = Network(coords, backend="sparse", cutoff=2.0)
    model = CSMA(seed=1)
    before = model.session(net)  # memoizes the adjacency on net's backend
    inner = np.all((coords > 1.5) & (coords < 4.5), axis=1)
    disp = np.zeros_like(coords)
    disp[np.flatnonzero(inner)[:10], 0] = 0.8
    moved = net.advance(disp)
    assert moved.advance_mode == "patched-sparse"
    after = model.session(moved)
    fresh = model.session(
        Network(coords + disp, backend="sparse", cutoff=2.0)
    )
    assert np.array_equal(after.sense_indptr, fresh.sense_indptr)
    assert np.array_equal(after.sense_indices, fresh.sense_indices)
    assert not np.array_equal(after.sense_indices, before.sense_indices)
