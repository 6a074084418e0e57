"""Tests for the traffic-injection workload engine (DESIGN.md §11.6).

The load-bearing properties:

* **Flow conservation** — every injected packet is delivered, queued,
  or dropped; the accounting closes under every MAC and load level.
* **Jain bounds** — the fairness index lives in ``[1/k, 1]`` and hits
  its extremes on the degenerate allocations.
* **Latency behaves** — multihop delivery takes at least one slot per
  hop, and raising the offered load never makes the (contended) mean
  latency smaller.
* **Seeded reproducibility** — a workload replays bit-for-bit across
  ``jobs=1`` / ``jobs=N`` grid execution, cache replay, and the
  resident-service path (arrivals drawn up front in flow order, queues
  advanced in station order, MAC draws round-keyed).
* **Cache-key separation** — flows, arrival processes, MAC and rate
  table all contribute identity to the grid point key.
"""

import asyncio
import contextlib
import threading

import numpy as np
import pytest

from repro.deploy import BrownianDrift
from repro.errors import ProtocolError
from repro.fastsim import run_sweep
from repro.fastsim.cache import point_key
from repro.fastsim.grid import GridPoint, GridSpec, run_grid
from repro.mac import CSMA, RateTable, SlottedAloha, TdmaFromColoring
from repro.network.network import Network
from repro.traffic import (
    CBR,
    Flow,
    FlowStats,
    OnOff,
    Poisson,
    TrafficResult,
    jain_index,
    run_traffic,
)


def _chain(n=4, gap=0.6):
    coords = np.stack(
        [np.arange(n) * gap, np.zeros(n)], axis=1
    )
    return Network(coords)


def _converge_net():
    """Two senders converging on one receiver, all sense-adjacent."""
    return Network(np.array([[0.0, 0.0], [0.55, 0.0], [0.9, 0.0]]))


class TestArrivals:
    def test_identity_separates_processes(self):
        processes = [
            Poisson(1.0), Poisson(2.0), CBR(1.0), CBR(0.5),
            OnOff(1.0), OnOff(1.0, p_on=0.5), OnOff(1.0, start_on=False),
        ]
        assert len({p.identity() for p in processes}) == len(processes)
        assert len({p.fingerprint() for p in processes}) == len(processes)

    def test_draws_reproducible(self):
        for process in (Poisson(1.3), CBR(0.7), OnOff(2.0)):
            a = process.draw(np.random.default_rng(5), 50)
            b = process.draw(np.random.default_rng(5), 50)
            assert np.array_equal(a, b)
            assert a.shape == (50,)
            assert np.all(a >= 0)

    def test_cbr_is_deterministic_and_exact(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state["state"]["state"]
        counts = CBR(0.5).draw(rng, 10)
        after = rng.bit_generator.state["state"]["state"]
        assert before == after  # CBR consumes no randomness
        assert counts.sum() == 5
        assert np.all(counts <= 1)

    def test_onoff_stream_consumption_fixed(self):
        # The on/off chain masks counts instead of drawing lazily, so
        # the stream position after a draw depends only on `rounds` —
        # never on the chain's realized state.
        rng_a = np.random.default_rng(9)
        OnOff(1.5, p_on=0.05, p_off=0.9).draw(rng_a, 40)
        rng_b = np.random.default_rng(9)
        OnOff(1.5, p_on=0.9, p_off=0.05).draw(rng_b, 40)
        assert rng_a.random() == rng_b.random()

    def test_onoff_off_rounds_are_silent(self):
        counts = OnOff(5.0, p_on=0.2, p_off=0.2, start_on=False).draw(
            np.random.default_rng(1), 60
        )
        assert counts.sum() > 0
        assert (counts == 0).any()

    def test_validation(self):
        with pytest.raises(ProtocolError):
            Poisson(-1.0)
        with pytest.raises(ProtocolError):
            CBR(-0.5)
        with pytest.raises(ProtocolError):
            OnOff(1.0, p_on=1.5)
        with pytest.raises(ProtocolError):
            OnOff(0.0)
        for process in (Poisson, CBR, OnOff):
            for rate in (float("nan"), float("inf")):
                with pytest.raises(ProtocolError):
                    process(rate)

    def test_equality_repr_and_hash(self):
        assert Poisson(1.0) == Poisson(1.0) != Poisson(2.0)
        assert Poisson(1.0) != CBR(1.0)
        assert "Poisson" in repr(Poisson(1.0))
        assert len({CBR(0.5), CBR(0.5), CBR(1.0)}) == 2


class TestJain:
    def test_bounds_and_extremes(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        xs = [0.2, 0.9, 0.4, 0.1]
        assert 1.0 / len(xs) <= jain_index(xs) <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            jain_index([0.5, -0.1])


class TestRunTrafficValidation:
    def test_bad_arguments(self):
        net = _chain()
        flow = Flow(0, 3, CBR(0.5))
        rng = np.random.default_rng(0)
        with pytest.raises(ProtocolError):
            run_traffic(net, [flow], 0, rng)
        with pytest.raises(ProtocolError):
            run_traffic(net, [], 10, rng)
        with pytest.raises(ProtocolError):
            run_traffic(net, [flow], 10, rng, queue_cap=0)
        with pytest.raises(ProtocolError):
            run_traffic(net, [Flow(0, 9, CBR(0.5))], 10, rng)
        with pytest.raises(ProtocolError):
            run_traffic(net, [Flow(2, 2, CBR(0.5))], 10, rng)
        for cap in (float("nan"), float("inf"), 2.5, True):
            with pytest.raises(ProtocolError):
                run_traffic(net, [flow], 10, rng, queue_cap=cap)
        for rounds in (True, 2.5):
            with pytest.raises(ProtocolError):
                run_traffic(net, [flow], rounds, rng)
        result = run_traffic(
            net, [flow], np.int64(10), rng, queue_cap=np.int32(4)
        )
        assert result.rounds == 10

    @pytest.mark.parametrize(
        "src,dst", [(1.5, 3), (True, 3), (0, 3.0), (-1, 3)],
        ids=["fractional", "bool", "float", "negative"],
    )
    def test_endpoints_must_be_station_indices(self, src, dst):
        # Unchecked, 1.5 would reach networkx as an unknown node, True
        # would index the MAC intents as a mask mid-run, and 3.0 would
        # name station 3 by equality.
        with pytest.raises(ProtocolError, match="station index"):
            run_traffic(
                _chain(), [Flow(0, 3, CBR(0.5)), Flow(src, dst, CBR(0.5))],
                10, np.random.default_rng(0),
            )

    def test_no_path_raises(self):
        net = Network(np.array([[0.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(ProtocolError):
            run_traffic(
                net, [Flow(0, 1, CBR(0.5))], 10,
                np.random.default_rng(0),
            )


class TestConservation:
    @pytest.mark.parametrize("mac", [
        None,
        SlottedAloha(0.6, seed=2),
        CSMA(persist=0.7, seed=2),
        TdmaFromColoring(seed=2),
    ], ids=["bare", "aloha", "csma", "tdma"])
    def test_every_packet_accounted(self, mac):
        net = _converge_net()
        flows = [Flow(0, 1, Poisson(0.8)), Flow(2, 1, Poisson(0.8))]
        result = run_traffic(
            net, flows, 200, np.random.default_rng(4), mac=mac,
            queue_cap=8,
        )
        assert result.conservation_ok()
        assert result.transmissions >= result.collisions >= 0
        for fs in result.flows:
            assert fs.injected == (
                fs.delivered + fs.queued + fs.dropped
            )

    def test_queue_cap_drops_are_counted(self):
        # Two saturated always-on senders, equidistant from the shared
        # receiver, collide every slot (neither captures): queues fill
        # to the cap and every further arrival is dropped.
        net = Network(np.array([[0.0, 0.0], [0.65, 0.0], [1.30, 0.0]]))
        flows = [Flow(0, 1, CBR(1.0)), Flow(2, 1, CBR(1.0))]
        result = run_traffic(
            net, flows, 50, np.random.default_rng(0),
            mac=SlottedAloha(), queue_cap=1,
        )
        assert result.delivered() == 0
        for fs in result.flows:
            assert fs.injected == 50
            assert fs.queued == 1
            assert fs.dropped == 49
        assert result.conservation_ok()

    def test_shared_relay_crossing_flows(self):
        # Two saturated flows cross the middle of a 3-chain in opposite
        # directions, under adaptive rates: a slot's budget only drains
        # consecutive head-of-line packets riding the *same* next-hop
        # link (the relay never splits one slot across two links), and
        # forwards beyond the relay's queue cap are dropped — counted,
        # never silently lost.
        net = _chain(n=3)
        flows = [Flow(0, 2, CBR(1.0)), Flow(2, 0, CBR(1.0))]
        result = run_traffic(
            net, flows, 300, np.random.default_rng(5),
            mac=SlottedAloha(0.5, seed=8),
            rate_table=RateTable(), queue_cap=2,
        )
        assert result.conservation_ok()
        assert all(fs.delivered > 0 for fs in result.flows)
        assert sum(fs.dropped for fs in result.flows) > 0


class TestFlowStatsAccessors:
    def test_empty_counters(self):
        fs = FlowStats(flow=Flow(0, 1, CBR(1.0)), path=(0, 1))
        assert np.isnan(fs.mean_latency())
        assert fs.throughput(0) == 0.0
        assert fs.conserved()
        empty = TrafficResult(
            flows=[fs], rounds=0, transmissions=0, collisions=0
        )
        assert empty.collision_rate() == 0.0

    def test_populated_counters(self):
        fs = FlowStats(
            flow=Flow(0, 1, CBR(1.0)), path=(0, 1),
            injected=3, delivered=2, queued=1, latencies=[1, 3],
        )
        assert fs.mean_latency() == 2.0
        result = TrafficResult(
            flows=[fs], rounds=4, transmissions=8, collisions=2
        )
        assert result.collision_rate() == 0.25


class TestLatency:
    def test_multihop_latency_is_hop_count_when_uncontended(self):
        net = _chain(n=4)
        flows = [Flow(0, 3, CBR(0.2))]  # one packet every 5 slots
        result = run_traffic(
            net, flows, 100, np.random.default_rng(0)
        )
        stats = result.flows[0]
        assert stats.delivered > 0
        assert len(stats.path) == 4
        assert all(lat == 3 for lat in stats.latencies)
        assert result.mean_latency() == pytest.approx(3.0)

    def test_latency_monotone_in_offered_load(self):
        net = _converge_net()

        def mean_latency(rate):
            flows = [Flow(0, 1, CBR(rate)), Flow(2, 1, CBR(rate))]
            result = run_traffic(
                net, flows, 400, np.random.default_rng(7),
                mac=CSMA(persist=0.8, seed=5), queue_cap=32,
            )
            assert result.delivered() > 0
            return result.mean_latency()

        assert mean_latency(0.1) <= mean_latency(0.5) <= mean_latency(1.0)

    def test_mean_latency_nan_when_nothing_delivered(self):
        # Equidistant saturated senders: guaranteed mutual collisions.
        net = Network(np.array([[0.0, 0.0], [0.65, 0.0], [1.30, 0.0]]))
        flows = [Flow(0, 1, CBR(1.0)), Flow(2, 1, CBR(1.0))]
        result = run_traffic(
            net, flows, 20, np.random.default_rng(0), mac=SlottedAloha()
        )
        assert np.isnan(result.mean_latency())


class TestRateTableIntegration:
    def test_high_sinr_carries_bursts(self):
        # A single overloaded single-hop flow: without rate adaptation
        # at most one packet leaves per slot; the short link's SINR
        # clears the top threshold, so the table drains faster.
        net = Network(np.array([[0.0, 0.0], [0.3, 0.0]]))
        flows = [Flow(0, 1, Poisson(2.0))]
        plain = run_traffic(
            net, flows, 100, np.random.default_rng(3), queue_cap=256
        )
        adaptive = run_traffic(
            net, flows, 100, np.random.default_rng(3),
            rate_table=RateTable(), queue_cap=256,
        )
        assert plain.flows[0].injected == adaptive.flows[0].injected
        assert adaptive.delivered() > plain.delivered()
        assert adaptive.conservation_ok() and plain.conservation_ok()


class TestSweep:
    def test_traffic_sweep_shape_and_headline(self):
        net = _converge_net()
        flows = [Flow(0, 1, Poisson(0.5)), Flow(2, 1, Poisson(0.5))]
        sweep = run_sweep(
            "traffic", net, 3, 11, flows=flows, rounds=80,
            mac=CSMA(persist=0.8, seed=1),
        )
        assert sweep.kind == "traffic"
        assert sweep.n_replications == 3
        assert len(sweep.outcomes) == 3
        for rounds, ok, outcome in zip(
            sweep.rounds, sweep.success, sweep.outcomes
        ):
            assert ok == (
                outcome.conservation_ok() and outcome.delivered() > 0
            )
            if ok:
                assert rounds == pytest.approx(outcome.mean_latency())

    def test_replications_differ_with_random_arrivals(self):
        net = _converge_net()
        flows = [Flow(0, 1, Poisson(0.5)), Flow(2, 1, Poisson(0.5))]
        sweep = run_sweep("traffic", net, 4, 3, flows=flows, rounds=120)
        injected = {
            sum(fs.injected for fs in out.flows)
            for out in sweep.outcomes
        }
        assert len(injected) > 1

    def test_mobility_rejected(self):
        # Traffic runs on a static deployment: a moving one is refused
        # by name, not by a keyword the caller never passed.
        with pytest.raises(ProtocolError, match="static deployment"):
            run_sweep(
                "traffic", _chain(n=6), 1, 0,
                flows=[Flow(0, 5, Poisson(0.2))], rounds=5,
                mobility=BrownianDrift(0.02, seed=1),
            )

    def test_cache_keys_split_traffic_identity(self):
        net = _converge_net()
        base = {
            "flows": [Flow(0, 1, Poisson(0.5))],
            "rounds": 100,
        }

        def key(extra):
            return point_key(
                kind="traffic",
                network_fingerprint=net.fingerprint(),
                constants=None,
                seed=1,
                n_replications=2,
                kwargs={**base, **extra},
            )

        keys = {
            key({}),
            key({"flows": [Flow(0, 1, Poisson(0.9))]}),
            key({"flows": [Flow(2, 1, Poisson(0.5))]}),
            key({"mac": CSMA(seed=1)}),
            key({"mac": CSMA(seed=2)}),
            key({"rate_table": RateTable()}),
            key({"rounds": 200}),
        }
        assert len(keys) == 7


def _traffic_spec(seed=2014):
    flows = [Flow(0, 1, Poisson(0.6)), Flow(2, 1, Poisson(0.6))]
    points = [
        GridPoint(
            kind="traffic",
            deployment=lambda rng: Network(
                np.array([[0.0, 0.0], [0.55, 0.0], [0.9, 0.0]])
            ),
            n_replications=2,
            label=f"traffic-{label}",
            kwargs={"flows": flows, "rounds": 60, "mac": mac},
            share_deployment="traffic-net",
        )
        for label, mac in [
            ("csma", CSMA(persist=0.8, seed=3)),
            ("tdma", TdmaFromColoring(seed=3)),
        ]
    ]
    return GridSpec(points=points, seed=seed, name="traffic-grid")


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.sweep.rounds, rb.sweep.rounds, equal_nan=True
        )
        assert np.array_equal(ra.sweep.success, rb.sweep.success)
        for oa, ob in zip(ra.sweep.outcomes, rb.sweep.outcomes):
            assert [fs.delivered for fs in oa.flows] == [
                fs.delivered for fs in ob.flows
            ]
            assert [fs.latencies for fs in oa.flows] == [
                fs.latencies for fs in ob.flows
            ]


class _ServerThread:
    """A service daemon on a background thread (test_service idiom)."""

    def __init__(self, **server_kwargs):
        self.address = None
        self._ready = threading.Event()
        self._loop = None
        self._server = None
        self._thread = threading.Thread(
            target=self._run, kwargs=server_kwargs, daemon=True
        )
        self._thread.start()
        assert self._ready.wait(20), "service thread failed to start"

    def _run(self, **server_kwargs):
        from repro.service import ServiceServer

        async def main():
            self._server = ServiceServer(**server_kwargs)
            await self._server.start_tcp("127.0.0.1", 0)
            host, port = self._server.tcp_address
            self.address = f"tcp:{host}:{port}"
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._server.serve_forever()

        asyncio.run(main())

    def stop(self):
        self._loop.call_soon_threadsafe(self._server.shutdown)
        self._thread.join(20)


@contextlib.contextmanager
def _server_thread(**server_kwargs):
    thread = _ServerThread(**server_kwargs)
    try:
        yield thread.address
    finally:
        thread.stop()


class TestGridAndService:
    def test_jobs_identity_and_cache_replay(self, tmp_path):
        serial = run_grid(_traffic_spec(), jobs=1, cache_dir=str(tmp_path))
        replayed = run_grid(
            _traffic_spec(), jobs=2, cache_dir=str(tmp_path)
        )
        assert all(r.cached for r in replayed)
        parallel = run_grid(_traffic_spec(), jobs=2)
        _assert_same_results(serial, replayed)
        _assert_same_results(serial, parallel)

    def test_service_path_matches_local(self):
        local = run_grid(_traffic_spec(), jobs=1)
        with _server_thread() as address:
            served = run_grid(_traffic_spec(), workers=[address])
        _assert_same_results(local, served)
        assert not any(r.cached for r in served)
