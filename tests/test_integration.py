"""Integration tests: whole-system flows across module boundaries.

Each test exercises a realistic end-to-end scenario on a non-trivial
topology, asserting paper-level behaviour rather than unit contracts.
"""

import numpy as np
import pytest

from repro.core import (
    ProtocolConstants,
    lemma1_max_color_mass,
    lemma2_min_best_mass,
    run_coloring,
    run_nospont_broadcast,
    run_spont_broadcast,
)
from repro.deploy import (
    clustered_chain,
    dumbbell,
    exponential_chain,
    grid,
    uniform_square,
)
from repro.fastsim import (
    fast_nospont_broadcast_batch,
    fast_spont_broadcast_batch,
)
from repro.geometry.growth import growth_dimension_estimate
from repro.sim.trace import TraceRecorder


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


class TestEndToEndBroadcast:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: uniform_square(n=48, side=2.5, rng=rng),
            lambda rng: grid(3, 8, spacing=0.5),
            lambda rng: exponential_chain(16),
            lambda rng: dumbbell(12, 4, rng),
            lambda rng: clustered_chain(5, 6, 0.05, hop=0.55, rng=rng),
        ],
        ids=["uniform", "grid", "expchain", "dumbbell", "clusters"],
    )
    def test_spont_broadcast_completes_everywhere(self, maker, constants):
        rng = np.random.default_rng(77)
        net = maker(rng)
        out = run_spont_broadcast(net, 0, constants, rng)
        assert out.success, f"{net.name} failed at {out.num_informed}/{net.size}"

    def test_nospont_advances_about_one_hop_per_phase(self, constants):
        net = grid(2, 12, spacing=0.5)
        rng = np.random.default_rng(3)
        out = run_nospont_broadcast(net, 0, constants, rng)
        assert out.success
        depth = net.eccentricity(0)
        phases = out.extras["phases_used"]
        # At least one hop per phase (Lemma 8), usually more.
        assert phases <= depth + 2

    def test_source_position_does_not_matter_much(self, constants):
        net = grid(3, 8, spacing=0.5)
        rng = np.random.default_rng(5)
        corner = run_spont_broadcast(net, 0, constants, rng)
        center = run_spont_broadcast(net, net.size // 2, constants, rng)
        assert corner.success and center.success
        # The center has smaller eccentricity: never slower by > 4x.
        assert center.completion_round < 4 * corner.completion_round + 100


class TestColoringThenBroadcast:
    def test_coloring_properties_support_dissemination(self, constants):
        rng = np.random.default_rng(9)
        net = uniform_square(n=64, side=3.0, rng=rng)
        coloring = run_coloring(net, constants, rng)
        l1 = lemma1_max_color_mass(net, coloring)
        l2 = lemma2_min_best_mass(net, coloring, radius=0.4)
        assert l1 < 2.0, "upper density property violated"
        assert l2 > 0.005, "lower density property violated"
        out = run_spont_broadcast(net, 0, constants, rng)
        assert out.success

    def test_phase_trace_shows_bounded_congestion(self, constants):
        rng = np.random.default_rng(13)
        net = uniform_square(n=48, side=2.0, rng=rng)
        trace = TraceRecorder()
        out = run_spont_broadcast(net, 0, constants, rng, trace=trace)
        assert out.success
        # Lemma 1's point: no round floods the channel with transmitters.
        assert trace.transmissions_per_round().max() <= net.size * 0.9


class TestGrowthDimension:
    def test_deployments_are_bounded_growth(self):
        rng = np.random.default_rng(21)
        net = uniform_square(n=300, side=6.0, rng=rng)
        est = growth_dimension_estimate(net.distances, base_radius=0.5)
        assert est <= 3.0  # consistent with gamma=2 < alpha=3

    def test_chain_is_one_dimensional(self):
        from repro.deploy import uniform_chain

        net = uniform_chain(200, gap=0.3)
        est = growth_dimension_estimate(net.distances, base_radius=0.5)
        assert est <= 2.0


class TestReferenceVsFastAgreement:
    """Both implementations validate the same theorems."""

    def test_both_satisfy_linear_in_depth(self, constants):
        rows = []
        for cols in (6, 12):
            net = grid(2, cols, spacing=0.5)
            rng = np.random.default_rng(cols)
            fast = fast_spont_broadcast_batch(net, 0, constants, [rng])[0]
            assert fast.success
            rows.append((net.eccentricity(0), fast.completion_round))
        (d1, r1), (d2, r2) = rows
        # Doubling the depth should not blow up rounds superlinearly
        # (allowing generous noise at this scale).
        assert r2 <= (d2 / d1) * r1 * 3 + 200

    def test_fast_nospont_phases_track_reference(self, constants):
        net = grid(2, 8, spacing=0.5)
        ref = run_nospont_broadcast(
            net, 0, constants, np.random.default_rng(1)
        )
        fast = fast_nospont_broadcast_batch(
            net, 0, constants, [np.random.default_rng(1)]
        )[0]
        assert ref.success and fast.success
        assert abs(
            ref.extras["phases_used"] - fast.extras["phases_used"]
        ) <= 3


class TestWholePipeline:
    def test_experiment_harness_runs_on_fresh_network(self):
        # Exercise deploy -> fastsim -> analysis -> report in one flow.
        from repro.analysis.fitting import fit_models
        from repro.analysis.stats import aggregate_trials

        rng = np.random.default_rng(2)
        rounds = []
        sizes = [24, 48, 96]
        for n in sizes:
            net = uniform_square(n=n, side=2.5, rng=rng)
            trials = [
                fast_spont_broadcast_batch(
                    net, 0, ProtocolConstants.practical(),
                    [np.random.default_rng(s)],
                )[0].completion_round
                for s in range(3)
            ]
            rounds.append(aggregate_trials(trials).mean)
        fits = fit_models(sizes, rounds, ["log^2 n", "n^2"])
        assert fits[0].model == "log^2 n"
