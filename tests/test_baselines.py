"""Tests for the baseline algorithms."""

import numpy as np
import pytest

from repro.baselines import (
    DecayNode,
    LocalBroadcastNode,
    UniformFloodNode,
    run_decay_broadcast,
    run_local_broadcast_global,
    run_uniform_broadcast,
)
from repro.baselines.local_broadcast import phase_length
from repro.errors import ProtocolError


class TestUniformFloodNode:
    def test_constant_probability(self):
        node = UniformFloodNode(0, q=0.25, source_payload="m")
        assert node.probability_for_round(0) == 0.25
        assert node.probability_for_round(100) == 0.25

    def test_rejects_bad_q(self):
        with pytest.raises(ProtocolError):
            UniformFloodNode(0, q=0.0)
        with pytest.raises(ProtocolError):
            UniformFloodNode(0, q=1.5)

    def test_uninformed_listens(self):
        node = UniformFloodNode(1, q=0.5)
        assert node.transmission(0) == (0.0, None)

    def test_informs_on_reception(self):
        from repro.sim.messages import Message, Reception

        node = UniformFloodNode(1, q=0.5)
        node.end_round(
            Reception(
                round_no=4, transmitted=False,
                message=Message(sender=0, payload="m"),
            )
        )
        assert node.informed
        assert node.informed_round == 4
        assert node.transmission(5) == (0.5, "m")


class TestDecayNode:
    def test_ladder_cycles(self):
        node = DecayNode(0, ladder_len=3, source_payload="m")
        probs = [node.probability_for_round(r) for r in range(6)]
        assert probs == [1.0, 0.5, 0.25, 1.0, 0.5, 0.25]

    def test_rejects_bad_ladder(self):
        with pytest.raises(ProtocolError):
            DecayNode(0, ladder_len=0)


class TestLocalBroadcastNode:
    def test_probability_half_over_delta(self):
        node = LocalBroadcastNode(0, max_degree=8, source_payload="m")
        assert node.probability_for_round(0) == pytest.approx(1 / 16)

    def test_rejects_bad_degree(self):
        with pytest.raises(ProtocolError):
            LocalBroadcastNode(0, max_degree=0)

    def test_phase_length_shape(self):
        assert phase_length(256, 10) == int(2.0 * (10 + 8) * 8)
        assert phase_length(256, 100) > phase_length(256, 10)


class TestRunBaselines:
    def test_uniform_completes(self, small_chain, rng):
        out = run_uniform_broadcast(small_chain, 0, q=0.5, rng=rng)
        assert out.success
        assert out.algorithm == "UniformFlood"
        assert out.extras["q"] == 0.5

    def test_uniform_default_q_from_degree(self, small_chain, rng):
        out = run_uniform_broadcast(small_chain, 0, rng=rng)
        assert out.extras["q"] == pytest.approx(
            1.0 / small_chain.max_degree
        )

    def test_decay_completes(self, small_chain, rng):
        out = run_decay_broadcast(small_chain, 0, rng=rng)
        assert out.success
        assert out.algorithm == "DecaySweep"

    def test_decay_ladder_default(self, small_chain, rng):
        out = run_decay_broadcast(small_chain, 0, rng=rng)
        assert out.extras["ladder_len"] == 5  # log2ceil(12)=4, +1

    def test_local_broadcast_completes(self, small_chain, rng):
        out = run_local_broadcast_global(small_chain, 0, rng=rng)
        assert out.success
        assert out.extras["max_degree"] == small_chain.max_degree

    def test_local_broadcast_on_square(self, small_square, rng):
        out = run_local_broadcast_global(small_square, 0, rng=rng)
        assert out.success

    def test_bad_source_rejected(self, small_chain, rng):
        for source in (99, True, 1.0, -1):
            for runner in (
                run_uniform_broadcast,
                run_decay_broadcast,
                run_local_broadcast_global,
            ):
                with pytest.raises(ProtocolError):
                    runner(small_chain, source, rng=rng)

    def test_tiny_budget_fails_gracefully(self, small_chain, rng):
        out = run_uniform_broadcast(
            small_chain, 0, q=0.5, rng=rng, round_budget=1
        )
        assert not out.success

    def test_informed_rounds_consistent(self, small_chain, rng):
        out = run_decay_broadcast(small_chain, 0, rng=rng)
        assert out.informed_round[0] == 0
        assert out.completion_round == out.informed_round.max()
