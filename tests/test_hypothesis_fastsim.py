"""Property-based tests for the vectorized protocol layer.

Invariants that must hold for arbitrary (small) deployments and random
participant sets: legal color assignments, conservation of the informed
set, agreement between the outcome record and the per-station data, and
a round medium that resolves a block of rounds exactly as it resolves
those rounds one by one.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.coloring import FINAL_COLOR_LEVEL, NOT_PARTICIPATING
from repro.core.constants import ProtocolConstants
from repro.core.outcome import NEVER_INFORMED
from repro.deploy import BrownianDrift
from repro.fastsim import (
    fast_coloring_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
)
from repro.fastsim.engine import Medium
from repro.mac import CSMA, SlottedAloha, TdmaFromColoring
from repro.network.network import Network

CONSTANTS = ProtocolConstants.practical()


@st.composite
def small_network(draw):
    """A random connected-ish network of 2-10 distinct stations."""
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    # Chain backbone with jitter guarantees distinctness and connectivity.
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    ys = rng.uniform(-0.1, 0.1, size=n)
    return Network(np.column_stack([xs, ys])), seed


class TestFastColoringProperties:
    @given(data=small_network(), mask_seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_colors_legal_for_any_participant_set(self, data, mask_seed):
        net, seed = data
        rng = np.random.default_rng(seed)
        mask_rng = np.random.default_rng(mask_seed)
        participants = mask_rng.random(net.size) < 0.7
        if not participants.any():
            participants[0] = True
        result = fast_coloring_batch(
            net, CONSTANTS, [rng], participants=participants
        ).replication(0)
        n = net.size
        legal = {
            CONSTANTS.color_of_level(lv, n)
            for lv in range(CONSTANTS.num_levels(n))
        } | {CONSTANTS.survivor_color}
        for i in range(n):
            if participants[i]:
                assert any(
                    abs(result.colors[i] - v) < 1e-12 for v in legal
                )
                assert result.quit_levels[i] != NOT_PARTICIPATING
            else:
                assert np.isnan(result.colors[i])
                assert result.quit_levels[i] == NOT_PARTICIPATING

    @given(data=small_network())
    @settings(max_examples=25, deadline=None)
    def test_quit_levels_within_ladder(self, data):
        net, seed = data
        result = fast_coloring_batch(
            net, CONSTANTS, [np.random.default_rng(seed)]
        ).replication(0)
        for level in result.quit_levels:
            assert (
                level == FINAL_COLOR_LEVEL
                or 0 <= level < result.schedule.levels
            )


class TestBroadcastProperties:
    @given(data=small_network(), source_frac=st.floats(0.0, 0.999))
    @settings(max_examples=25, deadline=None)
    def test_informed_set_conservation(self, data, source_frac):
        net, seed = data
        source = int(source_frac * net.size)
        out = fast_spont_broadcast_batch(
            net, source, CONSTANTS, [np.random.default_rng(seed)]
        )[0]
        informed = out.informed_round
        # Source informed at round 0; nobody informed before round 0;
        # completion consistent with the per-station data.
        assert informed[source] == 0
        assert np.all((informed >= 0) | (informed == NEVER_INFORMED))
        if out.success:
            assert out.completion_round == informed.max()
            assert out.num_informed == net.size
        else:
            assert np.any(informed == NEVER_INFORMED)

    @given(data=small_network())
    @settings(max_examples=20, deadline=None)
    def test_uniform_flood_progress_monotone(self, data):
        net, seed = data
        out = fast_uniform_broadcast_batch(
            net, 0, [np.random.default_rng(seed)], q=0.5
        )[0]
        curve = out.progress_curve()
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] >= 1  # the source

    @given(data=small_network(), budget=st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_budget_respected(self, data, budget):
        net, seed = data
        out = fast_uniform_broadcast_batch(
            net, 0, [np.random.default_rng(seed)], q=0.5,
            round_budget=budget,
        )[0]
        assert out.total_rounds <= budget


MACS = {
    "none": lambda: None,
    "aloha": lambda: SlottedAloha(0.7, seed=3),
    "csma": lambda: CSMA(seed=5),
    "tdma": lambda: TdmaFromColoring(seed=2),
}


class TestMediumBlocks:
    @staticmethod
    def _medium(net, mac, moving):
        mobility = BrownianDrift(0.05, seed=4) if moving else None
        return Medium(net, mobility=mobility, mac=MACS[mac]())

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(6, 28),
        R=st.integers(1, 6),
        B=st.integers(1, 4),
        prob=st.floats(0.05, 0.6),
        backend=st.sampled_from(["dense", "sparse"]),
        mac=st.sampled_from(sorted(MACS)),
        moving=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_equals_its_rounds(
        self, seed, n, R, B, prob, backend, mac, moving
    ):
        # A fresh medium resolving R rounds as one (R, B, n) block
        # answers exactly what R one-round calls on another fresh
        # medium answer; a trajectory still steps once per round.
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 3.0, size=(n, 2))
        net = (
            Network(coords, backend="sparse", cutoff=1.0)
            if backend == "sparse" else Network(coords)
        )
        intents = rng.random((R, B, n)) < prob
        first = int(rng.integers(0, 64))
        block = self._medium(net, mac, moving)
        transmitted, heard_from = block.resolve(first, intents)
        single = self._medium(net, mac, moving)
        rounds = [
            single.resolve(first + r, intents[r]) for r in range(R)
        ]
        assert transmitted.shape == heard_from.shape == (R, B, n)
        assert np.array_equal(
            transmitted, np.stack([tx for tx, _ in rounds])
        )
        assert np.array_equal(
            heard_from, np.stack([heard for _, heard in rounds])
        )
        stepped = self._medium(net, mac, moving)
        for _ in range(R):
            stepped.step()
        assert np.array_equal(block.network.coords, stepped.network.coords)
        assert np.array_equal(block.network.coords, single.network.coords)
