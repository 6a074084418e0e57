"""Property-based tests (hypothesis) for core invariants.

These cover the places where an algebraic invariant must hold for *all*
inputs, not just the fixtures: the SINR reception rule, metric validation,
the coloring schedule arithmetic, ball queries and the fitting layer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fitting import fit_single, growth_exponent
from repro.core.constants import ColoringSchedule, ProtocolConstants, log2ceil
from repro.geometry.metric import pairwise_distances
from repro.network.network import Network
from repro.sinr.channel import UniformPower
from repro.sinr.params import SINRParameters
from repro.sinr.reception import NO_SENDER, resolve_reception

PARAMS = SINRParameters.default()


coords_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=2,
    max_size=12,
    unique=True,
)


def _to_distinct_coords(pairs):
    coords = np.array(pairs, dtype=float)
    dist = pairwise_distances(coords)
    n = coords.shape[0]
    mask = ~np.eye(n, dtype=bool)
    if dist[mask].min() < 1e-6:
        return None
    return coords


class TestReceptionInvariants:
    @given(coords=coords_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reception_rule_invariants(self, coords, data):
        coords = _to_distinct_coords(coords)
        if coords is None:
            return
        n = coords.shape[0]
        gains = UniformPower().gain(pairwise_distances(coords), coords, PARAMS)
        tx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=n, unique=True,
            )
        )
        tx_arr = np.array(sorted(tx), dtype=int)
        heard = resolve_reception(gains, tx_arr, PARAMS.noise, PARAMS.beta)
        tx_set = set(tx)
        for u in range(n):
            sender = heard[u]
            if u in tx_set:
                # Transmitters never receive.
                assert sender == NO_SENDER
            if sender != NO_SENDER:
                # Senders must transmit and must clear the SINR threshold.
                assert sender in tx_set
                signal = gains[sender, u]
                interference = gains[tx_arr, u].sum() - signal
                sinr = signal / (PARAMS.noise + interference)
                assert sinr >= PARAMS.beta - 1e-9

    @given(coords=coords_strategy)
    @settings(max_examples=30, deadline=None)
    def test_single_transmitter_heard_within_comm_radius(self, coords):
        coords = _to_distinct_coords(coords)
        if coords is None:
            return
        dist = pairwise_distances(coords)
        gains = UniformPower().gain(dist, coords, PARAMS)
        heard = resolve_reception(
            gains, np.array([0]), PARAMS.noise, PARAMS.beta
        )
        for u in range(1, coords.shape[0]):
            if dist[0, u] <= PARAMS.broadcast_range:
                assert heard[u] == 0
            else:
                assert heard[u] == NO_SENDER


class TestMetricInvariants:
    @given(coords=coords_strategy)
    @settings(max_examples=40, deadline=None)
    def test_pairwise_is_metric(self, coords):
        coords = np.array(coords, dtype=float)
        d = pairwise_distances(coords)
        n = coords.shape[0]
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
        # Triangle inequality.
        for j in range(n):
            assert np.all(d <= d[:, j][:, None] + d[j, :][None, :] + 1e-7)

    @given(
        coords=coords_strategy,
        radius=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_ball_membership_definition(self, coords, radius):
        coords = _to_distinct_coords(coords)
        if coords is None:
            return
        d = pairwise_distances(coords)
        members = set(Network(coords).ball(0, radius).tolist())
        for v in range(coords.shape[0]):
            assert (v in members) == (d[0, v] <= radius)


class TestScheduleInvariants:
    @given(n=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80, deadline=None)
    def test_schedule_consistency(self, n):
        constants = ProtocolConstants.practical()
        s = ColoringSchedule(constants, n)
        assert s.total_rounds == s.levels * s.level_len
        assert s.levels >= 1
        # Probabilities stay legal at every level.
        for level in range(s.levels):
            p = s.level_probability(level)
            assert 0 < p <= constants.pmax
            assert p * constants.ceps <= 1.0 + 1e-12

    @given(n=st.integers(min_value=2, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_rounds_polylogarithmic(self, n):
        constants = ProtocolConstants.practical()
        rounds = constants.coloring_total_rounds(n)
        logn = log2ceil(n)
        # Explicit O(log^2 n) constant: levels <= logn, block = 24 logn.
        upper = (
            (constants.density_rounds + constants.playoff_rds + 2)
            * constants.repeats
            * (logn + 1) ** 2
        )
        assert rounds <= upper

    @given(
        n=st.integers(min_value=1, max_value=2000),
        offset_frac=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_position_roundtrip(self, n, offset_frac):
        constants = ProtocolConstants.practical()
        s = ColoringSchedule(constants, n)
        offset = int(offset_frac * s.total_rounds)
        level, block, part, r = s.position(offset)
        # Reconstruct the offset from the decomposition.
        base = level * s.level_len + block * s.block_len
        if part == "playoff":
            base += s.density_len
        assert base + r == offset


class TestConstantsInvariants:
    @given(
        n=st.integers(min_value=1, max_value=100000),
        color_level=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_colors_bounded(self, n, color_level):
        c = ProtocolConstants.practical()
        color = c.color_of_level(color_level, n)
        assert 0 < color <= c.pmax

    @given(n=st.integers(min_value=2, max_value=100000))
    @settings(max_examples=60, deadline=None)
    def test_dissemination_prob_legal(self, n):
        c = ProtocolConstants.practical()
        for color in (c.pstart(n), c.pmax, c.survivor_color):
            p = c.dissemination_prob(color, n)
            assert 0 <= p <= 1


class TestFittingInvariants:
    @given(
        scale=st.floats(min_value=0.1, max_value=100.0),
        model=st.sampled_from(["n", "log n", "log^2 n", "sqrt n"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_data_recovers_scale(self, scale, model):
        from repro.analysis.fitting import COMPLEXITY_MODELS

        x = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        y = scale * COMPLEXITY_MODELS[model](x)
        fit = fit_single(x, y, model)
        assert fit.scale == pytest.approx(scale, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    @given(exponent=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_growth_exponent_recovers_power(self, exponent):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = x ** exponent
        assert growth_exponent(x, y) == pytest.approx(exponent, abs=1e-9)


class TestLog2CeilInvariants:
    @given(n=st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, n):
        value = log2ceil(n)
        assert value >= 1
        if n > 1:
            assert 2 ** value >= n
            assert 2 ** (value - 1) < n or value == 1

    @given(n=st.integers(min_value=2, max_value=10 ** 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, n):
        assert log2ceil(n) <= log2ceil(n + 1)
