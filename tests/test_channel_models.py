"""Cross-model conformance suite for the channel models.

Every :class:`~repro.sinr.channel.ChannelModel` must honor the DESIGN.md
§2.1 contract — symmetric shape, zero diagonal, strictly positive
off-diagonal gains, a deterministic output per instance, and an
``identity()`` that separates any two models whose gains can differ.
The suite runs the same assertions over the whole battery so a new model
is conformance-tested by adding one entry to ``MODELS``.
"""

import numpy as np
import pytest

from repro.errors import GeometryError, SimulationError
from repro.geometry.metric import pairwise_distances
from repro.network.network import Network
from repro.sinr.channel import (
    ChannelModel,
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    default_channel,
    rectangle,
)
from repro.sinr.params import SINRParameters

PARAMS = SINRParameters.default()

WALL = rectangle(0.9, 0.0, 1.1, 1.4)

MODELS = [
    UniformPower(),
    LogNormalShadowing(sigma_db=4.0, seed=7),
    LogNormalShadowing(sigma_db=0.0, seed=7),
    DualSlope(breakpoint=1.0),
    DualSlope(breakpoint=0.5, alpha_far=5.0),
    ObstacleMask([WALL], attenuation_db=12.0),
    ObstacleMask([WALL], attenuation_db=12.0,
                 base=LogNormalShadowing(2.0, seed=1)),
]


@pytest.fixture(scope="module")
def deployment():
    """Coordinates straddling the WALL obstacle, with their distances."""
    coords = np.random.default_rng(3).uniform(0.0, 2.0, size=(24, 2))
    return coords, pairwise_distances(coords)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
class TestConformance:
    def test_shape_and_diagonal(self, model, deployment):
        coords, dist = deployment
        gain = model.gain(dist, coords, PARAMS)
        assert gain.shape == dist.shape
        assert np.all(np.diag(gain) == 0.0)

    def test_strictly_positive_off_diagonal(self, model, deployment):
        coords, dist = deployment
        gain = model.gain(dist, coords, PARAMS)
        off = gain[~np.eye(gain.shape[0], dtype=bool)]
        assert np.all(off > 0.0)

    def test_symmetric(self, model, deployment):
        coords, dist = deployment
        gain = model.gain(dist, coords, PARAMS)
        assert np.array_equal(gain, gain.T)

    def test_deterministic_per_instance(self, model, deployment):
        coords, dist = deployment
        assert np.array_equal(
            model.gain(dist, coords, PARAMS),
            model.gain(dist, coords, PARAMS),
        )

    def test_identity_is_primitive_and_stable(self, model, deployment):
        ident = model.identity()
        assert isinstance(ident, tuple)
        assert ident == model.identity()
        hash(ident)  # hashable all the way down

    def test_network_routes_gains_through_model(self, model, deployment):
        coords, dist = deployment
        net = Network(coords, channel=model)
        assert np.array_equal(net.gains, model.gain(dist, coords, PARAMS))


class TestIdentitySeparation:
    def test_all_models_distinct(self):
        idents = [m.identity() for m in MODELS]
        assert len(set(idents)) == len(idents)

    def test_equal_configuration_equal_identity(self):
        assert LogNormalShadowing(4.0, seed=7) == LogNormalShadowing(
            4.0, seed=7
        )
        assert ObstacleMask([WALL], 12.0).identity() == ObstacleMask(
            [WALL.copy()], 12.0
        ).identity()

    def test_polygon_geometry_separates_masks(self):
        other = rectangle(0.5, 0.0, 0.7, 1.4)
        assert ObstacleMask([WALL], 12.0).identity() != ObstacleMask(
            [other], 12.0
        ).identity()


class TestUniformPower:
    def test_is_the_default_channel(self, deployment):
        coords, dist = deployment
        assert default_channel() == UniformPower()
        assert np.array_equal(
            Network(coords).gains, UniformPower().gain(dist, coords, PARAMS)
        )


class TestLogNormalShadowing:
    def test_reproducible_from_seed(self, deployment):
        coords, dist = deployment
        a = LogNormalShadowing(4.0, seed=11).gain(dist, coords, PARAMS)
        b = LogNormalShadowing(4.0, seed=11).gain(dist, coords, PARAMS)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, deployment):
        coords, dist = deployment
        a = LogNormalShadowing(4.0, seed=11).gain(dist, coords, PARAMS)
        b = LogNormalShadowing(4.0, seed=12).gain(dist, coords, PARAMS)
        assert not np.array_equal(a, b)

    def test_zero_sigma_recovers_uniform_power(self, deployment):
        coords, dist = deployment
        assert np.array_equal(
            LogNormalShadowing(0.0, seed=5).gain(dist, coords, PARAMS),
            UniformPower().gain(dist, coords, PARAMS),
        )

    def test_rejects_negative_sigma(self):
        with pytest.raises(SimulationError):
            LogNormalShadowing(sigma_db=-1.0)


class TestDualSlope:
    def test_equals_uniform_below_breakpoint(self, deployment):
        coords, dist = deployment
        gain = DualSlope(breakpoint=1.0).gain(dist, coords, PARAMS)
        base = UniformPower().gain(dist, coords, PARAMS)
        near = (dist <= 1.0) & ~np.eye(dist.shape[0], dtype=bool)
        assert np.array_equal(gain[near], base[near])

    def test_steeper_beyond_breakpoint(self, deployment):
        coords, dist = deployment
        gain = DualSlope(breakpoint=1.0).gain(dist, coords, PARAMS)
        base = UniformPower().gain(dist, coords, PARAMS)
        far = dist > 1.0
        assert np.all(gain[far] < base[far])

    def test_continuous_at_breakpoint(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        below = np.array([[0.0, 1.0 - 1e-9], [1.0 - 1e-9, 0.0]])
        above = np.array([[0.0, 1.0 + 1e-9], [1.0 + 1e-9, 0.0]])
        model = DualSlope(breakpoint=1.0, alpha_far=6.0)
        g_below = model.gain(below, coords, PARAMS)[0, 1]
        g_above = model.gain(above, coords, PARAMS)[0, 1]
        assert g_below == pytest.approx(g_above, rel=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            DualSlope(breakpoint=0.0)
        with pytest.raises(SimulationError):
            DualSlope(alpha_far=-2.0)


class TestObstacleMask:
    def test_blocked_links_attenuated_unblocked_untouched(self, deployment):
        coords, dist = deployment
        mask_model = ObstacleMask([WALL], attenuation_db=12.0)
        gain = mask_model.gain(dist, coords, PARAMS)
        base = UniformPower().gain(dist, coords, PARAMS)
        blocked = mask_model.blocked_mask(coords)
        assert blocked.any() and not blocked.all()
        assert np.array_equal(blocked, blocked.T)
        assert np.allclose(
            gain[blocked], base[blocked] * 10 ** (-12.0 / 10.0)
        )
        assert np.array_equal(gain[~blocked], base[~blocked])

    def test_crossing_link_is_blocked(self):
        # Two stations on opposite sides of the wall, one pair beside it.
        coords = np.array(
            [[0.5, 0.7], [1.5, 0.7], [0.5, 1.8], [1.5, 1.8]]
        )
        blocked = ObstacleMask([WALL]).blocked_mask(coords)
        assert blocked[0, 1] and blocked[1, 0]
        assert not blocked[2, 3]  # passes above the wall
        assert not blocked[0, 2]  # same side

    def test_higher_dimensions_project_to_plane(self):
        coords3 = np.array(
            [[0.5, 0.7, 0.0], [1.5, 0.7, 0.9], [0.5, 1.8, 0.4]]
        )
        blocked = ObstacleMask([WALL]).blocked_mask(coords3)
        assert blocked[0, 1]
        assert not blocked[0, 2]

    def test_rejects_bad_obstacles(self):
        with pytest.raises(GeometryError):
            ObstacleMask([])
        with pytest.raises(GeometryError):
            ObstacleMask([np.zeros((2, 2))])
        with pytest.raises(SimulationError):
            ObstacleMask([WALL], attenuation_db=-1.0)
        with pytest.raises(GeometryError):
            rectangle(1.0, 0.0, 0.5, 1.0)

    def test_does_not_freeze_callers_polygon(self):
        poly = rectangle(0.0, 0.0, 1.0, 1.0)
        mask = ObstacleMask([poly])
        poly[0, 0] = 5.0  # caller's array stays writable...
        assert mask.obstacles[0][0, 0] == 0.0  # ...and the model's copy
        with pytest.raises(ValueError):
            mask.obstacles[0][0, 0] = 9.0  # internal copy is frozen

    def test_one_dimensional_coords_rejected(self):
        model = ObstacleMask([WALL])
        with pytest.raises(GeometryError):
            model.blocked_mask(np.zeros((4, 1)))

    def test_composes_with_base_channel(self, deployment):
        coords, dist = deployment
        shadow = LogNormalShadowing(2.0, seed=1)
        composed = ObstacleMask([WALL], 12.0, base=shadow)
        gain = composed.gain(dist, coords, PARAMS)
        blocked = composed.blocked_mask(coords)
        assert np.array_equal(
            gain[~blocked], shadow.gain(dist, coords, PARAMS)[~blocked]
        )


class TestChannelFingerprints:
    """The tentpole invariant: channels never collide in the cache."""

    def test_fingerprint_separates_channels(self, deployment):
        coords, _ = deployment
        fingerprints = {
            Network(coords, channel=m).fingerprint() for m in MODELS
        }
        assert len(fingerprints) == len(MODELS)

    def test_with_channel_preserves_graph_changes_fingerprint(
        self, deployment
    ):
        coords, _ = deployment
        net = Network(coords)
        shadowed = net.with_channel(LogNormalShadowing(3.0, seed=2))
        assert set(map(frozenset, net.graph.edges)) == set(
            map(frozenset, shadowed.graph.edges)
        )
        assert net.fingerprint() != shadowed.fingerprint()
        assert isinstance(shadowed.channel, ChannelModel)
