"""Unit tests for the mobility layer (models, advance, E15 plumbing).

The bitwise advance-equals-fresh-build property is quantified in
``tests/test_hypothesis_mobility.py``; here live the deterministic
contracts: model validation and identity separation, session semantics
(exact-zero rows, reflection), ``Network.advance`` edge cases, the
sweep/grid integration (dynamic results key on the mobility
``identity()`` and ``jobs=2`` replays ``jobs=1`` bit for bit), and the
E15 experiment end to end.
"""

import numpy as np
import pytest

from repro.deploy.mobility import (
    BrownianDrift,
    GroupDrift,
    MobilityModel,
    RandomWaypoint,
)
from repro.errors import DeploymentError, ProtocolError
from repro.fastsim.cache import fingerprint_bytes, point_key
from repro.fastsim.engine import Medium
from repro.fastsim.sweep import run_sweep
from repro.geometry.metric import MatrixMetric
from repro.network.network import Network


def _net(n=32, side=2.2, seed=3, **kwargs):
    rng = np.random.default_rng(seed)
    return Network(rng.uniform(0, side, size=(n, 2)), **kwargs)


class TestModels:
    def test_validation(self):
        with pytest.raises(DeploymentError):
            BrownianDrift(-0.1)
        with pytest.raises(DeploymentError):
            BrownianDrift(0.1, move_prob=1.5)
        with pytest.raises(DeploymentError):
            RandomWaypoint(0.0)
        with pytest.raises(DeploymentError):
            RandomWaypoint(0.1, pause=-1)
        with pytest.raises(DeploymentError):
            GroupDrift(0.1, n_groups=0)
        with pytest.raises(DeploymentError):
            BrownianDrift(0.1, box=([1.0, 1.0], [0.0, 0.0])).session(
                np.zeros((2, 2))
            )

    def test_identity_separates_models_and_knobs(self):
        models = [
            BrownianDrift(0.1, seed=0),
            BrownianDrift(0.1, seed=1),
            BrownianDrift(0.2, seed=0),
            BrownianDrift(0.1, move_prob=0.5, seed=0),
            RandomWaypoint(0.1, seed=0),
            RandomWaypoint(0.1, pause=3, seed=0),
            GroupDrift(0.1, seed=0),
            GroupDrift(0.1, n_groups=4, seed=0),
        ]
        identities = {m.identity() for m in models}
        assert len(identities) == len(models)
        fingerprints = {m.fingerprint() for m in models}
        assert len(fingerprints) == len(models)

    def test_equality_and_repr(self):
        assert BrownianDrift(0.1, seed=2) == BrownianDrift(0.1, seed=2)
        assert BrownianDrift(0.1, seed=2) != BrownianDrift(0.1, seed=3)
        assert "brownian-drift" in repr(BrownianDrift(0.1))
        assert isinstance(BrownianDrift(0.1), MobilityModel)

    def test_unmoved_rows_are_exact_zero(self):
        coords = np.random.default_rng(0).uniform(0, 3, size=(64, 2))
        session = BrownianDrift(0.05, move_prob=0.3, seed=1).session(coords)
        disp = session.displacements(coords, 0)
        moved = np.any(disp != 0.0, axis=1)
        assert 0 < moved.sum() < 64
        assert np.all(disp[~moved] == 0.0)

    def test_reflection_keeps_positions_in_default_box(self):
        coords = np.random.default_rng(1).uniform(0, 1, size=(16, 2))
        session = BrownianDrift(0.8, seed=4).session(coords)
        cur = coords
        for r in range(5):
            cur = cur + session.displacements(cur, r)
        assert np.all(cur >= coords.min(axis=0))
        assert np.all(cur <= coords.max(axis=0))

    def test_waypoint_walks_toward_targets_at_speed(self):
        coords = np.zeros((4, 2)) + np.arange(4)[:, None]
        model = RandomWaypoint(0.25, seed=7, box=([0, 0], [3, 3]))
        session = model.session(coords)
        disp = session.displacements(coords, 0)
        lengths = np.linalg.norm(disp, axis=1)
        assert np.all(lengths <= 0.25 + 1e-12)
        assert lengths.max() > 0

    def test_group_drift_moves_one_group_per_round(self):
        coords = np.random.default_rng(2).uniform(0, 4, size=(60, 2))
        model = GroupDrift(0.05, n_groups=5, seed=3)
        session = model.session(coords)
        disp = session.displacements(coords, 0)
        moved = np.any(disp != 0.0, axis=1)
        assert np.array_equal(moved, session.labels == 0)

    def test_shape_drift_rejected(self):
        session = BrownianDrift(0.1, seed=0).session(np.zeros((4, 2)) + np.arange(4)[:, None])
        with pytest.raises(DeploymentError):
            session.displacements(np.zeros((5, 2)), 0)


class TestAdvance:
    def test_zero_displacement_returns_self_untouched(self):
        net = _net()
        disp = np.zeros((net.size, 2))
        disp[2] = [0.01, 0.0]
        moved = net.advance(disp)
        assert moved.advance_mode == "rebuild"
        # A later no-op advance returns the same object and must not
        # clobber the record of how it was produced.
        out = moved.advance(np.zeros((net.size, 2)))
        assert out is moved
        assert out.advance_mode == "rebuild"

    def test_shape_mismatch_raises(self):
        net = _net()
        with pytest.raises(DeploymentError):
            net.advance(np.zeros((net.size + 1, 2)))

    def test_matrix_metric_rejected(self):
        dist = np.array([[0.0, 0.5], [0.5, 0.0]])
        net = Network(
            np.zeros((2, 1)) + [[0.0], [0.5]],
            metric=MatrixMetric(dist),
        )
        with pytest.raises(ProtocolError):
            net.advance(np.full((2, 1), 0.1))

    def test_fingerprint_tracks_positions(self):
        net = _net()
        disp = np.zeros((net.size, 2))
        disp[1] = [0.01, 0.0]
        moved = net.advance(disp)
        assert moved.fingerprint() != net.fingerprint()
        rebuilt = Network(net.coords + disp)
        assert moved.fingerprint() == rebuilt.fingerprint()

    def test_advance_without_built_caches_stays_lazy(self):
        net = _net()  # nothing computed yet
        disp = np.zeros((net.size, 2))
        disp[0] = [0.01, 0.01]
        out = net.advance(disp)
        assert out.advance_mode == "rebuild"
        assert out._dist is None and out._gain is None

    def test_colocation_detected_in_dense_patch(self):
        coords = np.stack(
            [np.arange(5, dtype=float), np.zeros(5)], axis=1
        )
        net = Network(coords)
        net.distances
        disp = np.zeros_like(coords)
        disp[1] = [-1.0, 0.0]  # lands exactly on station 0
        with pytest.raises(DeploymentError):
            net.advance(disp)


class TestMedium:
    def test_medium_owns_one_trajectory(self):
        net = _net(seed=5)
        model = BrownianDrift(0.02, move_prob=0.5, seed=9)
        medium = Medium(net, mobility=model)
        n1 = medium.step()
        n2 = medium.step()
        assert n1 is not net
        assert not np.array_equal(n1.coords, n2.coords)
        # a fresh medium over the same model replays the trajectory
        replay = Medium(net, mobility=model)
        m1 = replay.step()
        m2 = replay.step()
        assert np.array_equal(n1.coords, m1.coords)
        assert np.array_equal(n2.coords, m2.coords)

    def test_static_medium_never_moves(self):
        net = _net(seed=6)
        medium = Medium(net)
        assert medium.step() is net and medium.network is net


class TestSweepIntegration:
    def test_mobility_sweep_deterministic_and_differs_from_static(self):
        net = _net(n=40, seed=7)
        model = BrownianDrift(0.03, move_prob=0.4, seed=11)
        mobile1 = run_sweep(
            "spont_broadcast", net, 3, seed=5, source=0, mobility=model
        )
        mobile2 = run_sweep(
            "spont_broadcast", net, 3, seed=5, source=0, mobility=model
        )
        static = run_sweep("spont_broadcast", net, 3, seed=5, source=0)
        assert np.array_equal(
            mobile1.rounds, mobile2.rounds, equal_nan=True
        )
        assert not np.array_equal(
            mobile1.rounds, static.rounds, equal_nan=True
        )
        # Pinned: the round order (mobility step, MAC, Eq. (1)) and the
        # trajectory both show in these numbers.
        assert mobile1.rounds.tolist() == [109, 129, 189]
        assert static.rounds.tolist() == [118, 115, 144]

    def test_cache_keys_split_static_dynamic_and_models(self):
        net = _net(n=16, seed=9)
        def key(kwargs):
            return point_key(
                kind="spont_broadcast",
                network_fingerprint=net.fingerprint(),
                constants=None,
                seed=1,
                n_replications=2,
                kwargs=kwargs,
            )
        static = key({"source": 0})
        mobile = key({"source": 0, "mobility": BrownianDrift(0.02, seed=1)})
        reseeded = key({"source": 0, "mobility": BrownianDrift(0.02, seed=2)})
        other = key({"source": 0, "mobility": GroupDrift(0.02, seed=1)})
        assert len({static, mobile, reseeded, other}) == 4

    def test_fingerprint_bytes_uses_model_identity(self):
        a = fingerprint_bytes(BrownianDrift(0.1, seed=4))
        b = fingerprint_bytes(BrownianDrift(0.1, seed=4))
        c = fingerprint_bytes(BrownianDrift(0.1, seed=5))
        assert a == b != c


class TestE15:
    def test_registered(self):
        from repro.experiments.registry import list_experiments

        assert "E15" in list_experiments()

    def test_quick_jobs_identity_and_cache_replay(self, tmp_path):
        """The E15 acceptance: --jobs 2 == --jobs 1, cache replay works."""
        from repro.experiments.registry import get_experiment
        from repro.fastsim.grid import (
            GridOptions,
            last_grid_stats,
            set_default_grid_options,
        )

        run = get_experiment("E15")
        try:
            set_default_grid_options(
                GridOptions(jobs=1, cache_dir=str(tmp_path))
            )
            serial = run(scale="quick", seed=77)
            set_default_grid_options(
                GridOptions(jobs=2, cache_dir=str(tmp_path))
            )
            replayed = run(scale="quick", seed=77)
            stats = last_grid_stats()
            assert stats["cached"] == stats["points"] > 0
            set_default_grid_options(GridOptions(jobs=2, cache_dir=None))
            parallel = run(scale="quick", seed=77)
        finally:
            set_default_grid_options(GridOptions())
        assert serial.metrics == replayed.metrics == parallel.metrics
        assert serial.rows == parallel.rows

    def test_quick_metrics_hold(self, tmp_path):
        from repro.experiments.registry import get_experiment
        from repro.fastsim.grid import GridOptions, set_default_grid_options

        try:
            set_default_grid_options(
                GridOptions(jobs=1, cache_dir=str(tmp_path))
            )
            report = get_experiment("E15")(scale="quick")
        finally:
            set_default_grid_options(GridOptions())
        assert report.metrics["min_success_rate"] >= 0.9
        assert report.metrics["max_slowdown"] < 3.0
        assert report.metrics["escape_monotone"] is True
