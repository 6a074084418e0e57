"""Tests for the parallel grid orchestrator and its result cache."""

import dataclasses

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import grid_chain, uniform_square
from repro.errors import ProtocolError
from repro.fastsim.cache import (
    ResultCache,
    digest,
    fingerprint_bytes,
    point_key,
)
from repro.fastsim.grid import (
    Derived,
    GridOptions,
    GridPoint,
    GridSpec,
    get_default_grid_options,
    run_grid,
    set_default_grid_options,
)

CONSTANTS = ProtocolConstants.practical()


def _uniform_point(n=12, trials=2, **overrides):
    kwargs = dict(
        kind="spont_broadcast",
        deployment=lambda rng, n=n: uniform_square(n=n, side=1.5, rng=rng),
        n_replications=trials,
        label=f"n={n}",
        constants=CONSTANTS,
        kwargs={"source": 0},
    )
    kwargs.update(overrides)
    return GridPoint(**kwargs)


def _spec(points, seed=2014):
    return GridSpec(points=points, seed=seed, name="test-grid")


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.sweep.rounds, rb.sweep.rounds,
                              equal_nan=True)
        assert np.array_equal(ra.sweep.success, rb.sweep.success)
        assert ra.extras == rb.extras


class TestRunGridBasics:
    def test_results_in_point_order(self):
        spec = _spec([_uniform_point(n) for n in (8, 12, 16)])
        results = run_grid(spec, jobs=1)
        assert [r.point.label for r in results] == ["n=8", "n=12", "n=16"]
        assert [r.network.size for r in results] == [8, 12, 16]
        assert all(not r.cached for r in results)

    def test_empty_spec_rejected(self):
        with pytest.raises(ProtocolError):
            run_grid(_spec([]))

    def test_bad_deployment_rejected(self):
        point = _uniform_point(deployment=lambda rng: "not a network")
        with pytest.raises(ProtocolError):
            run_grid(_spec([point]))

    def test_spawned_seeds_differ_between_points(self):
        spec = _spec([_uniform_point(12), _uniform_point(12)])
        a, b = run_grid(spec, jobs=1)
        # Same deployment family, same kind — but independent sweeps.
        assert a.sweep.seed is not b.sweep.seed
        assert not np.array_equal(a.sweep.rounds, b.sweep.rounds)

    def test_share_deployment_single_instance(self):
        shared = dict(share_deployment="net")
        spec = _spec([
            _uniform_point(12, **shared),
            _uniform_point(12, kind="nospont_broadcast", label="nos",
                           **shared),
        ])
        a, b = run_grid(spec, jobs=1)
        assert a.network is b.network

    def test_post_hook_runs_and_lands_in_extras(self):
        point = _uniform_point(
            post=lambda net, sweep: {"n": net.size,
                                     "ok": float(sweep.success_rate())}
        )
        res = run_grid(_spec([point]), jobs=1)[0]
        assert res.extras["n"] == 12
        assert res.extras["ok"] == res.sweep.success_rate()

    def test_derived_kwargs_resolved_from_network(self):
        point = _uniform_point(
            kwargs={"source": Derived(lambda net, rng: net.size - 1)},
        )
        res = run_grid(_spec([point]), jobs=1)[0]
        # Broadcast from the last station completes: the source is
        # informed at its own round 0.
        assert res.sweep.outcomes[0].informed_round[11] == 0


class TestParallelMatchesSerial:
    def test_bitwise_identical_with_shared_and_derived(self):
        shared = dict(share_deployment="net")
        points = [
            _uniform_point(14, trials=3, **shared),
            _uniform_point(14, trials=3, kind="nospont_broadcast",
                           label="nos", **shared),
            GridPoint(
                kind="spont_broadcast",
                deployment=lambda rng: grid_chain(5, width=2, spacing=0.5),
                n_replications=3,
                label="chain",
                constants=CONSTANTS,
                kwargs={"source": Derived(lambda net, rng: 0)},
            ),
            _uniform_point(10, trials=2, label="small"),
        ]
        serial = run_grid(_spec(points), jobs=1)
        parallel = run_grid(_spec(points), jobs=3)
        _assert_same_results(serial, parallel)
        for s, p in zip(serial, parallel):
            for so, po in zip(s.sweep.outcomes, p.sweep.outcomes):
                assert np.array_equal(so.informed_round, po.informed_round)

    def test_more_jobs_than_points(self):
        spec = _spec([_uniform_point(10)])
        _assert_same_results(
            run_grid(spec, jobs=1), run_grid(spec, jobs=8)
        )


def _sparse_points(trials=4):
    """Spread-out sparse-mode points with a live far field."""
    from repro.network.network import Network

    # seed picked for a connected draw with a live far field at this
    # cutoff (spont_broadcast's default budget walks the graph)
    coords = np.random.default_rng(31).uniform(0, 4.5, size=(200, 2))

    def deployment(rng, c=coords):
        return Network(c, name="sparse-grid", backend="sparse", cutoff=1.5)

    return [
        GridPoint(
            kind="spont_broadcast",
            deployment=deployment,
            n_replications=trials,
            label=f"src={src}",
            constants=CONSTANTS,
            kwargs={"source": src},
            share_deployment="sparse-net",
        )
        for src in (0, 40, 80)
    ]


class TestSparseGridMode:
    """Fork workers run sparse points on the parent's backend (§2.2/§6.3)."""

    def test_jobs2_bitwise_identical_to_jobs1(self):
        serial = run_grid(_spec(_sparse_points()), jobs=1)
        parallel = run_grid(_spec(_sparse_points()), jobs=2)
        _assert_same_results(serial, parallel)
        for s, p in zip(serial, parallel):
            for so, po in zip(s.sweep.outcomes, p.sweep.outcomes):
                assert np.array_equal(so.informed_round, po.informed_round)
        assert serial[0].network.backend_kind == "sparse"
        assert not serial[0].network.sparse_backend.far_empty

    def test_cache_replay_in_sparse_mode(self, tmp_path):
        first = run_grid(
            _spec(_sparse_points(trials=2)), jobs=2, cache_dir=tmp_path
        )
        replay = run_grid(
            _spec(_sparse_points(trials=2)), jobs=1, cache_dir=tmp_path
        )
        assert all(r.cached for r in replay)
        _assert_same_results(first, replay)

    def test_sparse_and_dense_cache_keys_never_collide(self, tmp_path):
        from repro.network.network import Network

        coords = np.random.default_rng(32).uniform(0, 1.5, size=(20, 2))

        def make(backend):
            return GridPoint(
                kind="spont_broadcast",
                deployment=lambda rng, b=backend: Network(
                    coords, backend=b, cutoff=2.0
                ),
                n_replications=2,
                label=backend,
                constants=CONSTANTS,
                kwargs={"source": 0},
            )

        run_grid(
            _spec([make("dense")]), jobs=1, cache_dir=tmp_path
        )
        sparse = run_grid(
            _spec([make("sparse")]), jobs=1, cache_dir=tmp_path
        )
        # same coords, same seed spawning — but the sparse point must
        # compute, not replay the dense entry
        assert not sparse[0].cached


def _identity_probe(network, sweep):
    return {"network": id(network), "gain": id(network.gain_operator)}


class TestForkHandOff:
    """Fork workers run every point on the parent's own network object
    and gain structure, as the in-process loop does, never on a copy
    rebuilt in the worker (§6.3)."""

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_jobs2_points_run_on_parent_objects(self, mode):
        if mode == "dense":
            shared = dict(share_deployment="net", post=_identity_probe)
            points = [
                _uniform_point(14, **shared),
                _uniform_point(14, kind="nospont_broadcast", label="nos",
                               **shared),
                _uniform_point(10, label="small", post=_identity_probe),
            ]
        else:
            points = [
                dataclasses.replace(point, post=_identity_probe)
                for point in _sparse_points(trials=2)
            ]
        results = run_grid(_spec(points), jobs=2)
        assert {r.network.backend_kind for r in results} == {mode}
        for r in results:
            assert r.extras == {
                "network": id(r.network),
                "gain": id(r.network.gain_operator),
            }


class TestResultCache:
    def test_second_run_replays_from_cache(self, tmp_path):
        spec = _spec([_uniform_point(n) for n in (10, 14)])
        first = run_grid(spec, jobs=1, cache_dir=tmp_path)
        second = run_grid(spec, jobs=1, cache_dir=tmp_path)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        _assert_same_results(first, second)
        for s, p in zip(first, second):
            for so, po in zip(s.sweep.outcomes, p.sweep.outcomes):
                assert np.array_equal(so.informed_round, po.informed_round)

    def test_cache_false_bypasses_store(self, tmp_path):
        spec = _spec([_uniform_point()])
        run_grid(spec, jobs=1, cache_dir=tmp_path)
        again = run_grid(spec, jobs=1, cache_dir=tmp_path, cache=False)
        assert not again[0].cached

    def test_constants_change_is_a_miss(self, tmp_path):
        run_grid(_spec([_uniform_point()]), jobs=1, cache_dir=tmp_path)
        tweaked = ProtocolConstants.practical()
        tweaked = type(tweaked)(
            **{**tweaked.__dict__, "density_rounds": 13.0}
        )
        miss = run_grid(
            _spec([_uniform_point(constants=tweaked)]),
            jobs=1, cache_dir=tmp_path,
        )
        assert not miss[0].cached

    def test_kwargs_change_is_a_miss(self, tmp_path):
        run_grid(_spec([_uniform_point()]), jobs=1, cache_dir=tmp_path)
        miss = run_grid(
            _spec([_uniform_point(kwargs={"source": 1})]),
            jobs=1, cache_dir=tmp_path,
        )
        assert not miss[0].cached

    def test_seed_change_is_a_miss(self, tmp_path):
        spec = _spec([_uniform_point()])
        run_grid(spec, jobs=1, cache_dir=tmp_path)
        miss = run_grid(
            _spec([_uniform_point()], seed=999), jobs=1,
            cache_dir=tmp_path,
        )
        assert not miss[0].cached

    def test_channel_change_is_a_miss(self, tmp_path):
        """Identical coords/params under different channel models must
        never replay each other's results (the tentpole regression)."""
        from repro.sinr.channel import LogNormalShadowing

        coords = np.random.default_rng(8).uniform(0, 1.5, size=(12, 2))
        from repro.network.network import Network

        ideal = Network(coords)
        shadowed = ideal.with_channel(LogNormalShadowing(3.0, seed=4))
        assert ideal.fingerprint() != shadowed.fingerprint()
        first = run_grid(
            _spec([_uniform_point(deployment=lambda rng: ideal)]),
            jobs=1, cache_dir=tmp_path,
        )
        miss = run_grid(
            _spec([_uniform_point(deployment=lambda rng: shadowed)]),
            jobs=1, cache_dir=tmp_path,
        )
        assert not miss[0].cached
        assert not np.array_equal(
            first[0].sweep.rounds, miss[0].sweep.rounds, equal_nan=True
        ) or not np.array_equal(
            first[0].sweep.outcomes[0].informed_round,
            miss[0].sweep.outcomes[0].informed_round,
        )
        # Each network replays only its own entry afterwards.
        again = run_grid(
            _spec([_uniform_point(deployment=lambda rng: shadowed)]),
            jobs=1, cache_dir=tmp_path,
        )
        assert again[0].cached

    def test_obstacle_polygon_change_is_a_miss(self, tmp_path):
        from repro.network.network import Network
        from repro.sinr.channel import ObstacleMask, rectangle

        rng = np.random.default_rng(9)
        xs = np.arange(12) * 0.3 + rng.uniform(-0.05, 0.05, size=12)
        coords = np.column_stack([xs, rng.uniform(0.0, 0.3, size=12)])
        wall_a = Network(
            coords,
            channel=ObstacleMask([rectangle(0.7, 0.0, 0.8, 1.0)]),
        )
        wall_b = Network(
            coords,
            channel=ObstacleMask([rectangle(0.7, 0.5, 0.8, 1.5)]),
        )
        assert wall_a.fingerprint() != wall_b.fingerprint()
        run_grid(
            _spec([_uniform_point(deployment=lambda rng: wall_a)]),
            jobs=1, cache_dir=tmp_path,
        )
        miss = run_grid(
            _spec([_uniform_point(deployment=lambda rng: wall_b)]),
            jobs=1, cache_dir=tmp_path,
        )
        assert not miss[0].cached

    def test_corrupt_entry_recomputed(self, tmp_path):
        spec = _spec([_uniform_point()])
        run_grid(spec, jobs=1, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        res = run_grid(spec, jobs=1, cache_dir=tmp_path)[0]
        assert not res.cached
        # ... and the overwritten entry serves the next run.
        assert run_grid(spec, jobs=1, cache_dir=tmp_path)[0].cached

    def test_failed_point_keeps_earlier_points_cached(self, tmp_path):
        """Caching is incremental: a later point blowing up must not
        discard completed work."""
        good = _uniform_point(10)
        bad = _uniform_point(12, post=lambda net, sweep: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_grid(_spec([good, bad]), jobs=1, cache_dir=tmp_path)
        # Point 0's spawned seed depends only on its index, so the
        # single-point re-run addresses the same key.
        assert run_grid(_spec([good]), jobs=1,
                        cache_dir=tmp_path)[0].cached

    def test_quick_points_reused_inside_larger_grid(self, tmp_path):
        """The incremental-upgrade property: a superset grid replays the
        subset's points."""
        quick = _spec([_uniform_point(10)])
        run_grid(quick, jobs=1, cache_dir=tmp_path)
        full = _spec([_uniform_point(10), _uniform_point(14)])
        results = run_grid(full, jobs=1, cache_dir=tmp_path)
        assert results[0].cached
        assert not results[1].cached


class TestDefaultOptions:
    def test_cli_installed_defaults_are_used(self, tmp_path):
        before = get_default_grid_options()
        try:
            set_default_grid_options(
                GridOptions(jobs=1, cache_dir=str(tmp_path))
            )
            spec = _spec([_uniform_point()])
            run_grid(spec)
            assert run_grid(spec)[0].cached
        finally:
            set_default_grid_options(before)

    def test_library_default_is_serial_uncached(self):
        options = GridOptions()
        assert options.jobs == 1
        assert options.cache_dir is None


class TestFingerprinting:
    def test_dict_order_insensitive(self):
        assert fingerprint_bytes({"a": 1, "b": 2}) == fingerprint_bytes(
            {"b": 2, "a": 1}
        )

    def test_ndarray_content_sensitive(self):
        a = np.arange(4.0)
        b = np.arange(4.0)
        assert fingerprint_bytes(a) == fingerprint_bytes(b)
        b[0] = 1e-12
        assert fingerprint_bytes(a) != fingerprint_bytes(b)

    def test_seed_sequence_identity(self):
        a = np.random.SeedSequence(5)
        b = np.random.SeedSequence(5)
        assert fingerprint_bytes(a) == fingerprint_bytes(b)
        (child,) = a.spawn(1)
        assert fingerprint_bytes(a) != fingerprint_bytes(child)

    def test_point_key_separates_kinds(self):
        common = dict(
            network_fingerprint="f" * 64,
            constants=CONSTANTS,
            seed=7,
            n_replications=3,
            kwargs={"source": 0},
        )
        assert point_key(kind="spont_broadcast", **common) != point_key(
            kind="nospont_broadcast", **common
        )

    def test_digest_stable(self):
        assert digest({"x": 1.5}) == digest({"x": 1.5})


class TestResultCacheStore:
    def test_len_counts_entries(self, tmp_path):
        store = ResultCache(tmp_path)
        assert len(store) == 0
        store.put("k" * 64, ("payload", {}))
        assert len(store) == 1
        assert store.get("k" * 64) == ("payload", {})
        assert store.hits == 1

    def test_missing_entry_is_none(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store.get("absent") is None
        assert store.misses == 1
