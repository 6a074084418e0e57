"""Property-based tests for the grid orchestrator.

The parallel-equals-serial contract (DESIGN.md §6.3): for *any* grid —
random deployments, replication counts, master seed — ``run_grid`` with a
worker pool produces bitwise the same per-point ``rounds``/``success``
arrays as the in-process serial path.  Seeds are fixed at preparation
time and the workers run on the parent's own networks and gain matrices,
inherited through ``fork``, so any divergence (seed re-derivation in
workers, workers seeing other gains than the parent, point/result
misalignment) breaks exact equality immediately.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim.cache import point_key
from repro.fastsim.grid import GridPoint, GridSpec, run_grid
from repro.network.network import Network
from repro.sinr.channel import (
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    rectangle,
)

CONSTANTS = ProtocolConstants.practical()

KINDS = ("spont_broadcast", "nospont_broadcast", "uniform_broadcast")


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes=st.lists(st.integers(6, 12), min_size=2, max_size=4),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2 ** 20),
    kind_index=st.integers(0, len(KINDS) - 1),
)
def test_parallel_grid_bitwise_equals_serial(sizes, trials, seed,
                                             kind_index):
    points = [
        GridPoint(
            kind=KINDS[kind_index],
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=1.25, rng=rng
            ),
            n_replications=trials,
            label=f"p{i}-n{n}",
            constants=(
                CONSTANTS if KINDS[kind_index] != "uniform_broadcast"
                else None
            ),
            kwargs={"source": 0},
        )
        for i, n in enumerate(sizes)
    ]
    spec = GridSpec(points=points, seed=seed, name="hyp-grid")
    serial = run_grid(spec, jobs=1, cache=False)
    parallel = run_grid(spec, jobs=4, cache=False)
    for s, p in zip(serial, parallel):
        assert np.array_equal(s.sweep.rounds, p.sweep.rounds,
                              equal_nan=True)
        assert np.array_equal(s.sweep.success, p.sweep.success)
        for so, po in zip(s.sweep.outcomes, p.sweep.outcomes):
            assert np.array_equal(so.informed_round, po.informed_round)


def _channel_battery(sigma, ch_seed, breakpoint, x0):
    """Four channel models plus a second obstacle geometry, all from
    drawn parameters — the collision surface the cache must separate."""
    return [
        UniformPower(),
        LogNormalShadowing(sigma_db=sigma, seed=ch_seed),
        DualSlope(breakpoint=breakpoint),
        ObstacleMask([rectangle(x0, 0.0, x0 + 0.1, 1.0)]),
        ObstacleMask([rectangle(x0, 0.2, x0 + 0.1, 1.2)]),
    ]


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(4, 10),
    seed=st.integers(0, 2 ** 20),
    sigma=st.floats(0.5, 8.0),
    ch_seed=st.integers(0, 2 ** 10),
    breakpoint=st.floats(0.3, 2.0),
    x0=st.floats(0.2, 1.0),
)
def test_channels_never_collide_in_fingerprint_or_cache_key(
    n, seed, sigma, ch_seed, breakpoint, x0
):
    coords = np.random.default_rng(seed).uniform(0, 1.5, size=(n, 2))
    nets = [
        Network(coords, channel=ch)
        for ch in _channel_battery(sigma, ch_seed, breakpoint, x0)
    ]
    fingerprints = [net.fingerprint() for net in nets]
    assert len(set(fingerprints)) == len(nets)
    keys = {
        point_key(
            kind="spont_broadcast",
            network_fingerprint=fp,
            constants=CONSTANTS,
            seed=seed,
            n_replications=2,
            kwargs={"source": 0},
        )
        for fp in fingerprints
    }
    assert len(keys) == len(nets)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2 ** 20),
    sigma=st.floats(0.5, 6.0),
    ch_seed=st.integers(0, 2 ** 10),
)
def test_cache_misses_across_channels_and_parallel_matches_serial(
    seed, sigma, ch_seed
):
    """One deployment, two channels, one cache directory: the second
    channel must recompute, not replay — and the parallel path must carry
    the channel to its fork workers bitwise."""
    rng = np.random.default_rng(seed)
    xs = np.arange(6) * 0.45 + rng.uniform(-0.05, 0.05, size=6)
    coords = np.column_stack([xs, rng.uniform(-0.1, 0.1, size=6)])
    ideal = Network(coords)
    shadowed = ideal.with_channel(
        LogNormalShadowing(sigma_db=sigma, seed=ch_seed)
    )

    def spec(net):
        return GridSpec(
            points=[
                GridPoint(
                    kind="spont_broadcast",
                    deployment=lambda rng, m=net: m,
                    n_replications=2,
                    label="p",
                    constants=CONSTANTS,
                    kwargs={"source": 0},
                )
            ],
            seed=seed,
            name="hyp-channel",
        )

    with tempfile.TemporaryDirectory() as cache_dir:
        first = run_grid(spec(ideal), jobs=1, cache_dir=cache_dir)
        cross = run_grid(spec(shadowed), jobs=1, cache_dir=cache_dir)
        assert not first[0].cached
        assert not cross[0].cached  # different channel: miss, not replay
        replay = run_grid(spec(shadowed), jobs=1, cache_dir=cache_dir)
        assert replay[0].cached
    parallel = run_grid(spec(shadowed), jobs=2, cache=False)
    assert np.array_equal(
        cross[0].sweep.rounds, parallel[0].sweep.rounds, equal_nan=True
    )
    assert np.array_equal(cross[0].sweep.success, parallel[0].sweep.success)
