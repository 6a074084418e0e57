"""Hypothesis properties of incremental mobility updates (DESIGN.md §7).

The equivalence contract of :meth:`repro.network.network.Network.advance`:
the successor's gain structure — however it was produced (sparse delta
merge, dense row patch, threshold- or grid-drift-triggered rebuild) — is
**bitwise equal** to a from-scratch ``Network`` at the same coordinates.
Quantified over random deployments, random moved subsets (including
fractions above the rebuild threshold and movers that shift the
bounding box, which invalidates the sparse cell grid), and both
backends.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.network import MOBILITY_REBUILD_FRACTION, Network
from repro.sinr.params import SINRParameters
from repro.sinr.reception import resolve_reception_batch

PARAMS = SINRParameters.default()


def _coords(seed: int, n: int, side: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(0.0, side, size=(n, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 1e-5:
            return coords


def _displacements(
    seed: int, coords: np.ndarray, frac: float, scale: float,
    keep_box: bool,
) -> np.ndarray:
    """Random sparse displacement field over ``coords``.

    ``keep_box=True`` excludes the bounding-box extremes from the moved
    set and caps steps so the box (hence the sparse cell grid) is
    stable; ``False`` deliberately moves a box-defining station.
    """
    rng = np.random.default_rng(seed)
    n = coords.shape[0]
    disp = np.zeros_like(coords)
    extremes = set(
        int(i)
        for axis in range(coords.shape[1])
        for i in (coords[:, axis].argmin(), coords[:, axis].argmax())
    )
    candidates = [i for i in range(n) if i not in extremes]
    if keep_box:
        if not candidates:
            return disp
        k = max(1, int(frac * len(candidates)))
        moved = rng.choice(candidates, size=k, replace=False)
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        steps = scale * rng.standard_normal((k, coords.shape[1]))
        # Reflect off the box rather than clip: clipping piles movers
        # onto its faces and corners, where two of them can coincide —
        # a co-located deployment, which Network rightly refuses.
        target = coords[moved] + steps
        target = hi - np.abs(hi - (lo + np.abs(target - lo)))
        disp[moved] = target - coords[moved]
    else:
        mover = int(coords[:, 0].argmin())
        disp[mover] = [-scale - 0.01, 0.0]
    return disp


def _assert_sparse_equal(advanced: Network, fresh: Network) -> None:
    a = advanced.sparse_backend
    f = fresh.sparse_backend
    assert np.array_equal(a.indptr, f.indptr)
    assert np.array_equal(a.indices, f.indices)
    assert np.array_equal(a.data, f.data)
    assert np.array_equal(a.dists, f.dists)
    assert a.cells.shape == f.cells.shape
    assert np.array_equal(a.cells.cell_of, f.cells.cell_of)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 48),
    frac=st.floats(0.05, 0.9),
    scale=st.floats(0.001, 0.3),
)
def test_sparse_advance_bitwise_equals_fresh_build(seed, n, frac, scale):
    coords = _coords(seed, n, side=3.5)
    net = Network(coords, backend="sparse", cutoff=2.0)
    net.sparse_backend  # build before advancing
    disp = _displacements(seed ^ 0x5A5A, coords, frac, scale, keep_box=True)
    advanced = net.advance(disp)
    fresh = Network(coords + disp, backend="sparse", cutoff=2.0)
    if np.any(disp != 0.0):
        expected = (
            "patched-sparse"
            if (disp != 0).any(axis=1).sum()
            <= MOBILITY_REBUILD_FRACTION["sparse"] * n
            else "rebuild"
        )
        assert advanced.advance_mode == expected
    _assert_sparse_equal(advanced, fresh)
    tx = np.random.default_rng(seed ^ 0xC3).random((3, n)) < 0.3
    assert np.array_equal(
        resolve_reception_batch(
            advanced.gain_operator, tx, PARAMS.noise, PARAMS.beta
        ),
        resolve_reception_batch(
            fresh.gain_operator, tx, PARAMS.noise, PARAMS.beta
        ),
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    frac=st.floats(0.05, 0.6),
    scale=st.floats(0.001, 0.2),
)
def test_dense_advance_bitwise_equals_fresh_build(seed, n, frac, scale):
    coords = _coords(seed, n, side=2.5)
    net = Network(coords, backend="dense")
    net.distances
    net.gains
    disp = _displacements(seed ^ 0x77, coords, frac, scale, keep_box=True)
    advanced = net.advance(disp)
    fresh = Network(coords + disp, backend="dense")
    assert np.array_equal(advanced.distances, fresh.distances)
    assert np.array_equal(advanced.gains, fresh.gains)
    if np.any(disp != 0.0):
        moved = (disp != 0).any(axis=1).sum()
        expected = (
            "patched-dense"
            if moved <= MOBILITY_REBUILD_FRACTION["dense"] * n
            else "rebuild"
        )
        assert advanced.advance_mode == expected


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 32),
)
def test_box_drift_falls_back_to_rebuild_and_stays_equal(seed, n):
    """Moving a bounding-box corner invalidates the sparse cell grid;
    the advance must detect it, rebuild, and still match a fresh
    network bit for bit."""
    coords = _coords(seed, n, side=3.0)
    net = Network(coords, backend="sparse", cutoff=2.0)
    net.sparse_backend
    disp = _displacements(seed, coords, 0.1, 0.2, keep_box=False)
    advanced = net.advance(disp)
    assert advanced.advance_mode == "rebuild"
    fresh = Network(coords + disp, backend="sparse", cutoff=2.0)
    _assert_sparse_equal(advanced, fresh)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    rounds=st.integers(1, 6),
)
def test_mobility_sessions_are_deterministic(seed, n, rounds):
    from repro.deploy.mobility import BrownianDrift

    coords = _coords(seed, n, side=2.0)
    model = BrownianDrift(0.05, move_prob=0.5, seed=seed % 1000)
    a = model.session(coords)
    b = model.session(coords)
    ca, cb = coords.copy(), coords.copy()
    for r in range(rounds):
        da = a.displacements(ca, r)
        db = b.displacements(cb, r)
        assert np.array_equal(da, db)
        ca = ca + da
        cb = cb + db
        assert np.all(ca >= coords.min(axis=0) - 1e-12)
        assert np.all(ca <= coords.max(axis=0) + 1e-12)
