"""Differential tests of the compiled loop kernels (DESIGN.md §2.3).

The compiled loops (numba-jitted where available, pure python otherwise)
and the numpy reference arithmetic are two implementations of one
function, and the contract between them is **bitwise equality** — the
property that lets the result cache and the network fingerprint ignore
which one ran.  This suite is the enforcement:

* hypothesis fuzz over random gain matrices, transmitter masks and
  sparse deployments, asserting resolver outputs equal bit for bit;
* full protocol traces (broadcast and wake-up) across deployment
  families, channel models and both SINR backends, asserting the
  *entire execution* — every per-station round stamp — is identical,
  and every sweep kind's full outcome digest on both backends, pinned
  on a static medium (bare and CSMA-arbitrated, both backends) and
  under a moving, CSMA-arbitrated medium;
* a mobility ``advance`` step, whose patched CSR state must not depend
  on the kernel that will consume it;
* a cross-kernel cache replay: a sweep computed by the numpy path must
  be *hit* (not recomputed) by the same sweep under the loops, because
  their keys coincide by design.

The platform picks the implementation (:data:`repro.kernels.COMPILED`);
each leg here monkeypatches that constant, so everything runs with or
without numba — without it, the compiled leg exercises the un-jitted
loop bodies, which are the same arithmetic the jit compiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.constants import ProtocolConstants
from repro.deploy import (
    BrownianDrift,
    corridor,
    fractal_clusters,
    uniform_cube,
    uniform_square,
)
from repro.fastsim.broadcast import fast_spont_broadcast_batch
from repro.fastsim.cache import digest
from repro.fastsim.coloring import fast_coloring_batch
from repro.fastsim.engine import spawn_rngs
from repro.fastsim.grid import GridPoint, GridSpec, run_grid
from repro.fastsim.sweep import run_sweep, sweep_kinds
from repro.fastsim.wakeup import fast_adhoc_wakeup_batch
from repro.geometry.metric import pairwise_distances
from repro.mac import CSMA
from repro.network.network import Network
from repro.sim.wakeup import WakeupSchedule
from repro.sinr.channel import DualSlope
from repro.sinr.gain import gain_matrix
from repro.sinr.params import SINRParameters
from repro.sinr.reception import (
    resolve_at,
    resolve_reception,
    resolve_reception_batch,
)
from repro.sinr.sparse import SparseGainBackend

pytestmark = pytest.mark.compiled

PARAMS = SINRParameters.default()
CONSTANTS = ProtocolConstants.practical()


def _legs(fn):
    """``[fn() on the numpy path, fn() on the loop kernels]``.

    The platform constant is patched per leg — the test substitution
    for a machine with (or without) numba.
    """
    results = []
    for compiled in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "COMPILED", compiled)
            results.append(fn())
    return results


def _gains(seed: int, n: int, side: float = 2.2) -> np.ndarray:
    coords = np.random.default_rng(seed).uniform(0, side, size=(n, 2))
    return gain_matrix(pairwise_distances(coords), PARAMS.power, PARAMS.alpha)


def _bitwise(results):
    """Assert the per-kernel results are bitwise identical; return one."""
    a, b = results
    first, second = (a, b) if isinstance(a, tuple) else ((a,), (b,))
    for x, y in zip(first, second):
        assert np.array_equal(np.asarray(x), np.asarray(y))
    return a


class TestResolverFuzz:
    """Hypothesis-quantified bitwise equality of the resolver kernels."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 32),
        B=st.integers(1, 5),
        prob=st.floats(0.0, 1.0),
    )
    def test_dense_batched(self, seed, n, B, prob):
        gain = _gains(seed, n)
        tx_mask = np.random.default_rng(seed ^ 0xC0FE).random((B, n)) < prob
        _bitwise(_legs(lambda: resolve_reception_batch(
            gain, tx_mask, PARAMS.noise, PARAMS.beta
        )))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 32),
        k=st.integers(1, 32),
    )
    def test_dense_single_unsorted_transmitters(self, seed, n, k):
        # Single-round resolution is the B = 1 row of the batched fold;
        # feed it a permutation, not a sorted set, so an order
        # dependence in either path would show.  resolve_at's SINR leg
        # compares dense_strongest's floats with the numpy fold's.
        gain = _gains(seed, n)
        tx = np.random.default_rng(seed ^ 0xBEEF).permutation(n)[
            : min(k, n)
        ]
        _bitwise(_legs(lambda: resolve_at(
            gain, tx, np.arange(n), PARAMS.noise, PARAMS.beta
        )))
        _bitwise(_legs(lambda: resolve_reception(
            gain, tx, PARAMS.noise, PARAMS.beta
        )))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 48),
        B=st.integers(1, 4),
        prob=st.floats(0.05, 0.6),
        side=st.sampled_from([1.8, 5.0]),  # covered vs truncated far field
        cutoff=st.sampled_from([1.0, 2.0]),
        dual_slope=st.booleans(),
    )
    def test_sparse_csr_scan(self, seed, n, B, prob, side, cutoff, dual_slope):
        coords = np.random.default_rng(seed).uniform(0, side, size=(n, 2))
        channel = DualSlope() if dual_slope else None
        backend = SparseGainBackend(coords, PARAMS, channel, cutoff)
        rng = np.random.default_rng(seed ^ 0xFACE)
        tx_mask = rng.random((B, n)) < prob
        _bitwise(_legs(lambda: backend.resolve_reception_batch(
            tx_mask, PARAMS.noise, PARAMS.beta
        )))
        # The near scan's float outputs: csr_near_scan against the
        # numpy bincount fold.
        tx = np.flatnonzero(tx_mask[0])
        _bitwise(_legs(lambda: backend._near_scan(tx)))


#: Small connected deployments spanning the geometry families the paper
#: cares about: planar uniform, a corridor strip, a fractal cluster
#: hierarchy, and a 3D cube.
DEPLOYMENTS = {
    "square": lambda rng: uniform_square(n=24, side=2.2, rng=rng),
    "corridor": lambda rng: corridor(n=24, length=6.0, width=1.0, rng=rng),
    "fractal": lambda rng: fractal_clusters(levels=3, branching=3, rng=rng),
    "cube3d": lambda rng: uniform_cube(n=24, side=1.4, rng=rng),
}

CHANNELS = {"uniform": None, "dual-slope": DualSlope()}

#: Per-kind ``run_sweep`` arguments for a given network (kinds absent
#: here need none beyond the default source).
SWEEP_KWARGS = {
    "adhoc_wakeup": lambda net: {
        "schedule": WakeupSchedule.single(net.size, 0)
    },
    "colored_wakeup": lambda net: {
        "initiators": [0],
        "base_colors": fast_coloring_batch(
            net, CONSTANTS, [np.random.default_rng(11)]
        ).replication(0).colors,
    },
    "consensus": lambda net: {"x_max": 3},
}

#: ``digest([rounds, success, outcomes])`` of every sweep kind but
#: traffic on the dense square under a drifting deployment and CSMA
#: (``test_sweep_trace_moving_arbitrated``), recorded with the
#: per-kernel mobility and MAC callbacks that the medium replaced.
MOVING_ARBITRATED_DIGESTS = {
    "adhoc_wakeup":
        "685b2b4bbcf95c690461b4c72b38fdc45358b45b13d8383419cea2f8467ae093",
    "colored_wakeup":
        "3640f1167daa616ccc442587dc91720acceb4ddc5971192e43a67b7a9af5f8fa",
    "coloring":
        "bff891151e5537625670c3cceb541a69aa44441a0c7db3bb207d3b614865082f",
    "consensus":
        "5a947db9580a744b9837b3ff3b778fb5c231fdb4f3f8834db8cbf6a60f03fc9a",
    "decay_broadcast":
        "3c596fd00baae6689099537ca756dd38e26d8cc277e8cc95cd648ebe46ddcb9b",
    "leader_election":
        "5b34047a815180302af6f59ac2679d4558e3af3bc4c48971394f905b0ba119ae",
    "local_broadcast":
        "780dd58dcf57237f22da96631e8c40add1b24a698f0d4e8955911f992d483fdb",
    "nospont_broadcast":
        "a6fddde6f7875062d0d9339fa8dc82ad585d60688775275a75a178c844e6f097",
    "spont_broadcast":
        "da8403a973ef6da3594b5b339b3c9c607afeef309c77452835d96f1d77bed66f",
    "uniform_broadcast":
        "9fe94db8613e77262eab0041ffb50c44f10e6db34bf5735cc3ebbdec0937291f",
}


#: ``digest([rounds, success, outcomes])`` of every sweep kind but
#: traffic on the static square, keyed ``(kind, backend, mac)``: bare
#: and under ``CSMA(persist=0.9, seed=7)`` on both backends
#: (``test_sweep_trace_static``), recorded with each round resolved
#: by its own medium call.
STATIC_DIGESTS = {
    ("adhoc_wakeup", "dense", "bare"):
        "3081fd686c7d6830854f6a0439917556ee3825430b022ef011cfabf40baa2ac2",
    ("adhoc_wakeup", "dense", "csma"):
        "3081fd686c7d6830854f6a0439917556ee3825430b022ef011cfabf40baa2ac2",
    ("adhoc_wakeup", "sparse", "bare"):
        "3081fd686c7d6830854f6a0439917556ee3825430b022ef011cfabf40baa2ac2",
    ("adhoc_wakeup", "sparse", "csma"):
        "3081fd686c7d6830854f6a0439917556ee3825430b022ef011cfabf40baa2ac2",
    ("colored_wakeup", "dense", "bare"):
        "8b44e10ab75a9f6c8c524a2d68fbd28640071fab4a109bbe1bdb5e484cb0cb61",
    ("colored_wakeup", "dense", "csma"):
        "b258111861e4f061d381beb9f3ec400fee9a9d02f4020575740a4ffb700e7835",
    ("colored_wakeup", "sparse", "bare"):
        "8b44e10ab75a9f6c8c524a2d68fbd28640071fab4a109bbe1bdb5e484cb0cb61",
    ("colored_wakeup", "sparse", "csma"):
        "b258111861e4f061d381beb9f3ec400fee9a9d02f4020575740a4ffb700e7835",
    ("coloring", "dense", "bare"):
        "198a98606d6de79338665a5e4ccf3add44631f5577e506a95f9f1c9f3dea9437",
    ("coloring", "dense", "csma"):
        "4558a8c09f892c764b95c880441be19c64463165e961c07dddb5a8ad6f20cb30",
    ("coloring", "sparse", "bare"):
        "198a98606d6de79338665a5e4ccf3add44631f5577e506a95f9f1c9f3dea9437",
    ("coloring", "sparse", "csma"):
        "4558a8c09f892c764b95c880441be19c64463165e961c07dddb5a8ad6f20cb30",
    ("consensus", "dense", "bare"):
        "fc651033fc1c6e92ab9fb61f539713004901deb3c968ec48c0c086d40eb71c0c",
    ("consensus", "dense", "csma"):
        "94034e3bbccc2ffd1eb1144344cbd0c21f775e09f9f05202a28a4843c68926ab",
    ("consensus", "sparse", "bare"):
        "fc651033fc1c6e92ab9fb61f539713004901deb3c968ec48c0c086d40eb71c0c",
    ("consensus", "sparse", "csma"):
        "94034e3bbccc2ffd1eb1144344cbd0c21f775e09f9f05202a28a4843c68926ab",
    ("decay_broadcast", "dense", "bare"):
        "70aaffa3471b724806b00ebbb14b8526886f2ee25ffbdc3c3eab270625ebb737",
    ("decay_broadcast", "dense", "csma"):
        "383f313e0532a546e652d0225b41efcb9a324bad661fc3ac8e01f96225cb5bd1",
    ("decay_broadcast", "sparse", "bare"):
        "70aaffa3471b724806b00ebbb14b8526886f2ee25ffbdc3c3eab270625ebb737",
    ("decay_broadcast", "sparse", "csma"):
        "383f313e0532a546e652d0225b41efcb9a324bad661fc3ac8e01f96225cb5bd1",
    ("leader_election", "dense", "bare"):
        "457ffee5de56ca80516cddc4c3861d529cda1834c52a96cb7126aa83813e099e",
    ("leader_election", "dense", "csma"):
        "bfe832c9454faead6b534c2e157a4eeb236327ad537009fd0f4c61e8c323079c",
    ("leader_election", "sparse", "bare"):
        "457ffee5de56ca80516cddc4c3861d529cda1834c52a96cb7126aa83813e099e",
    ("leader_election", "sparse", "csma"):
        "bfe832c9454faead6b534c2e157a4eeb236327ad537009fd0f4c61e8c323079c",
    ("local_broadcast", "dense", "bare"):
        "bc2124d7ea6721fa829714735b7ff867b70aa3cc4794a5c4f9e75106417f4255",
    ("local_broadcast", "dense", "csma"):
        "3e0beda1a4df1eea5d4c81874b393b85055a6bb8b5e1c95f7db6ce3ec5275b04",
    ("local_broadcast", "sparse", "bare"):
        "bc2124d7ea6721fa829714735b7ff867b70aa3cc4794a5c4f9e75106417f4255",
    ("local_broadcast", "sparse", "csma"):
        "3e0beda1a4df1eea5d4c81874b393b85055a6bb8b5e1c95f7db6ce3ec5275b04",
    ("nospont_broadcast", "dense", "bare"):
        "d1b401f49ee87431baee1c84ff6524da249f2b40ac8067576d282bd35ee6e550",
    ("nospont_broadcast", "dense", "csma"):
        "b303fbd9f457c9a11fee1216f19a4170b58e045c601f61f754059e64d9a8c41e",
    ("nospont_broadcast", "sparse", "bare"):
        "d1b401f49ee87431baee1c84ff6524da249f2b40ac8067576d282bd35ee6e550",
    ("nospont_broadcast", "sparse", "csma"):
        "b303fbd9f457c9a11fee1216f19a4170b58e045c601f61f754059e64d9a8c41e",
    ("spont_broadcast", "dense", "bare"):
        "3caf326deb098fadff2ef8ca29c7466d8ef6d0e079c1919560a55debc98bd5f1",
    ("spont_broadcast", "dense", "csma"):
        "15f4d02b5294054dcffa6081a3ddddf3b95a024cc19d05a1b4463a69f4c566b6",
    ("spont_broadcast", "sparse", "bare"):
        "3caf326deb098fadff2ef8ca29c7466d8ef6d0e079c1919560a55debc98bd5f1",
    ("spont_broadcast", "sparse", "csma"):
        "15f4d02b5294054dcffa6081a3ddddf3b95a024cc19d05a1b4463a69f4c566b6",
    ("uniform_broadcast", "dense", "bare"):
        "61b9f9c05dcdc697da8c0272c25aa433ff700aa90a375606730859c014af718e",
    ("uniform_broadcast", "dense", "csma"):
        "3b52f4c6b3eee73d97f4c9fc686039bce5411126b7ad8ed984cc52ea411d93bb",
    ("uniform_broadcast", "sparse", "bare"):
        "61b9f9c05dcdc697da8c0272c25aa433ff700aa90a375606730859c014af718e",
    ("uniform_broadcast", "sparse", "csma"):
        "3b52f4c6b3eee73d97f4c9fc686039bce5411126b7ad8ed984cc52ea411d93bb",
}


class TestProtocolTraces:
    """Whole protocol executions are kernel-independent, stamp for stamp.

    Each leg rebuilds the deployment and the replication rngs from the
    same seeds under the other value of :data:`repro.kernels.COMPILED`,
    so the comparison covers the full production path — deployment,
    coloring, pilot rounds, dissemination, per-round state updates —
    not just one resolver call.
    """

    @staticmethod
    def _network(deploy, channel, backend):
        net = deploy(np.random.default_rng(42))
        if channel is not None:
            net = net.with_channel(channel)
        if backend == "sparse":
            net = Network(
                net.coords, net.params, name=net.name,
                channel=net.channel, backend="sparse", cutoff=2.0,
            )
        assert net.kernel_kind == (
            "compiled" if kernels.COMPILED else "numpy"
        )
        return net

    @classmethod
    def _trace(cls, deploy, channel, backend):
        return fast_spont_broadcast_batch(
            cls._network(deploy, channel, backend), 0, CONSTANTS,
            spawn_rngs(2, 99),
        )

    @pytest.mark.parametrize("channel_name", sorted(CHANNELS))
    @pytest.mark.parametrize("deploy_name", sorted(DEPLOYMENTS))
    def test_broadcast_trace(self, deploy_name, channel_name):
        runs = _legs(lambda: self._trace(
            DEPLOYMENTS[deploy_name], CHANNELS[channel_name], "dense"
        ))
        for a, b in zip(*runs):
            assert a.success == b.success
            assert a.completion_round == b.completion_round
            assert a.total_rounds == b.total_rounds
            assert np.array_equal(a.informed_round, b.informed_round)

    def test_broadcast_trace_sparse_backend(self):
        runs = _legs(
            lambda: self._trace(DEPLOYMENTS["square"], None, "sparse")
        )
        for a, b in zip(*runs):
            assert a.total_rounds == b.total_rounds
            assert np.array_equal(a.informed_round, b.informed_round)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "kind", [kind for kind in sweep_kinds() if kind != "traffic"]
    )
    def test_sweep_trace(self, kind, backend):
        # Every protocol through the entry the experiments use: headline
        # rounds, success flags and each replication's whole outcome
        # (round stamps, colors, extras) digest identically.
        def run():
            net = self._network(DEPLOYMENTS["square"], None, backend)
            kwargs = SWEEP_KWARGS.get(kind, lambda _net: {})(net)
            sweep = run_sweep(kind, net, 2, 5, CONSTANTS, **kwargs)
            return digest([sweep.rounds, sweep.success, sweep.outcomes])

        numpy_digest, loop_digest = _legs(run)
        assert numpy_digest == loop_digest

    @pytest.mark.parametrize(
        "kind", [kind for kind in sweep_kinds() if kind != "traffic"]
    )
    def test_sweep_trace_moving_arbitrated(self, kind):
        # Mobility and MAC together: every round steps the trajectory,
        # arbitrates, then resolves, in that order, on one medium.
        def run():
            net = self._network(DEPLOYMENTS["square"], None, "dense")
            kwargs = SWEEP_KWARGS.get(kind, lambda _net: {})(net)
            sweep = run_sweep(
                kind, net, 2, 5, CONSTANTS,
                mobility=BrownianDrift(0.03, move_prob=0.4, seed=11),
                mac=CSMA(persist=0.9, seed=7), **kwargs,
            )
            return digest([sweep.rounds, sweep.success, sweep.outcomes])

        assert _legs(run) == [MOVING_ARBITRATED_DIGESTS[kind]] * 2

    @pytest.mark.parametrize("mac", ["bare", "csma"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "kind", [kind for kind in sweep_kinds() if kind != "traffic"]
    )
    def test_sweep_trace_static(self, kind, backend, mac):
        # A static medium, bare or arbitrated, on either backend: the
        # whole outcome is pinned, so a change in how rounds are grouped
        # into resolver calls cannot move a bit.
        def run():
            net = self._network(DEPLOYMENTS["square"], None, backend)
            kwargs = SWEEP_KWARGS.get(kind, lambda _net: {})(net)
            if mac == "csma":
                kwargs["mac"] = CSMA(persist=0.9, seed=7)
            sweep = run_sweep(kind, net, 2, 5, CONSTANTS, **kwargs)
            return digest([sweep.rounds, sweep.success, sweep.outcomes])

        assert _legs(run) == [STATIC_DIGESTS[kind, backend, mac]] * 2

    def test_wakeup_trace(self):
        def run():
            net = DEPLOYMENTS["square"](np.random.default_rng(42))
            schedule = WakeupSchedule(
                np.random.default_rng(3).integers(0, 6, net.size)
            )
            return fast_adhoc_wakeup_batch(
                net, schedule, CONSTANTS, spawn_rngs(2, 5),
                round_budget=200,
            )

        for a, b in zip(*_legs(run)):
            assert a.success == b.success
            assert a.total_rounds == b.total_rounds
            assert np.array_equal(a.informed_round, b.informed_round)
            assert a.extras["wakeup_time"] == b.extras["wakeup_time"]

    def test_wakeup_trace_single_initiator(self):
        # One spontaneous waker: every other station is woken by hearing
        # a message, so the wake marking (the phase a woken station
        # joins) and the coloring test counters shape the run.
        def run():
            net = DEPLOYMENTS["square"](np.random.default_rng(42))
            return fast_adhoc_wakeup_batch(
                net, WakeupSchedule.single(net.size, 0), CONSTANTS,
                spawn_rngs(2, 5),
            )

        outcomes = _legs(run)
        assert all(out.success for out in outcomes[0])
        for a, b in zip(*outcomes):
            assert a.total_rounds == b.total_rounds
            assert np.array_equal(a.informed_round, b.informed_round)


class TestMobilityAdvance:
    """The incrementally-patched sparse state is kernel-independent."""

    def test_advanced_csr_bitwise_across_kernels(self):
        coords = np.random.default_rng(8).uniform(0, 4, size=(40, 2))
        session = BrownianDrift(0.05, seed=3).session(coords)
        disp = session.displacements(coords, 0)
        tx = np.random.default_rng(5).random((3, 40)) < 0.3

        def run():
            net = Network(coords, backend="sparse", cutoff=1.5)
            backend = net.advance(disp).sparse_backend
            heard = resolve_reception_batch(
                backend, tx, PARAMS.noise, PARAMS.beta
            )
            return backend.indptr, backend.indices, backend.data, heard

        _bitwise(_legs(run))


class TestCacheReplay:
    """A numpy-computed sweep replays under the loop kernels — same key."""

    def test_cross_kernel_cache_hit(self, tmp_path):
        coords = np.random.default_rng(1).uniform(0, 1.5, size=(12, 2))
        spec = GridSpec(
            points=[GridPoint(
                kind="spont_broadcast",
                deployment=lambda rng: Network(coords, name="diff-cache"),
                n_replications=2,
                label="diff-cache",
                constants=CONSTANTS,
                kwargs={"source": 0},
            )],
            seed=7,
            name="diff",
        )
        first, replay = (
            point for (point,) in _legs(
                lambda: run_grid(spec, jobs=1, cache_dir=tmp_path)
            )
        )
        assert not first.cached
        assert replay.cached  # the §2.3 contract, paying rent
        assert np.array_equal(first.sweep.rounds, replay.sweep.rounds,
                              equal_nan=True)
        assert np.array_equal(first.sweep.success, replay.sweep.success)
