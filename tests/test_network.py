"""Tests for the Network aggregate and its communication-graph questions."""

import functools
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeploymentError,
    DisconnectedNetworkError,
    GeometryError,
    ProtocolError,
)
from repro.geometry.metric import pairwise_distances
from repro.network.network import Network
from repro.sinr.params import SINRParameters


class TestCommunicationGraph:
    def test_edge_iff_within_radius(self, three_station_line):
        g = three_station_line.graph
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 2)  # distance 1.2 > 0.7

    def test_no_self_loops(self, small_square):
        assert all(u != v for u, v in small_square.graph.edges)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("radius", [-0.5, np.nan], ids=["negative", "nan"])
    def test_rejects_bad_radius(self, backend, radius):
        net = Network(np.array([[0.0, 0.0], [0.5, 0.0]]), backend=backend)
        with pytest.raises(GeometryError, match="radius"):
            net.adjacency_within(radius)

    def test_isolated_station(self):
        net = Network(np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert net.graph.number_of_edges() == 0
        assert not net.is_connected


class TestDiameterAndEccentricity:
    def test_path_graph_diameter(self, three_station_line):
        assert three_station_line.diameter == 2

    def test_single_station(self):
        net = Network(np.array([[0.0, 0.0]]))
        assert net.diameter == 0

    def test_disconnected_raises(self):
        net = Network(np.array([[0.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(DisconnectedNetworkError):
            _ = net.diameter

    def test_eccentricity_from_end(self, three_station_line):
        assert three_station_line.eccentricity(0) == 2
        assert three_station_line.eccentricity(1) == 1

    def test_eccentricity_unknown_source(self, three_station_line):
        with pytest.raises(GeometryError):
            three_station_line.eccentricity(99)

    def test_diameter_at_most_twice_eccentricity(self, small_square):
        d = small_square.diameter
        e = small_square.eccentricity(0)
        assert e <= d <= 2 * e


class TestBfsLayers:
    def test_layers_of_path(self, three_station_line):
        layers = three_station_line.bfs_layers(0)
        assert layers == [[0], [1], [2]]

    def test_layers_partition_stations(self, small_square):
        layers = small_square.bfs_layers(0)
        flat = [v for layer in layers for v in layer]
        assert sorted(flat) == list(range(small_square.size))

    def test_layer_count_is_ecc_plus_one(self, small_square):
        layers = small_square.bfs_layers(0)
        assert len(layers) == small_square.eccentricity(0) + 1

    def test_unknown_source_raises(self, three_station_line):
        with pytest.raises(GeometryError):
            three_station_line.bfs_layers(10)


class TestDegreeAndGranularity:
    def test_max_degree_path(self, three_station_line):
        assert three_station_line.max_degree == 2

    def test_max_degree_empty(self):
        assert Network(np.array([[0.0, 0.0]])).max_degree == 0

    def test_granularity_uniform_chain(self, small_chain):
        # Edges: length 0.5 (hops) and 1.0 (two-hop shortcuts? 1.0 > 0.7 no)
        assert small_chain.granularity == pytest.approx(1.0)

    def test_granularity_mixed_edges(self):
        net = Network(np.array([[0.0, 0.0], [0.1, 0.0], [0.7, 0.0]]))
        # Edges: (0,1) len 0.1, (1,2) len 0.6, (0,2) len 0.7.
        assert net.granularity == pytest.approx(7.0)

    def test_granularity_no_edges(self):
        net = Network(np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert net.granularity == 1.0


class TestNetwork:
    def test_len(self, small_square):
        assert len(small_square) == 32

    def test_rejects_empty(self):
        with pytest.raises(DeploymentError):
            Network(np.zeros((0, 2)))

    def test_rejects_colocated(self):
        net = Network(np.array([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DeploymentError):
            _ = net.distances

    def test_coords_read_only(self, small_square):
        with pytest.raises(ValueError):
            small_square.coords[0, 0] = 99.0

    def test_distances_cached(self, small_square):
        assert small_square.distances is small_square.distances

    def test_gains_shape(self, small_square):
        assert small_square.gains.shape == (32, 32)

    def test_one_dimensional_coords_promoted(self):
        net = Network(np.array([0.0, 0.5, 1.0]))
        assert net.coords.shape == (3, 2) or net.coords.shape == (3, 1)
        assert net.size == 3

    def test_ball_query(self, three_station_line):
        assert list(three_station_line.ball(0, 0.7)) == [0, 1]

    def test_with_params_changes_graph(self, three_station_line):
        tight = three_station_line.with_params(
            SINRParameters.default(eps=0.5)
        )
        # comm radius 0.5 < 0.6: the line disconnects.
        assert not tight.is_connected
        assert three_station_line.is_connected  # original untouched

    def test_describe_keys(self, small_square):
        d = small_square.describe()
        for key in ("name", "n", "connected", "diameter", "max_degree",
                    "granularity", "alpha", "beta", "eps"):
            assert key in d

    def test_describe_disconnected(self):
        net = Network(np.array([[0.0, 0.0], [5.0, 0.0]]))
        d = net.describe()
        assert d["connected"] is False
        assert d["diameter"] is None

    def test_repr(self, small_square):
        assert "n=32" in repr(small_square)

    def test_neighbors_sorted(self, small_grid):
        nbrs = small_grid.neighbors(0)
        assert nbrs == sorted(nbrs)
        assert 0 not in nbrs


class TestNetworkCachesAndFingerprint:
    def test_max_degree_cached(self):
        coords = np.random.default_rng(6).random((16, 2)) * 2.0
        net = Network(coords)
        first = net.max_degree
        assert net._max_degree == first
        # Cached value is served without re-walking the graph.
        net._max_degree = first + 99
        assert net.max_degree == first + 99

    def test_fingerprint_stable_across_instances(self):
        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        a = Network(coords, name="a")
        b = Network(coords.copy(), name="b")
        assert a.fingerprint() == b.fingerprint()  # name is cosmetic

    def test_fingerprint_changes_with_coords(self):
        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        moved = coords.copy()
        moved[0, 0] += 1e-9
        assert (
            Network(coords).fingerprint() != Network(moved).fingerprint()
        )

    def test_fingerprint_changes_with_params(self):
        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        assert (
            Network(coords).fingerprint()
            != Network(
                coords, params=SINRParameters.default(alpha=4.0)
            ).fingerprint()
        )

    def test_fingerprint_is_cached(self, small_square):
        assert small_square.fingerprint() is small_square.fingerprint()

    def test_fingerprint_changes_with_channel(self):
        from repro.sinr.channel import DualSlope, LogNormalShadowing

        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        prints = {
            Network(coords).fingerprint(),
            Network(
                coords, channel=LogNormalShadowing(3.0, seed=1)
            ).fingerprint(),
            Network(
                coords, channel=LogNormalShadowing(3.0, seed=2)
            ).fingerprint(),
            Network(coords, channel=DualSlope()).fingerprint(),
        }
        assert len(prints) == 4

    def test_default_channel_keeps_fingerprint(self):
        from repro.sinr.channel import UniformPower

        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        assert (
            Network(coords).fingerprint()
            == Network(coords, channel=UniformPower()).fingerprint()
        )

    def test_with_channel_copies(self, small_square):
        from repro.sinr.channel import LogNormalShadowing

        shadowed = small_square.with_channel(LogNormalShadowing(2.0, 3))
        assert shadowed is not small_square
        assert np.array_equal(shadowed.coords, small_square.coords)
        assert shadowed.params is small_square.params
        assert not np.array_equal(shadowed.gains, small_square.gains)

    def test_mac_and_traffic_identity_lives_in_point_key(self):
        # The MAC/traffic mirror of the channel-identity regression
        # above: strategy objects are deliberately NOT part of the
        # network fingerprint — they reach cache keys through the sweep
        # kwargs, so runs under different MACs / workloads share a
        # fingerprint yet never alias each other's cached results.
        from repro.fastsim.cache import point_key
        from repro.mac import CSMA, RateTable, SlottedAloha
        from repro.traffic import Flow, Poisson

        coords = np.random.default_rng(5).random((8, 2)) * 3.0
        net = Network(coords)
        assert net.fingerprint() == Network(coords).fingerprint()

        def key(kwargs):
            return point_key(
                kind="spont_broadcast",
                network_fingerprint=net.fingerprint(),
                constants=None, seed=1, n_replications=2, kwargs=kwargs,
            )

        keys = {
            key({"source": 0}),
            key({"source": 0, "mac": SlottedAloha(0.5)}),
            key({"source": 0, "mac": CSMA()}),
            key({"source": 0, "rate_table": RateTable()}),
            key({"source": 0, "flows": [Flow(0, 1, Poisson(1.0))]}),
        }
        assert len(keys) == 5


@functools.lru_cache(maxsize=None)
def _descriptor_cases() -> dict:
    """label -> network, covering every rebuild the seam performs."""
    from repro.sinr.channel import DualSlope, LogNormalShadowing, UniformPower

    rng = np.random.default_rng(11)
    dense_coords = rng.uniform(0, 2.5, size=(40, 2))
    far_coords = rng.uniform(0, 5.0, size=(160, 2))
    channels = {
        "uniform": UniformPower(),
        "log-normal": LogNormalShadowing(sigma_db=4.0, seed=3),
        "dual-slope": DualSlope(breakpoint=0.5),
    }
    cases = {}
    for label, channel in channels.items():
        cases[f"dense-{label}"] = Network(
            dense_coords, channel=channel, name=f"dense-{label}",
        )
        if channel.radial_gain(np.asarray([1.0]), SINRParameters.default()):
            cases[f"sparse-far-{label}"] = Network(
                far_coords, channel=channel, backend="sparse", cutoff=1.0,
            )
    for label, base in list(cases.items()):
        base.gain_operator  # built, so advance patches incrementally
        moved = np.zeros_like(base.coords)
        moved[:3] = 0.01
        cases[f"{label}-advanced"] = base.advance(moved)
    return cases


class TestDescriptor:
    """``Network(**net.descriptor())`` is ``net``, bit for bit — the
    contract fork workers, service daemons and the copy methods share."""

    @staticmethod
    def _assert_same_network(a, b):
        assert a.fingerprint() == b.fingerprint()
        assert a.backend_kind == b.backend_kind
        if a.backend_kind == "sparse":
            for name in ("data", "indices", "indptr"):
                x = getattr(a.sparse_backend, name)
                y = getattr(b.sparse_backend, name)
                assert x.dtype == y.dtype
                assert x.tobytes() == y.tobytes()
        else:
            assert a.gains.dtype == b.gains.dtype
            assert a.gains.tobytes() == b.gains.tobytes()

    @pytest.mark.parametrize("label", list(_descriptor_cases()))
    def test_rebuild_is_bitwise(self, label):
        net = _descriptor_cases()[label]
        self._assert_same_network(net, Network(**net.descriptor()))
        # The descriptor travels pickled in a service `sweep` payload.
        shipped = pickle.loads(pickle.dumps(net.descriptor()))
        self._assert_same_network(net, Network(**shipped))

    def test_cases_cover_far_field_and_patched_successors(self):
        cases = _descriptor_cases()
        assert not cases["sparse-far-uniform"].sparse_backend.far_empty
        assert not cases["sparse-far-dual-slope"].sparse_backend.far_empty
        assert "sparse-far-log-normal" not in cases  # non-radial: dense
        assert cases["sparse-far-uniform-advanced"].advance_mode == (
            "patched-sparse"
        )
        assert cases["dense-log-normal-advanced"].advance_mode == (
            "patched-dense"
        )

    def test_descriptor_carries_requests_not_resolutions(self):
        net = Network(np.random.default_rng(2).random((12, 2)))
        d = net.descriptor()
        assert (d["backend"], d["cutoff"]) == ("auto", None)
        assert "kernel" not in d
        assert d["coords"] is net.coords


class TestBallBeyondCutoff:
    """A sparse network answers radii past its cutoff from one row of
    distances — never the ``(n, n)`` matrix — and the row is the dense
    matrix's row bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3]),
        n=st.integers(2, 60),
        data=st.data(),
    )
    def test_matches_dense_row_at_exact_radii(self, seed, dim, n, data):
        coords = np.random.default_rng(seed).uniform(0, 8.0, size=(n, dim))
        net = Network(coords, backend="sparse")
        dist = pairwise_distances(coords)
        center = data.draw(st.integers(0, n - 1))
        far = np.flatnonzero(dist[center] > net.cutoff)
        # A radius equal to an actual distance puts that station exactly
        # on the boundary: only a bitwise-equal row gets it right.
        radius = (
            float(dist[center, data.draw(st.sampled_from(far.tolist()))])
            if far.size else 2.5 * net.cutoff
        )
        got = net.ball(center, radius)
        assert net._dist is None
        assert np.array_equal(got, np.flatnonzero(dist[center] <= radius))

    def test_just_past_cutoff_leaves_no_matrix(self):
        coords = np.random.default_rng(4).uniform(0, 20.0, size=(500, 2))
        net = Network(coords, backend="sparse")
        dense = Network(coords, backend="dense")
        got = net.ball(0, net.cutoff * 1.01)
        assert net._dist is None
        assert np.array_equal(got, dense.ball(0, net.cutoff * 1.01))


class TestAdjacencyWithin:
    """One radius query answers for both backends, byte for byte.

    ``sparse-small`` serves radii up to 1.0 from its near field and
    computes distance rows beyond it; ``sparse-large`` serves every
    radius up to 2.5 from its near field.
    """

    COORDS = np.random.default_rng(21).uniform(0, 4.0, size=(80, 2))

    @functools.cached_property
    def networks(self) -> dict:
        return {
            "dense": Network(self.COORDS, backend="dense"),
            "sparse-small": Network(self.COORDS, backend="sparse", cutoff=1.0),
            "sparse-large": Network(self.COORDS, backend="sparse", cutoff=2.5),
        }

    def radii(self) -> list:
        dist = self.networks["dense"].distances
        # Radii below, at and above each cutoff, plus pair distances in
        # each regime (0.47, 1.62, 2.80), which put a station exactly on
        # the boundary.
        return [
            0.5, 1.0, 1.7, 2.5, 3.1,
            float(dist[0, 7]), float(dist[0, 2]), float(dist[0, 8]),
        ]

    def test_backends_return_identical_bytes(self):
        nets = self.networks
        for radius in self.radii():
            want = nets["dense"].adjacency_within(radius)
            for name in ("sparse-small", "sparse-large"):
                got = nets[name].adjacency_within(radius)
                assert got[0].dtype == want[0].dtype, (name, radius)
                assert got[1].dtype == want[1].dtype, (name, radius)
                assert got[0].tobytes() == want[0].tobytes(), (name, radius)
                assert got[1].tobytes() == want[1].tobytes(), (name, radius)
        assert nets["sparse-small"]._dist is None
        assert nets["sparse-large"]._dist is None

    def test_pairs_are_the_upper_triangle(self):
        dist = self.networks["dense"].distances
        for radius in self.radii():
            want = np.nonzero(np.triu(dist <= radius, k=1))
            for name, net in self.networks.items():
                ii, jj = net.pairs_within(radius)
                assert np.array_equal(ii, want[0]), (name, radius)
                assert np.array_equal(jj, want[1]), (name, radius)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_graph_edges_in_sorted_pair_order(self, backend):
        net = Network(self.COORDS, backend=backend)
        within = pairwise_distances(self.COORDS) <= net.params.comm_radius
        ii, jj = np.nonzero(np.triu(within, k=1))
        assert list(net.graph.edges()) == list(zip(ii.tolist(), jj.tolist()))

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("coords", [
        [[0.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [3.0, 0.0]],
        [[3.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
    ], ids=["single", "path", "isolated-last", "isolated-first"])
    def test_is_connected_agrees_with_networkx(self, backend, coords):
        net = Network(np.array(coords), backend=backend)
        connected = net.is_connected
        assert connected is nx.is_connected(net.graph)

    def test_ball_memoizes_no_radius(self):
        net = Network(self.COORDS, backend="sparse", cutoff=1.0)
        backend = net.sparse_backend
        memo = len(backend._adjacency)
        dist = pairwise_distances(self.COORDS)
        for center, radius in enumerate(np.linspace(0.0, 2.0, 50)):
            ball = net.ball(center, float(radius))
            assert np.array_equal(ball, np.flatnonzero(dist[center] <= radius))
        assert len(backend._adjacency) == memo


class TestBallRejectsInvalidQueries:
    """``ball`` answers only for a real station and a radius ``>= 0``.

    Unchecked, a center of ``-1`` named station ``n - 1`` on a dense
    network and a station that does not exist on a sparse one, and the
    two backends disagreed on a negative radius.
    """

    COORDS = np.array([[0.0, 0.0], [0.8, 0.0], [2.2, 0.0], [3.0, 0.0]])

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "center", [-1, 4, True, 1.0], ids=["negative", "n", "bool", "float"]
    )
    def test_center_outside_stations_rejected(self, backend, center):
        net = Network(self.COORDS, backend=backend)
        with pytest.raises(GeometryError, match="ball center"):
            net.ball(center, 1.0)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("radius", [-0.5, np.nan], ids=["negative", "nan"])
    def test_negative_radius_rejected(self, backend, radius):
        net = Network(self.COORDS, backend=backend)
        with pytest.raises(GeometryError, match="ball radius"):
            net.ball(1, radius)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_valid_queries_still_answer(self, backend):
        net = Network(self.COORDS, backend=backend)
        assert net.ball(np.int64(1), 1.0).tolist() == [0, 1]
        assert net.ball(1, 0.0).tolist() == [1]


class TestGraphQuestionsRejectNonStations:
    """Graph questions name stations by the rule ``ball`` applies.

    Unchecked, ``bfs_layers(True)`` answered ``[[True], [0, 2], [3]]``,
    ``eccentricity(True)`` and ``eccentricity(1.0)`` answered for
    station 1 and ``neighbors(-1)`` raised networkx's own error.
    """

    LINE = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [1.8, 0.0]])

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "question", ["eccentricity", "bfs_layers", "neighbors"]
    )
    @pytest.mark.parametrize(
        "v", [-1, 4, True, np.bool_(True), 1.0],
        ids=["negative", "n", "bool", "numpy-bool", "float"],
    )
    def test_non_station_rejected(self, backend, question, v):
        net = Network(self.LINE, backend=backend)
        with pytest.raises(GeometryError, match="station index"):
            getattr(net, question)(v)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_integer_stations_answer(self, backend):
        net = Network(self.LINE, backend=backend)
        assert net.eccentricity(np.int64(1)) == 2
        assert net.bfs_layers(np.int32(1)) == [[1], [0, 2], [3]]
        assert net.neighbors(np.int64(3)) == [2]


def _answer(question):
    """A graph question's answer, or ``"disconnected"`` if it raises so."""
    try:
        return question()
    except DisconnectedNetworkError:
        return "disconnected"


class TestGraphQuestionsMatchNetworkx:
    """Every CSR-walked graph question equals networkx's on ``net.graph``.

    The questions are asked first, on a fresh network: none of them may
    build the networkx view.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        dim=st.integers(1, 3),
        side=st.floats(0.3, 6.0),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    @example(seed=3, n=30, dim=2, side=1.5, backend="sparse")
    @example(seed=3, n=12, dim=2, side=6.0, backend="dense")
    def test_answers_equal_networkx(self, seed, n, dim, side, backend):
        coords = np.random.default_rng(seed).uniform(0, side, (n, dim))
        assume(n == 1 or pairwise_distances(coords)[
            ~np.eye(n, dtype=bool)
        ].min() > 1e-6)
        net = Network(coords, backend=backend)
        stations = range(n)
        got = {
            "connected": net.is_connected,
            "diameter": _answer(lambda: net.diameter),
            "eccentricity": [
                _answer(lambda v=v: net.eccentricity(v)) for v in stations
            ],
            "layers": [net.bfs_layers(v) for v in stations],
            "neighbors": [net.neighbors(v) for v in stations],
            "granularity": net.granularity,
        }
        assert net._graph is None

        graph = net.graph
        connected = nx.is_connected(graph)
        lengths = [net.distances[i, j] for i, j in graph.edges]
        assert got == {
            "connected": connected,
            "diameter": nx.diameter(graph) if connected else "disconnected",
            "eccentricity": [
                nx.eccentricity(graph, v=v) if connected else "disconnected"
                for v in stations
            ],
            "layers": [
                [sorted(layer) for layer in nx.bfs_layers(graph, v)]
                for v in stations
            ],
            "neighbors": [sorted(graph.neighbors(v)) for v in stations],
            "granularity": (
                max(lengths) / min(lengths) if lengths else 1.0
            ),
        }


class TestNonFiniteInputs:
    """NaN and inf never become station positions or a cutoff."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_constructor_rejects_non_finite_coords(self, backend, bad):
        coords = np.random.default_rng(1).uniform(0, 2.0, size=(20, 2))
        coords[7, 1] = bad
        with pytest.raises(DeploymentError, match="finite"):
            Network(coords, backend=backend)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_advance_rejects_non_finite_steps(self, backend, bad):
        coords = np.random.default_rng(2).uniform(0, 2.0, size=(20, 2))
        net = Network(coords, backend=backend)
        net.gain_operator  # built, so advance would patch incrementally
        disp = np.zeros_like(coords)
        disp[3, 0] = bad
        with pytest.raises(DeploymentError, match="finite"):
            net.advance(disp)

    def test_nan_cutoff_is_refused(self):
        from repro.geometry.metric import EuclideanMetric
        from repro.sinr.channel import default_channel
        from repro.sinr.sparse import SparseGainBackend, sparse_supported

        coords = np.random.default_rng(3).uniform(0, 2.0, size=(20, 2))
        params = SINRParameters.default()
        nan = float("nan")
        with pytest.raises(ProtocolError, match="cutoff"):
            SparseGainBackend(coords, params, cutoff=nan)
        with pytest.raises(ProtocolError, match="cutoff"):
            Network(coords, backend="sparse", cutoff=nan).gain_operator
        assert not sparse_supported(
            coords, params, EuclideanMetric(2), default_channel(), cutoff=nan
        )
