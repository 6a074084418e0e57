"""Micro-benchmarks of the simulation substrate.

Not tied to a paper claim — these track the performance of the primitives
every experiment is built on (gain matrices, reception resolution, whole
engine rounds), so regressions in the substrate are visible separately
from protocol-level changes.
"""

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim import fast_coloring_batch
from repro.sinr.gain import gain_matrix
from repro.sinr.reception import resolve_reception


@pytest.fixture(scope="module")
def medium_net():
    return uniform_square(n=256, side=4.0, rng=np.random.default_rng(1))


def test_gain_matrix_256(benchmark, medium_net):
    dist = medium_net.distances
    result = benchmark(
        gain_matrix, dist, medium_net.params.power, medium_net.params.alpha
    )
    assert result.shape == (256, 256)


def test_reception_resolution_256(benchmark, medium_net):
    gains = medium_net.gains
    rng = np.random.default_rng(2)
    tx = np.flatnonzero(rng.random(256) < 0.1)

    heard = benchmark(
        resolve_reception, gains, tx, medium_net.params.noise,
        medium_net.params.beta,
    )
    assert heard.shape == (256,)


def test_engine_round_64(benchmark):
    from repro.sim.engine import Simulator
    from repro.sim.node import NodeAlgorithm

    class Gossip(NodeAlgorithm):
        def transmission(self, round_no):
            return 0.05, "x"

        def end_round(self, reception):
            pass

    net = uniform_square(n=64, side=3.0, rng=np.random.default_rng(3))
    sim = Simulator(
        net, [Gossip(i) for i in range(64)], np.random.default_rng(4)
    )
    benchmark(sim.step)


def test_fast_coloring_128(benchmark):
    net = uniform_square(n=128, side=3.0, rng=np.random.default_rng(5))
    constants = ProtocolConstants.practical()

    result = benchmark.pedantic(
        lambda: fast_coloring_batch(
            net, constants, [np.random.default_rng(6)]
        ),
        rounds=1, iterations=1,
    )
    assert result.rounds == constants.coloring_total_rounds(128)
