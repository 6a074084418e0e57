"""Pinned outcomes of the reference (per-station) runners.

The per-station state machines in :mod:`repro.core` and
:mod:`repro.baselines` are what the fast kernels are cross-validated
against, so their bits are pinned here the way
``tests/test_kernel_differential.py`` pins the kernels': every runner's
whole outcome (round stamps, colors, extras, decided values) is hashed
with :func:`repro.fastsim.cache.digest` on two small deployments and
two seeds.  A rule the two implementations share (a budget, a transmit
probability, an outcome rule) cannot be rewritten without either
leaving these digests alone or failing here.

Each pin is checked on both kernel legs: the reference engine resolves
every round through the dense fold that :data:`repro.kernels.COMPILED`
picks, so the loop kernels must reproduce the numpy leg's outcomes.
"""

import numpy as np
import pytest

from repro import kernels
from repro.baselines import (
    run_decay_broadcast,
    run_local_broadcast_global,
    run_uniform_broadcast,
)
from repro.core.broadcast_nospont import run_nospont_broadcast
from repro.core.broadcast_spont import run_spont_broadcast
from repro.core.coloring import run_coloring
from repro.core.consensus import run_consensus
from repro.core.constants import ProtocolConstants
from repro.core.leader_election import run_leader_election
from repro.core.local_broadcast import run_local_broadcast
from repro.core.wakeup import run_adhoc_wakeup, run_colored_wakeup
from repro.deploy import uniform_chain, uniform_square
from repro.fastsim.cache import digest
from repro.sim.wakeup import WakeupSchedule

pytestmark = pytest.mark.compiled

CONSTANTS = ProtocolConstants.practical()
SEEDS = (1, 2)

DEPLOYMENTS = {
    "square": lambda: uniform_square(
        n=24, side=2.2, rng=np.random.default_rng(42)
    ),
    "chain": lambda: uniform_chain(10, gap=0.6),
}


def _wake_schedule(n: int) -> WakeupSchedule:
    # Two spontaneous wakers at different rounds; the rest wait.
    rounds = np.full(n, WakeupSchedule.NEVER)
    rounds[n - 1] = 0
    rounds[0] = 3
    return WakeupSchedule(rounds)


def _base_colors(net) -> np.ndarray:
    return run_coloring(net, CONSTANTS, np.random.default_rng(11)).colors


def _values(n: int) -> np.ndarray:
    return np.random.default_rng(5).integers(0, 4, size=n)


#: One reference run per name: ``(network, generator) -> outcome``.
RUNNERS = {
    "spont_broadcast": lambda net, rng: run_spont_broadcast(
        net, 0, CONSTANTS, rng
    ),
    "nospont_broadcast": lambda net, rng: run_nospont_broadcast(
        net, 0, CONSTANTS, rng
    ),
    "adhoc_wakeup": lambda net, rng: run_adhoc_wakeup(
        net, _wake_schedule(net.size), CONSTANTS, rng
    ),
    "colored_wakeup": lambda net, rng: run_colored_wakeup(
        net, [0, net.size - 1], _base_colors(net), CONSTANTS, rng
    ),
    "consensus": lambda net, rng: run_consensus(
        net, _values(net.size), 3, CONSTANTS, rng
    ),
    "leader_election": lambda net, rng: run_leader_election(
        net, CONSTANTS, rng
    ),
    "coloring": lambda net, rng: run_coloring(net, CONSTANTS, rng),
    "local_broadcast": lambda net, rng: run_local_broadcast(
        net, CONSTANTS, rng
    ),
    "uniform_broadcast": lambda net, rng: run_uniform_broadcast(
        net, 0, rng=rng
    ),
    "decay_broadcast": lambda net, rng: run_decay_broadcast(net, 0, rng),
    "local_broadcast_global": lambda net, rng: run_local_broadcast_global(
        net, 0, rng
    ),
}

#: ``digest([outcome at seed 1, outcome at seed 2])`` of each reference
#: runner, keyed ``(runner, deployment)``.
REFERENCE_DIGESTS = {
    ("adhoc_wakeup", "chain"):
        "c13faa4928d9b6165450ccd599af6af16805f783f3a3ee953e5084ca6e72e1d7",
    ("adhoc_wakeup", "square"):
        "f8dc8c2ff40ab4a24d2fd46ee80d269ca95ea7ebeed6732de6569945bc21595c",
    ("colored_wakeup", "chain"):
        "1e5080649bdc300a54ee345e6450d880dc120eb0ec7fa80bac832f46e76ca182",
    ("colored_wakeup", "square"):
        "4b5f8512cd535a1c92e6ef31f49fcc01db71c3ea6db92c81969597783eb1c43a",
    ("coloring", "chain"):
        "ee73760cd097ff6aa631c65c11faf642cd93292db488e90f12928d17efd72200",
    ("coloring", "square"):
        "afeff7f59d0fe88b70cd541238bd71175e775560a1fad60e2b398d9fb54e378e",
    ("consensus", "chain"):
        "79157e937b2dec25d1bc3cdfc328a7d0a2b22990026529f97631ac455ed34a6e",
    ("consensus", "square"):
        "69c53d8d27e7ab915add788b05614e44d1acd69a32c1c19bca3b55fb9d6f8a9a",
    ("decay_broadcast", "chain"):
        "77607869e6df5006e37df543461f22f3efab96495b8df7561b824ed766a1ef3f",
    ("decay_broadcast", "square"):
        "f9bc929388b0b37f7aad8048f246c56c4ab9f425049e7a7ce79d53b6a7698b44",
    ("leader_election", "chain"):
        "ffa57ed3247428fe57ee89f6373a0dcbc5a9d8e526a2e7e5b8258557fb387285",
    ("leader_election", "square"):
        "a9700efc7ba999c290784645217149ffc15936868c311278ec81bc001a1aedff",
    ("local_broadcast", "chain"):
        "13c48376707fe995d23618c46a31f6839304520c017ab0bb49ff91f2a7ac8a0d",
    ("local_broadcast", "square"):
        "1a43bb33067c3671c9fcc03ecddfa5a51bd82bb6765d8f27c71d0a8fba5afb3e",
    ("local_broadcast_global", "chain"):
        "5299ce8082ecc11ae816d9108e1a136956019474a639caa9ce576bfb1fe63248",
    ("local_broadcast_global", "square"):
        "fe82467eedf58687713fef88f264a2cd42b0aae58289eb8506323d17168bde07",
    ("nospont_broadcast", "chain"):
        "00242a3dc6f3991c83f8220bf4f1f65ba165710098829c4cfa4923f6ded08a71",
    ("nospont_broadcast", "square"):
        "a1a3be5e8bfcc05e1fab3957f5cd955e44122cdab2cb9010a1e172aed73fe865",
    ("spont_broadcast", "chain"):
        "e7ed541dd13d2e9deb9e596fbdb15021b09339c3bf8bbd046808ee6701fdbf2a",
    ("spont_broadcast", "square"):
        "43b6301b55db4a6bd54859e2b12078b809fc0513b0b9b86942db2a51ff63a8be",
    ("uniform_broadcast", "chain"):
        "8b1be6b34ec9a854c14bfab5bca07a4f573d89c28764890ecf01fe5ceda5ad08",
    ("uniform_broadcast", "square"):
        "5a3c0c3aae5061e6a56443943f998fcb23a97ef872cc8ee01ce578146132477b",
}


def _legs(fn):
    """``[fn() on the numpy path, fn() on the loop kernels]``."""
    results = []
    for compiled in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "COMPILED", compiled)
            results.append(fn())
    return results


def reference_digest(runner: str, deployment: str) -> str:
    """Digest of ``runner``'s outcomes on ``deployment`` at both seeds."""
    net = DEPLOYMENTS[deployment]()
    return digest([
        RUNNERS[runner](net, np.random.default_rng(seed)) for seed in SEEDS
    ])


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_reference_outcomes_pinned(runner, deployment):
    assert _legs(lambda: reference_digest(runner, deployment)) == [
        REFERENCE_DIGESTS[runner, deployment]
    ] * 2
