"""Pinned identities of every seeded model family.

A model's ``identity()`` tuple is what keeps its results apart from
another model's in the result cache (DESIGN.md §2.1, §7.3, §11.4): it
reaches every grid point key through ``fingerprint()`` (MAC, mobility,
rate table, arrivals, flows in the sweep kwargs) or through
``Network.fingerprint()`` (channels).  The values below were recorded
before the families shared one base class, so a refactor of how
``repr``, equality, hashing and ``fingerprint()`` are derived must
leave every one of them as it is.

``hash()`` is deliberately not pinned: on Python 3.11 ``hash(None)``
varies per process, and several tuples carry ``None``.
"""

import hashlib
import inspect

import numpy as np
import pytest

from repro.deploy import BrownianDrift, GroupDrift, RandomWaypoint
from repro.errors import DeploymentError, ProtocolError, SimulationError
from repro.fastsim.cache import digest, point_key
from repro.mac import CSMA, RateTable, SlottedAloha, TdmaFromColoring
from repro.network.network import Network
from repro.sinr.channel import (
    DualSlope,
    LogNormalShadowing,
    ObstacleMask,
    UniformPower,
    rectangle,
)
from repro.traffic import CBR, Flow, OnOff, Poisson

TRIANGLE = np.array([[1.2, 0.2], [1.6, 0.3], [1.4, 0.8]])

#: One instance per concrete model, knobs off their defaults where the
#: model has any; obstacle masks and mobility boxes included.
CHANNELS = {
    "uniform-power": lambda: UniformPower(),
    "log-normal": lambda: LogNormalShadowing(sigma_db=6.5, seed=11),
    "dual-slope": lambda: DualSlope(breakpoint=0.8, alpha_far=4.5),
    "obstacle-mask": lambda: ObstacleMask(
        [rectangle(0.9, 0.0, 1.1, 1.4), TRIANGLE],
        attenuation_db=12.0,
        base=DualSlope(breakpoint=0.7),
    ),
}

MODELS = {
    "slotted-aloha": ("mac", lambda: SlottedAloha(p=0.4, seed=5)),
    "csma-derived": ("mac", lambda: CSMA(
        sense_threshold=0.25, cw=16, persist=0.75, seed=3,
    )),
    "csma-explicit": ("mac", lambda: CSMA(1.7, cw=4, seed=12)),
    "tdma": ("mac", lambda: TdmaFromColoring(
        interference_scale=2.5, seed=9,
    )),
    "rate-table": ("rate_table", lambda: RateTable(
        thresholds=(1.5, 3.0), rates=(2, 5),
    )),
    "brownian-box": ("mobility", lambda: BrownianDrift(
        0.05, move_prob=0.3, seed=4, box=((0.0, 0.0), (2.0, 1.0)),
    )),
    "brownian": ("mobility", lambda: BrownianDrift(0.2, seed=1)),
    "waypoint": ("mobility", lambda: RandomWaypoint(
        0.1, pause=3, seed=6, box=(0.0, 1.5),
    )),
    "group-drift": ("mobility", lambda: GroupDrift(
        0.02, n_groups=4, redraw_every=8, seed=8,
    )),
    "poisson": ("arrivals", lambda: Poisson(0.25)),
    "cbr": ("arrivals", lambda: CBR(1.5)),
    "on-off": ("arrivals", lambda: OnOff(
        0.5, p_on=0.2, p_off=0.3, start_on=False,
    )),
    "flow": ("flows", lambda: Flow(3, 7, OnOff(2.0, p_on=0.4))),
}

INSTANCES = {
    **CHANNELS, **{name: make for name, (_, make) in MODELS.items()},
}

# ---------------------------------------------------------------------------
# recorded values
# ---------------------------------------------------------------------------
REPRS = {
    "brownian": "BrownianDrift('brownian-drift', 0.2, 1.0, None, 1)",
    "brownian-box":
        "BrownianDrift('brownian-drift', 0.05, 0.3, ((0.0, 0.0), (2.0, "
        "1.0)), 4)",
    "cbr": "CBR('cbr', 1.5)",
    "csma-derived": "CSMA('csma', None, 0.25, 16, 0.75, 3)",
    "csma-explicit": "CSMA('csma', 1.7, None, 4, 1.0, 12)",
    "dual-slope": "DualSlope('dual-slope', 0.8, 4.5)",
    "flow":
        "Flow(src=3, dst=7, arrivals=OnOff('on-off', 2.0, 0.4, 0.1, True))",
    "group-drift": "GroupDrift('group-drift', 0.02, 4, 8, None, 8)",
    "log-normal": "LogNormalShadowing('log-normal-shadowing', 6.5, 11)",
    "obstacle-mask":
        "ObstacleMask('obstacle-mask', 12.0, 2, "
        "'bbd473b1e3fe606f355f6e85b6ce617bb07b0cd9fd44012c6762b9c575e8cd7b', "
        "('dual-slope', 0.7, None))",
    "on-off": "OnOff('on-off', 0.5, 0.2, 0.3, False)",
    "poisson": "Poisson('poisson', 0.25)",
    "rate-table": "RateTable('rate-table', (1.5, 3.0), (2, 5))",
    "slotted-aloha": "SlottedAloha('slotted-aloha', 0.4, 5)",
    "tdma": "TdmaFromColoring('tdma-coloring', 2.5, 9)",
    "uniform-power": "UniformPower('uniform-power',)",
    "waypoint":
        "RandomWaypoint('random-waypoint', 0.1, 3, ((0.0,), (1.5,)), 6)",
}

IDENTITIES = {
    "brownian": ("brownian-drift", 0.2, 1.0, None, 1),
    "brownian-box": ("brownian-drift", 0.05, 0.3, ((0.0, 0.0), (2.0, 1.0)), 4),
    "cbr": ("cbr", 1.5),
    "csma-derived": ("csma", None, 0.25, 16, 0.75, 3),
    "csma-explicit": ("csma", 1.7, None, 4, 1.0, 12),
    "dual-slope": ("dual-slope", 0.8, 4.5),
    "flow": ("flow", 3, 7, ("on-off", 2.0, 0.4, 0.1, True)),
    "group-drift": ("group-drift", 0.02, 4, 8, None, 8),
    "log-normal": ("log-normal-shadowing", 6.5, 11),
    "obstacle-mask": (
        "obstacle-mask", 12.0, 2,
        "bbd473b1e3fe606f355f6e85b6ce617bb07b0cd9fd44012c6762b9c575e8cd7b",
        ("dual-slope", 0.7, None),
    ),
    "on-off": ("on-off", 0.5, 0.2, 0.3, False),
    "poisson": ("poisson", 0.25),
    "rate-table": ("rate-table", (1.5, 3.0), (2, 5)),
    "slotted-aloha": ("slotted-aloha", 0.4, 5),
    "tdma": ("tdma-coloring", 2.5, 9),
    "uniform-power": ("uniform-power",),
    "waypoint": ("random-waypoint", 0.1, 3, ((0.0,), (1.5,)), 6),
}

FINGERPRINTS = {
    "brownian":
        "2290514b1a153c50f6171d7d0eb01fe30620b0855aa26d727399a8b9a3399ce9",
    "brownian-box":
        "e0ac0653ae63a1c3e4320b4211b25896c668fbaf7554e7aa8542b8cc2d7b083b",
    "cbr": "af297fa3bef3f21626a39b97265fd52e4d8be16a715f3a9fdff0c17b6a471027",
    "csma-derived":
        "1825387e9ef9d9326f8462ed6474de5c8adc8075dfe703a1d280bf9222378275",
    "csma-explicit":
        "d49a3f31ad03e48005570bf5911818a9ac4aa87b717eca64babba35d07abad2c",
    "dual-slope":
        "5df9d86469363ab5509a6e0c98687f9ce3c55384b5390a0d4c9aec2a2c15e593",
    "flow": "370a97c6964537490a417e03389d4b6096c3f1c37c07bcebc622accaf66c2f80",
    "group-drift":
        "2ebabde5da47dd42ac3482e10ba89e3781e3ab5309fa4d21ddfd6ad7be90b815",
    "log-normal":
        "7706bb5f30a7a54d48108d564cc4e8d9870df7f82e521e8da2591c28fb1718a7",
    "obstacle-mask":
        "b0ee783aa451314e5cea75eb54fec727a9e3a1ed65853f7d1e3f92f81bb6d34c",
    "on-off":
        "3e842063e929ca5258fa7c6e1cd8310c40f36e3d4f2c91bdfaf354da0a6f8019",
    "poisson":
        "23701aaa5bc8a84cdf1a230b1669cc2fe9860824bebca5c47ad929681a8db8d4",
    "rate-table":
        "ecd245bfd90a49d78d2c5894f79cd1795f9a5a151d0d12ea9fa9062eb96e3112",
    "slotted-aloha":
        "54a1b81d6bb8bf79e359670c577ab060c9ce5f514b64775e41a7d889866cc850",
    "tdma": "09b031af8aa746bdd17a519fea1fe7522e16fe896629e3979b27c28e7fca6d70",
    "uniform-power":
        "2b0c9f6d5259266ec723d7603c81499976ade2c0e4c62bb14241940251de7663",
    "waypoint":
        "6287c7a2a916697e3e0beaebe268362166db560afed3fc2827eff39ad1989059",
}

#: ``repro.fastsim.cache.digest(model)``, families that had
#: ``fingerprint()`` before the shared base only.
DIGESTS = {
    "brownian":
        "4cbbefead3e495e4b7b44123655f6f7afab3deef32c46cb7edc9b8cbaa3aa930",
    "brownian-box":
        "b2bc8005fcc440d74ad0d13bc36631bc9ef0db77b6e04943ca2a4b991186d53d",
    "cbr": "3368d654aad15da824a5fc971d9c194fab01d8bbfb5f9a7e703f86f48a16837d",
    "csma-derived":
        "3c450ef9dc42946eea564243ffc5ad0652f230fabb91b1b7d2646009a9f56b57",
    "csma-explicit":
        "3fef443babd8cee3fdde2d2d0db6c152f7ef4b151407ea3fe538a729242da146",
    "flow": "a36356352b4a031be836b96286ba2eec0d03a00d19d997143c96bf7d4ed233ce",
    "group-drift":
        "0ebd2df3a0769febe86c69bfce4f57fdfd969433b2f6df735b6c9eca292cce22",
    "on-off":
        "88f4e0fb3ebd244c1fc12ab3895100cd601362f86167ebbfd01ab2877fc7d134",
    "poisson":
        "a018766432b47cfad4129c72557d9725e419c98cabac1905f6ec779b77654dd3",
    "rate-table":
        "7919e31666a5c70d02ac2dba3bc46475cf557f7bf02ea5145842ba3172ae4615",
    "slotted-aloha":
        "08ab3f452bfb5653b0d73d6e9ffb9099cfadb3282c8c56899b6fa2ef76b8dd50",
    "tdma": "6c99c7b912fa27f4886fc563c1eb05ef6f704d569e5b7d8268750c8cbc9d08b8",
    "waypoint":
        "7296bc31c7f98eb1d1324bb9ee5ba46b8d2635a5f8c2956d5db33c932894e201",
}

#: ``point_key`` of a point carrying the model in its kwargs.
POINT_KEYS = {
    "brownian":
        "e503fd89d428bb501174ae1f66fc4a156cd0268d82cafcb2af76ed9e6b3c3811",
    "brownian-box":
        "87a2e713facb813d86f20ce9b59a0f56624cc8e9aa1643c4ed88b28d8a9fd1e9",
    "cbr": "a5c9632fc64b933c055547dc9f9110f268c3c3ad66c6ed1fcf09c595c45c066b",
    "csma-derived":
        "ea35f3233ca329db6523d0e087e933aa31957c24777798d1b9c51795c1ac54cf",
    "csma-explicit":
        "c3df726c96cd3ca6a9ee3934c68ad9b24ed2abd7e15dec512208895902401f2d",
    "flow": "14b189d2e70cca99e2b6de24362a8a3ad09b36016089fb691b46f94b23680dd5",
    "group-drift":
        "277064e23661289e30e4596ce2d0528a0a94e51debfc4acf006019fe906b8a23",
    "on-off":
        "72c037c7e5d4047023e3e9c393e2501f362d9d8f198836bdd4639bc3d526afe2",
    "poisson":
        "32cea722c9a4cd5f07c45de3ec1aad04919d5d38912ace21b1363f7e56771b94",
    "rate-table":
        "7c9ef6072099e95d5d567dd551c9a7cee8421dca20c4cd68088f11d92e38453a",
    "slotted-aloha":
        "0aaeb303de7497a038208948eb8cd01e5c4cce02a32977e120ee8987d55a17de",
    "tdma": "6a988a0f5023659b089d04f002c6976f8bf46d83d00684964ce0f0bbafa1a87f",
    "waypoint":
        "695a8fffacb9ee6ce87affb34aaeef3a39340a95d40d6e4288c14668e8906949",
}

#: ``Network.fingerprint()`` of one deployment under each channel.
NETWORK_FINGERPRINTS = {
    "dual-slope":
        "94e2abf39e4bee490dd221c67c562a2043acbc75edfbbf19787e61bec525f901",
    "log-normal":
        "0c0b053e013fe2e7af1b73f0472d6b9f12983a3e7dcacb7bd5ea5a6548d96ff2",
    "obstacle-mask":
        "3a3fe945eb8627b457e2c345179c99e1ef7fa800e812477a0d857ec11f4c2133",
    "uniform-power":
        "a665a5115f329e67cf28577df557921302bab62efd49f42d81d25e1ab689b563",
}


def _point_key(name: str) -> str:
    family, make = MODELS[name]
    model = make()
    value = [model] if family == "flows" else model
    return point_key(
        "spont_broadcast", "0" * 64, None, 7, 2,
        {"source": 0, family: value},
    )


def _network(channel) -> Network:
    coords = np.random.default_rng(30).uniform(0.0, 2.0, size=(12, 2))
    return Network(coords, channel=channel, name="identity-pin")


@pytest.mark.parametrize("name", sorted(INSTANCES))
class TestPinnedIdentity:
    def test_repr(self, name):
        assert repr(INSTANCES[name]()) == REPRS[name]

    def test_identity(self, name):
        assert INSTANCES[name]().identity() == IDENTITIES[name]
        assert repr(INSTANCES[name]().identity()) == repr(IDENTITIES[name])

    def test_fingerprint(self, name):
        model = INSTANCES[name]()
        assert model.fingerprint() == FINGERPRINTS[name]
        assert FINGERPRINTS[name] == hashlib.sha256(
            repr(model.identity()).encode()
        ).hexdigest()


@pytest.mark.parametrize("name", sorted(MODELS))
class TestPinnedCacheKeys:
    def test_digest(self, name):
        assert digest(MODELS[name][1]()) == DIGESTS[name]

    def test_point_key(self, name):
        assert _point_key(name) == POINT_KEYS[name]


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_network_fingerprint(name):
    net = _network(CHANNELS[name]())
    assert net.fingerprint() == NETWORK_FINGERPRINTS[name]


# ---------------------------------------------------------------------------
# the shared contract
# ---------------------------------------------------------------------------
def _concrete_models() -> set:
    """Every non-abstract class deriving from the shared base."""
    from repro.identity import Identified

    found, stack = set(), [Identified]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if not inspect.isabstract(sub) and sub.__module__.startswith(
                "repro."
            ):
                found.add(sub)
    return found


class TestIdentifiedContract:
    def test_every_concrete_model_is_pinned(self):
        pinned = {type(make()) for make in INSTANCES.values()}
        assert pinned == _concrete_models()

    def test_kind_strings_are_distinct(self):
        kinds = {}
        for make in INSTANCES.values():
            model = make()
            kinds.setdefault(model.identity()[0], set()).add(type(model))
        assert all(len(classes) == 1 for classes in kinds.values())
        assert len(kinds) == len(_concrete_models())

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_equal_identity_is_equal_and_hash_equal(self, name):
        a, b = INSTANCES[name](), INSTANCES[name]()
        assert a is not b and a.identity() == b.identity()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_repr_starts_with_the_class_name(self, name):
        model = INSTANCES[name]()
        assert repr(model).startswith(type(model).__name__ + "(")

    def test_models_of_different_kinds_differ(self):
        models = [make() for make in INSTANCES.values()]
        for i, a in enumerate(models):
            for b in models[i + 1:]:
                assert a != b


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------
#: The seeded families and the error each raises for a bad seed.
SEEDED = {
    "log-normal": (
        lambda seed: LogNormalShadowing(seed=seed), SimulationError,
    ),
    "slotted-aloha": (
        lambda seed: SlottedAloha(p=0.5, seed=seed), ProtocolError,
    ),
    "csma": (lambda seed: CSMA(seed=seed), ProtocolError),
    "tdma": (lambda seed: TdmaFromColoring(seed=seed), ProtocolError),
    "brownian": (lambda seed: BrownianDrift(0.1, seed=seed), DeploymentError),
    "waypoint": (lambda seed: RandomWaypoint(0.1, seed=seed), DeploymentError),
    "group-drift": (lambda seed: GroupDrift(0.1, seed=seed), DeploymentError),
}


@pytest.mark.parametrize("family", sorted(SEEDED))
class TestSeeds:
    @pytest.mark.parametrize(
        "seed", [-1, 1.9, np.float64(2.0), True, "7", None],
        ids=["negative", "fraction", "float", "bool", "string", "none"],
    )
    def test_bad_seed_refused_at_construction(self, family, seed):
        # A negative seed used to construct and then fail at the first
        # generator numpy built mid-run; 1.9 and True ran as seed 1.
        make, error = SEEDED[family]
        with pytest.raises(error, match="non-negative integer"):
            make(seed)

    def test_numpy_integer_seed_is_stored_as_int(self, family):
        make, _ = SEEDED[family]
        model = make(np.int64(3))
        assert type(model.seed) is int
        assert model.fingerprint() == make(3).fingerprint()
        assert "np.int64" not in repr(model)
