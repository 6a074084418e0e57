"""Property-based tests for the batched sweep engine.

The exact-equality contract (DESIGN.md §6): for *any* small network,
batch size and master seed, every sweep kind's batched run equals a
Python loop that calls the same kernel with one generator and a fresh
medium per replication — bitwise, not statistically.  Replication
independence is what the property exercises: any state leaking across
the batch axis (shared counters, wrong masking, cross-replication
reductions that reassociate floating-point sums) breaks it immediately.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constants import ProtocolConstants
from repro.fastsim import run_sweep, spawn_rngs, sweep_kinds
from repro.fastsim.engine import Medium
from repro.fastsim.sweep import SWEEP_KINDS
from repro.network.network import Network
from repro.sim.wakeup import WakeupSchedule
from repro.sinr.channel import DualSlope, LogNormalShadowing

CONSTANTS = ProtocolConstants.practical()

#: Every kind whose batch is a vectorized kernel; the traffic engine's
#: batch is itself a loop of single runs.
KERNEL_KINDS = [kind for kind in sweep_kinds() if kind != "traffic"]


@st.composite
def small_network(draw):
    """A random connected-ish network of 2-8 distinct stations."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    # Chain backbone with jitter guarantees distinctness and connectivity.
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    ys = rng.uniform(-0.1, 0.1, size=n)
    return Network(np.column_stack([xs, ys]))


@st.composite
def off_ideal_network(draw):
    """A 2D or 3D chain-backbone network under a non-uniform channel.

    The batched-equals-sequential property must not depend on the gain
    matrix being the idealized ``P d^-alpha`` — the kernels only ever see
    ``net.gains`` — nor on the deployment being planar.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    columns = [xs, rng.uniform(-0.1, 0.1, size=n)]
    if draw(st.booleans()):
        columns.append(rng.uniform(-0.1, 0.1, size=n))  # 3D deployment
    channel = draw(
        st.sampled_from(
            [
                LogNormalShadowing(
                    sigma_db=draw(st.floats(0.5, 6.0)),
                    seed=draw(st.integers(0, 2 ** 10)),
                ),
                DualSlope(breakpoint=draw(st.floats(0.3, 1.5))),
            ]
        )
    )
    return Network(np.column_stack(columns), channel=channel)


def kind_kwargs(kind, n, data):
    """The kind's protocol arguments; ``q`` and ``x_max`` are drawn."""
    if kind == "uniform_broadcast":
        return {"source": 0, "q": data.draw(st.floats(0.05, 1.0))}
    if kind == "consensus":
        return {"x_max": data.draw(st.sampled_from([1, 3, 7]))}
    if kind == "adhoc_wakeup":
        wake = data.draw(
            st.lists(st.integers(-1, 30), min_size=n, max_size=n)
        )
        wake[0] = max(wake[0], 0)  # someone wakes spontaneously
        return {"schedule": WakeupSchedule(np.array(wake))}
    if kind == "colored_wakeup":
        return {"initiators": [0], "base_colors": np.full(n, 0.05)}
    if kind in ("coloring", "leader_election"):
        return {}
    return {"source": 0}


def assert_bitwise_equal(a, b):
    """Field-by-field equality of two results; arrays compare by bytes."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_bitwise_equal(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


class TestSweepExactEquality:
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize(
        "networks", [small_network(), off_ideal_network()],
        ids=["ideal", "off_ideal"],
    )
    @given(
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_batch_equals_loop(self, kind, networks, batch, seed, data):
        net = data.draw(networks)
        kwargs = kind_kwargs(kind, net.size, data)
        sweep = run_sweep(kind, net, batch, seed, CONSTANTS, **kwargs)
        assert len(sweep.outcomes) == batch
        for out, rng in zip(sweep.outcomes, spawn_rngs(batch, seed)):
            single = SWEEP_KINDS[kind].batch(
                net, CONSTANTS, [rng], medium=Medium(net), **kwargs
            )[0]
            assert_bitwise_equal(out, single)
