"""Cross-environment cache replay probe for the kernel implementations.

The platform picks the kernels (:data:`repro.kernels.COMPILED`: the
numba-jitted loops where numba imports, numpy elsewhere), so CI's two
kernel legs — numba installed, numba absent — run this script against
one shared cache directory: the first leg ``write``s a small
deterministic grid sweep with the compiled kernels, the second leg must
``replay`` it from cache on numpy without recomputing.  A recompute on
the second leg means the cache key or the network fingerprint started
depending on which kernels ran — exactly the regression DESIGN.md §2.3
forbids (compiled and numpy kernels are bitwise identical, so their
runs must share entries).  The second point carries a mobility and a
MAC model in its kwargs, so the replay also shows that keys built from
model fingerprints (``identity()``, DESIGN.md §2.1) are the same in
both environments.

Usage::

    PYTHONPATH=src python tools/kernel_cache_probe.py write  CACHE_DIR
    PYTHONPATH=src python tools/kernel_cache_probe.py replay CACHE_DIR
"""

import sys

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.deploy import BrownianDrift
from repro.fastsim.grid import GridPoint, GridSpec, run_grid
from repro.mac import CSMA
from repro.network.network import Network


def _spec() -> GridSpec:
    """Two deterministic grid points, identical in every environment:
    a bare one and one under a mobility and a MAC model."""
    coords = np.random.default_rng(2014).uniform(0, 1.5, size=(16, 2))
    models = {
        "mobility": BrownianDrift(0.02, move_prob=0.25, seed=3),
        "mac": CSMA(cw=4, seed=5),
    }
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng: Network(coords, name="kernel-probe"),
            n_replications=2,
            label=label,
            constants=ProtocolConstants.practical(),
            kwargs={"source": 0, **extra},
        )
        for label, extra in (
            ("kernel-probe", {}), ("kernel-probe-models", models),
        )
    ]
    return GridSpec(points=points, seed=7, name="kernel-probe")


def main(argv: list) -> int:
    """Run the probe; return a process exit code."""
    if len(argv) != 3 or argv[1] not in ("write", "replay"):
        print(__doc__)
        return 2
    mode, cache_dir = argv[1], argv[2]
    for result in run_grid(_spec(), jobs=1, cache_dir=cache_dir):
        label = result.point.label
        if not bool(result.sweep.success.all()):
            print(f"{label} sweep failed; probe inputs are miscalibrated")
            return 1
        if mode == "replay" and not result.cached:
            print(
                f"{label} RECOMPUTED: the cache key depends on the kernel "
                "environment (numba present/absent), violating DESIGN.md "
                "§2.3"
            )
            return 1
        state = "replayed from cache" if result.cached else "computed"
        print(f"{label} {state} ({mode} leg, cache={cache_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
