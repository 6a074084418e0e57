"""repro — SINR broadcast without geometry knowledge.

A production-quality reproduction of *"On the Impact of Geometry on Ad Hoc
Communication in Wireless Networks"* (Jurdzinski, Kowalski, Rozanski,
Stachowiak; PODC 2014): the ``StabilizeProbability`` network coloring, the
``NoSBroadcast`` / ``SBroadcast`` algorithms, the Sect. 5 applications
(wake-up, consensus, leader election), the baselines the paper compares
against, and an experiment harness validating every stated bound.

Quickstart::

    import numpy as np
    from repro import deploy, run_spont_broadcast

    rng = np.random.default_rng(7)
    net = deploy.uniform_square(n=128, side=3.0, rng=rng)
    outcome = run_spont_broadcast(net, source=0, rng=rng)
    print(outcome.success, outcome.completion_round)

See README.md for the architecture overview and docs/experiments.md for
the experiment catalog; ``python -m repro.experiments all --markdown
PATH`` writes the paper-vs-measured record.
"""

from repro import baselines, deploy, geometry, network, sim, sinr
from repro.core import (
    ColoringNode,
    ColoringResult,
    NoSBroadcastNode,
    ProtocolConstants,
    SBroadcastNode,
    coloring_report,
    lemma1_max_color_mass,
    lemma2_min_best_mass,
    run_adhoc_wakeup,
    run_coloring,
    run_consensus,
    run_leader_election,
    run_nospont_broadcast,
    run_spont_broadcast,
)
from repro.core.outcome import NEVER_INFORMED, BroadcastOutcome
from repro.errors import ReproError
from repro.network.network import Network
from repro.sinr.params import SINRParameters

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "deploy",
    "geometry",
    "network",
    "sim",
    "sinr",
    "Network",
    "SINRParameters",
    "ProtocolConstants",
    "ColoringNode",
    "ColoringResult",
    "NoSBroadcastNode",
    "SBroadcastNode",
    "BroadcastOutcome",
    "NEVER_INFORMED",
    "ReproError",
    "run_coloring",
    "coloring_report",
    "lemma1_max_color_mass",
    "lemma2_min_best_mass",
    "run_nospont_broadcast",
    "run_spont_broadcast",
    "run_adhoc_wakeup",
    "run_consensus",
    "run_leader_election",
    "__version__",
]
