"""Vectorized re-implementations of the protocols for large sweeps.

The reference implementation (:mod:`repro.sim` + :mod:`repro.core`) keeps
per-station state machines for fidelity and readability; this package
re-implements the same protocols on flat numpy arrays, trading the object
model for an order of magnitude in speed.  Both share
:class:`repro.core.constants.ColoringSchedule` for all round arithmetic,
so their phase structures are identical by construction; integration tests
cross-validate their outputs statistically (colorings satisfying the same
mass bounds, broadcasts/wake-ups/consensus completing in comparable
rounds with identical safety properties).

Every protocol has one entry point, a batched kernel (``*_batch``:
``fast_coloring_batch``, ``fast_spont_broadcast_batch``,
``fast_adhoc_wakeup_batch``, ``fast_consensus_batch``,
``fast_leader_election_batch``, ...) that runs ``B`` independent
seed-spawned replications in one set of numpy operations.  A single run
is the call with a one-element generator list, so batched sweeps through
:func:`repro.fastsim.sweep.run_sweep` reproduce a sequential replication
loop sample for sample (DESIGN.md §6 states the contract).

One intentional simplification: during a *global* coloring stage the
reference implementation lets any reception from an informed station carry
the broadcast payload.  The fast implementations track the same effect via
an explicit ``informed`` mask (receivers of informed senders become
informed), so message spread during coloring matches the reference
semantics exactly.
"""

from repro.fastsim.coloring import (
    FastColoringBatch,
    FastColoringResult,
    fast_coloring_batch,
)
from repro.fastsim.broadcast import (
    fast_decay_broadcast_batch,
    fast_local_broadcast_global_batch,
    fast_nospont_broadcast_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
)
from repro.fastsim.wakeup import (
    fast_adhoc_wakeup_batch,
    fast_colored_wakeup_batch,
)
from repro.fastsim.consensus import fast_consensus_batch
from repro.fastsim.leader import fast_leader_election_batch
from repro.fastsim.engine import spawn_rngs
from repro.fastsim.sweep import SweepResult, run_sweep, sweep_kinds
from repro.fastsim.cache import ResultCache, point_key
from repro.fastsim.grid import (
    Derived,
    GridOptions,
    GridPoint,
    GridPointResult,
    GridSpec,
    get_default_grid_options,
    last_grid_stats,
    run_grid,
    set_default_grid_options,
)

__all__ = [
    "Derived",
    "FastColoringBatch",
    "FastColoringResult",
    "GridOptions",
    "GridPoint",
    "GridPointResult",
    "GridSpec",
    "ResultCache",
    "SweepResult",
    "fast_adhoc_wakeup_batch",
    "fast_coloring_batch",
    "fast_colored_wakeup_batch",
    "fast_consensus_batch",
    "fast_decay_broadcast_batch",
    "fast_leader_election_batch",
    "fast_local_broadcast_global_batch",
    "fast_nospont_broadcast_batch",
    "fast_spont_broadcast_batch",
    "fast_uniform_broadcast_batch",
    "get_default_grid_options",
    "last_grid_stats",
    "point_key",
    "run_grid",
    "run_sweep",
    "set_default_grid_options",
    "spawn_rngs",
    "sweep_kinds",
]
