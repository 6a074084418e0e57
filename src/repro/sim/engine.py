"""The synchronous round engine.

Per round the engine:

1. collects each node's ``(probability, payload)`` intent;
2. draws all transmission Bernoullis in one vectorized call;
3. resolves reception with the SINR rule (:mod:`repro.sinr.reception`);
4. delivers a :class:`~repro.sim.messages.Reception` to every node.

Rounds are the paper's synchronous time steps; the engine's round counter
plays the role of the global clock that the protocols reconstruct from
round counters attached to messages (see DESIGN.md §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.network.network import Network
from repro.sim.messages import Message, Reception
from repro.sim.node import NodeAlgorithm
from repro.sim.trace import TraceRecorder
from repro.sinr.reception import NO_SENDER, resolve_reception


@dataclass
class RunResult:
    """Outcome of a simulation run.

    :param rounds: number of rounds executed.
    :param stopped_early: whether the stop condition fired before the
        round budget was exhausted.
    :param stats: free-form counters filled in by drivers (e.g. the round
        at which each station was informed).
    """

    rounds: int
    stopped_early: bool
    stats: dict = field(default_factory=dict)


class Simulator:
    """Drives a set of :class:`NodeAlgorithm` instances over a network.

    :param network: the deployed network (provides the gain matrix).
    :param nodes: one node per station, ``nodes[i].index == i``.
    :param rng: randomness source for the transmission draws.  One shared
        generator is faithful to the model: stations' coins are
        independent Bernoullis, and a single stream sampling the whole
        vector preserves exactly that joint distribution.
    :param trace: optional :class:`TraceRecorder` capturing per-round data.
    """

    def __init__(
        self,
        network: Network,
        nodes: Sequence[NodeAlgorithm],
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
    ):
        if len(nodes) != network.size:
            raise SimulationError(
                f"need exactly one node per station: network has "
                f"{network.size}, got {len(nodes)} nodes"
            )
        for i, node in enumerate(nodes):
            if node.index != i:
                raise SimulationError(
                    f"node at position {i} reports index {node.index}"
                )
        self.network = network
        self.nodes = list(nodes)
        self.rng = rng
        self.trace = trace
        self.round_no = 0
        self._probs = np.zeros(network.size)

    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Execute one synchronous round.

        :returns: the per-station sender array (``NO_SENDER`` where a
            station heard nothing) — mostly useful to tests.
        """
        n = self.network.size
        probs = self._probs
        payloads: list = [None] * n
        for i, node in enumerate(self.nodes):
            prob, payload = node.transmission(self.round_no)
            if not 0.0 <= prob <= 1.0:
                raise SimulationError(
                    f"node {i} returned transmission probability {prob} "
                    f"outside [0, 1] in round {self.round_no}"
                )
            probs[i] = prob
            payloads[i] = payload

        draws = self.rng.random(n)
        tx_mask = draws < probs
        transmitters = np.flatnonzero(tx_mask)

        heard_from = resolve_reception(
            self.network.gains,
            transmitters,
            self.network.params.noise,
            self.network.params.beta,
        )

        if self.trace is not None:
            self.trace.record(self.round_no, transmitters, heard_from)

        for i, node in enumerate(self.nodes):
            sender = int(heard_from[i])
            message = None
            if sender != NO_SENDER:
                message = Message(sender=sender, payload=payloads[sender])
            node.end_round(
                Reception(
                    round_no=self.round_no,
                    transmitted=bool(tx_mask[i]),
                    message=message,
                )
            )
        self.round_no += 1
        return heard_from

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        stop: Optional[Callable[["Simulator"], bool]] = None,
        check_every: int = 1,
    ) -> RunResult:
        """Run until ``stop`` fires or ``max_rounds`` rounds elapse.

        :param max_rounds: hard round budget (counted from now).
        :param stop: predicate evaluated every ``check_every`` rounds on
            the simulator; return ``True`` to stop.
        :param check_every: stop-condition evaluation period (checking
            costs a pass over nodes, so drivers may thin it out).
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        start = self.round_no
        executed = 0
        while executed < max_rounds:
            self.step()
            executed += 1
            if stop is not None and executed % check_every == 0 and stop(self):
                return RunResult(rounds=self.round_no - start, stopped_early=True)
        stopped = stop(self) if stop is not None else False
        return RunResult(rounds=self.round_no - start, stopped_early=stopped)

    def all_finished(self) -> bool:
        """Whether every node reports its protocol finished."""
        return all(node.finished for node in self.nodes)
