"""``service_sinr``: SINR queries against the resident-network daemon.

A ``python -m repro.service`` daemon (started through
``service_launcher.py``) on a unix socket holds bench_service's
n = 20k sparse network (6 stations per unit area, cutoff 1.0), admitted
through ``build`` with explicit coordinates.  Every query names 8
distinct transmitters and goes over one pipelined connection:

* phase A, a closed loop with 32 requests in flight, measures capacity
  (``rps``) in one-second bursts;
* phase B, an open loop at a fixed 1000 req/s (about 40% of capacity),
  measures latency from each request's due time (``p50_ms``,
  ``p99_ms``) and how late the generator ran.

Every reply is compared with a local ``resolve_reception_many`` on the
same network, computed before the daemon starts.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from common import OUT, ROOT, SRC, Paced, Result, span
from repro.network.network import Network
from repro.service import connect
from repro.service.protocol import ServiceError
from repro.sinr.reception import resolve_reception_many
from spans import ENV_VAR
from stats import OpenLoopSchedule, percentile

#: Modules whose import is part of set-up.
IMPORTS = ["repro.network.network", "repro.service"]

N = 20_000
DENSITY = 6.0
CUTOFF = 1.0
TX_PER_QUERY = 8
DISTINCT_QUERIES = 2048
IN_FLIGHT = 32
OPEN_RATE = 1000.0
#: Share of the run given to phase A; phase B gets the rest.
PHASE_A_SHARE = 0.5
WARMUP_REQUESTS = 256
#: Length of one phase A burst in seconds.
BURST_S = 1.0
BUILD_REPS = 3
#: Generator lateness (p99, ms) above which a run is flagged.
LATE_BOUND_MS = 5.0
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 120.0


def inputs(seed: int):
    """Coordinates and the distinct transmitter sets of one seed."""
    rng = np.random.default_rng(seed)
    side = math.sqrt(N / DENSITY)
    coords = rng.uniform(0, side, size=(N, 2))
    sets = [
        rng.choice(N, size=TX_PER_QUERY, replace=False)
        for _ in range(DISTINCT_QUERIES)
    ]
    return coords, sets


def spec_of(coords) -> dict:
    """The ``build`` request admitting the deployment."""
    return {
        "coords": coords.tolist(), "backend": "sparse", "cutoff": CUTOFF,
        "name": "bench-service",
    }


def expected_replies(coords, sets) -> list:
    """Reference replies from the serving resolver, computed locally."""
    net = Network(coords, name="bench-service", backend="sparse",
                  cutoff=CUTOFF)
    heard = resolve_reception_many(
        net.gain_operator, sets, net.params.noise, net.params.beta,
        compact=True,
    )
    return [np.column_stack((r, s)).tolist() for r, s in heard]


class Daemon:
    """The daemon process: start, address, stop (always reaped)."""

    def __init__(self, tracer=None):
        OUT.mkdir(parents=True, exist_ok=True)
        sock = OUT / f"svc-{os.getpid()}.sock"
        if sock.exists():
            sock.unlink()
        # Relative to the checkout: unix socket paths are length-bound.
        self.sock = os.path.relpath(sock, ROOT)
        self.address = f"unix:{self.sock}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env.pop(ENV_VAR, None)
        if tracer is not None:
            env[ENV_VAR] = tracer.env_value()
        self.log = open(OUT / f"svc-{os.getpid()}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "service_launcher.py"),
             "--unix", self.sock],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("serving on"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.start_s = time.perf_counter() - t0

    def stop(self, asked: bool = False) -> None:
        """Reap the daemon; ``asked`` means a ``shutdown`` op was sent.

        Otherwise it gets SIGTERM (its graceful drain), then SIGKILL.
        """
        for signal_it in ((lambda: None) if asked else self.proc.terminate,
                          self.proc.kill):
            signal_it()
            try:
                self.proc.wait(timeout=20)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode == 0:
            os.unlink(self.log.name)
        if os.path.exists(ROOT / self.sock):
            os.unlink(ROOT / self.sock)


class Tally:
    """Replies checked against the reference."""

    def __init__(self, expected: list):
        self.expected = expected
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0

    async def query(self, client, net: str, i: int, sets: list):
        """Send query ``i``; ``True`` when it was answered correctly."""
        self.attempted += 1
        k = i % len(sets)
        try:
            reply = await client.sinr(net, sets[k])
        except ServiceError:
            self.errors += 1
            return False
        if reply["receptions"] != self.expected[k]:
            self.mismatches += 1
            return False
        return True


async def closed_loop(client, net, sets, tally, first, duration):
    """One phase A burst: ``IN_FLIGHT`` callers, each awaiting its reply.

    :returns: ``(correct replies, elapsed, next query index)``.
    """
    state = {"next": first, "done": 0}
    deadline = time.perf_counter() + duration

    async def caller():
        while time.perf_counter() < deadline:
            i = state["next"]
            state["next"] += 1
            if await tally.query(client, net, i, sets):
                state["done"] += 1

    t0 = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(IN_FLIGHT)))
    return state["done"], time.perf_counter() - t0, state["next"]


async def open_loop(client, net, sets, tally, first, duration):
    """Phase B: requests sent on a fixed schedule whatever the replies."""
    total = int(duration * OPEN_RATE)
    schedule = OpenLoopSchedule(OPEN_RATE, time.perf_counter() + 0.01)

    async def one(i):
        schedule.sent(i, time.perf_counter())
        if await tally.query(client, net, first + i, sets):
            schedule.done(i, time.perf_counter())

    tasks = []
    i = 0
    while i < total:
        due = min(schedule.count_due(time.perf_counter()), total)
        while i < due:
            tasks.append(asyncio.ensure_future(one(i)))
            i += 1
        if i < total:
            await asyncio.sleep(max(0.0, schedule.due(i) - time.perf_counter()))
    await asyncio.gather(*tasks)
    return schedule


async def admit(daemon, coords, reps):
    """Build the network in the daemon ``reps`` times; (handle, times)."""
    client = await connect(daemon.address, timeout=REQUEST_TIMEOUT_S)
    try:
        spec = spec_of(coords)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            net = (await client.build(spec))["net"]
            times.append(time.perf_counter() - t0)
    finally:
        await client.aclose()
    return net, times


async def phases(daemon, net, sets, tally, seconds):
    """Warm up, run phases A and B, read stats, stop the daemon."""
    client = await connect(daemon.address, timeout=REQUEST_TIMEOUT_S)
    try:
        await asyncio.gather(*(
            tally.query(client, net, i, sets) for i in range(WARMUP_REQUESTS)
        ))
        # Phase A runs in bursts with the machine speed probed between
        # them, while no request is in flight.
        pace = Paced()
        nxt = WARMUP_REQUESTS
        for _ in range(max(1, round(seconds * PHASE_A_SHARE / BURST_S))):
            done, elapsed, nxt = await closed_loop(
                client, net, sets, tally, nxt, BURST_S
            )
            pace.add(done, elapsed)
        schedule = await open_loop(
            client, net, sets, tally, nxt, seconds * (1 - PHASE_A_SHARE)
        )
        stats = await client.stats()
        await client.shutdown()
    finally:
        await client.aclose()
    return pace, schedule, stats


def prepare(seed: int) -> dict:
    """Inputs and reference replies, computed before anything is timed."""
    coords, sets = inputs(seed)
    return {"coords": coords, "sets": sets,
            "expected": expected_replies(coords, sets)}


def measure(prepared, seconds, tracer=None, setup_reps=BUILD_REPS,
            import_s=0.0):
    """Start the daemon, admit the network, run phases A and B."""
    coords, sets = prepared["coords"], prepared["sets"]
    tally = Tally(prepared["expected"])
    with span(tracer, "bench.setup"):
        daemon = Daemon(tracer)
    stopped = False
    try:
        with span(tracer, "bench.setup"):
            net, build_times = asyncio.run(admit(daemon, coords, setup_reps))
        with span(tracer, "bench.timed"):
            pace, schedule, stats = asyncio.run(
                phases(daemon, net, sets, tally, seconds)
            )
        stopped = True
    finally:
        daemon.stop(asked=stopped)

    rps = statistics.median(pace.raw)
    scaled = statistics.median(pace.scaled)
    p50 = percentile(schedule.latencies, 50)
    p99 = percentile(schedule.latencies, 99)
    late = percentile(schedule.lateness, 99)
    # Too few samples for a p99: fall back to the worst lateness seen.
    late_ms = 1e3 * (late["value"] if late else max(schedule.lateness))
    flagged = late_ms > LATE_BOUND_MS
    coalescers = list(stats["coalescers"].values())
    requests = sum(c["requests"] for c in coalescers)
    batches = sum(c["batches"] for c in coalescers)
    problems = []
    if tally.errors:
        problems.append(f"{tally.errors} requests failed or timed out")
    if tally.mismatches:
        problems.append(
            f"{tally.mismatches} replies differ from the local resolver"
        )
    if flagged:
        print(f"warning: generator lateness p99 {late_ms:.2f} ms exceeds "
              f"the {LATE_BOUND_MS} ms bound; phase B latencies are "
              "suspect", file=sys.stderr)

    def pct(p, label):
        if p is None:
            return (float("nan"), "ms", f"{label}: too few samples")
        return (p["value"] * 1e3, "ms",
                f"{p['samples']} samples, {p['beyond']} beyond")

    return Result(
        metrics={
            "setup_s": (import_s + daemon.start_s
                        + statistics.median(build_times)),
            "peak_rss_mb": stats["peak_rss_bytes"] / 2**20,
            "ops_per_s": scaled,
        },
        report={
            "rps": (rps, "req/s", f"closed loop, {IN_FLIGHT} in flight, "
                                  f"median of {len(pace.raw)} bursts"),
            "scaled_rps": (scaled, "req/s", "median at nominal machine "
                                            "speed"),
            "speed_factor": (statistics.median(pace.factors), "ratio",
                             "machine slowness, 1 = nominal"),
            "p50_ms": pct(p50, "p50"),
            "p99_ms": pct(p99, "p99"),
            "gen_late_p99_ms": (
                late_ms, "ms",
                "FLAGGED" if flagged else f"bound {LATE_BOUND_MS} ms",
            ),
            "mean_batch": (requests / batches if batches else 0.0, "count",
                           f"{batches} kernel calls"),
        },
        attempted=tally.attempted,
        failed=tally.errors + tally.mismatches,
        extra={
            "coalescer_batches": batches,
            "coalescer_mean_batch": requests / batches if batches else 0.0,
            "gen_late_p99_ms": late_ms,
        },
        problems=problems,
    )
