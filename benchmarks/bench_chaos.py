"""Chaos soak: a faulted fleet, a murdered coordinator, identical results.

The end-to-end acceptance gate of the crash-safety layer (DESIGN.md
§10): a sharded sweep is driven against **two real daemons** — one of
them started with ``--fault-plan``, so it stalls replies past the
request timeout, mangles reply payloads, drops connections and tears
its cache publishes on a seeded schedule — while the coordinator is
SIGKILLed mid-sweep (a scheduled kill carried as data in the same
plan) and then simply rerun against the same fleet and bus.

Three assertions, none of them statistical:

* **zero lost results** — every point of the rerun is present and at
  least the points journaled before the kill are replayed, not
  recomputed;
* **zero corrupt replays** — mangled replies and torn bus entries are
  rejected at their checksums and re-dispatched, never consumed: the
  final sweeps are **bitwise identical** to a fault-free ``jobs=1``
  run of the same spec;
* **the journal dies with the finish, not the coordinator** — SIGKILL
  leaves it on disk, the clean rerun removes it.

CI uploads the pytest-benchmark JSON as ``BENCH_chaos.json``; the
headline counters (points, kills, journal replays, quarantines) land
in ``extra_info`` so the artifact is self-describing, and
``tools/bench_report.py`` merges it into the trajectory record.
"""

import hashlib
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim import GridPoint, GridSpec, run_grid
from repro.fastsim.cache import ResultCache
from repro.fastsim.journal import JOURNAL_SUFFIX
from repro.faults import FaultPlan, FaultRule

SEED = 2014
PLAN_SEED = 99
N_REPLICATIONS = 6
POINT_SIZES = (64, 72, 80, 88, 96, 104, 112, 120)
#: The coordinator SIGKILLs itself once this many points are journaled.
KILL_AFTER_POINTS = 2
REQUEST_TIMEOUT = 1.5  # seconds; the stall fault sleeps past this

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _spec() -> GridSpec:
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=2.0, rng=rng
            ),
            n_replications=N_REPLICATIONS,
            label=f"n={n}",
            constants=ProtocolConstants.practical(),
            kwargs={"source": 0},
        )
        for n in POINT_SIZES
    ]
    return GridSpec(points=points, seed=SEED, name="chaos-soak")


def _chaos_plan() -> FaultPlan:
    """The seeded schedule the faulted daemon (and the harness) run on."""
    return FaultPlan(
        rules=[
            FaultRule("service.reply.stall", max_fires=2,
                      delay_s=3 * REQUEST_TIMEOUT),
            FaultRule("service.reply.corrupt", max_fires=2),
            FaultRule("service.conn.drop", max_fires=1, after=1),
            FaultRule("cache.put.torn", p=0.5, max_fires=4),
        ],
        seed=PLAN_SEED,
        kills=[{"after_points": KILL_AFTER_POINTS,
                "target": "coordinator"}],
    )


def _digests(results) -> list:
    return [
        hashlib.sha256(pickle.dumps(r.sweep)).hexdigest()
        for r in results
    ]


def _spawn_daemon(cache_dir, fault_plan=None):
    """One real ``python -m repro.service`` daemon on the shared bus."""
    cmd = [
        sys.executable, "-m", "repro.service",
        "--tcp", "127.0.0.1:0", "--cache-dir", str(cache_dir),
    ]
    if fault_plan is not None:
        cmd += ["--fault-plan", str(fault_plan)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on "), line
    return proc, line[len("serving on "):]


def _spawn_coordinator(bus_dir, addresses, plan_path, role):
    """One coordinator child; ``role`` is ``"victim"`` (arms the plan's
    scheduled self-kill) or ``"rerun"``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, __file__, "coordinator", str(bus_dir),
            ",".join(addresses), str(plan_path), role,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )


def _soak(tmp_path):
    """One full kill-and-rerun soak; returns the audit record."""
    bus = tmp_path / "bus"
    bus.mkdir(parents=True, exist_ok=True)
    plan_path = tmp_path / "chaos-plan.json"
    _chaos_plan().save(plan_path)

    daemons = []
    try:
        chaotic, addr_a = _spawn_daemon(bus, fault_plan=plan_path)
        daemons.append(chaotic)
        clean, addr_b = _spawn_daemon(bus)
        daemons.append(clean)
        addresses = [addr_a, addr_b]

        # Run 1: the victim journals points until its scheduled kill.
        victim = _spawn_coordinator(bus, addresses, plan_path, "victim")
        victim.wait(300)
        assert victim.returncode == -signal.SIGKILL, (
            f"victim exited rc={victim.returncode}; expected the "
            f"scheduled SIGKILL\n{victim.stdout.read()}"
        )
        journals = list(bus.glob("*" + JOURNAL_SUFFIX))
        assert journals, "SIGKILL must leave the journal on disk"
        journaled_at_kill = len(
            journals[0].read_text().splitlines()
        )
        assert journaled_at_kill >= KILL_AFTER_POINTS

        # Run 2: rerun against the same (faulted) fleet and bus.
        resumer = _spawn_coordinator(bus, addresses, plan_path, "rerun")
        out, _ = resumer.communicate(timeout=300)
        assert resumer.returncode == 0, out
        line = next(
            l for l in out.splitlines() if l.startswith("RESULT ")
        )
        resumed = json.loads(line[len("RESULT "):])
    finally:
        for proc in daemons:
            proc.kill()
        for proc in daemons:
            proc.wait(10)

    assert not list(bus.glob("*" + JOURNAL_SUFFIX)), (
        "clean rerun must remove the journal"
    )
    audit = ResultCache(bus).verify()
    resumed["journaled_at_kill"] = journaled_at_kill
    resumed["bus_audit"] = audit
    return resumed


def test_chaos_soak_kill_resume_identity(benchmark, tmp_path, capsys):
    """The soak: zero lost results, zero corrupt replays, bitwise
    identity with a fault-free run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = run_grid(_spec(), jobs=1, cache=False)
    ref_digests = _digests(reference)

    resumed = benchmark.pedantic(
        lambda: _soak(tmp_path), rounds=1, iterations=1
    )

    stats = resumed["stats"]
    # Zero lost results: every point present, the pre-kill journal
    # replayed rather than recomputed.
    assert len(resumed["digests"]) == len(ref_digests)
    assert stats["journal_replays"] >= KILL_AFTER_POINTS
    assert stats["journal_replays"] <= stats["cached"]
    # Zero corrupt replays: stalls, mangled payloads, dropped
    # connections and torn bus publishes cost retries, never bytes —
    # the resumed sweeps are bitwise identical to the fault-free run.
    assert resumed["digests"] == ref_digests
    audit = resumed["bus_audit"]
    with capsys.disabled():
        print(
            f"\nchaos soak: {stats['points']} points, 1 coordinator "
            f"SIGKILL after {resumed['journaled_at_kill']} journaled, "
            f"{stats['journal_replays']} replayed on rerun; bus audit: "
            f"{audit['verified']} verified, {audit['corrupt']} corrupt "
            f"left, {audit['quarantined']} quarantined"
        )
    benchmark.extra_info.update(
        points=stats["points"],
        kills=1,
        journaled_at_kill=resumed["journaled_at_kill"],
        journal_replays=stats["journal_replays"],
        bus_quarantined=audit["quarantined"],
        bus_corrupt_left=audit["corrupt"],
        plan_seed=PLAN_SEED,
    )


# ----------------------------------------------------------------------
# the coordinator child (re-executed by the soak; not run under pytest)
# ----------------------------------------------------------------------
def _watch_journal_and_die(bus_dir, after_points):
    """Apply the plan's scheduled coordinator kill: SIGKILL ourselves
    once ``after_points`` records are journaled (a real corpse — no
    handlers, no cleanup — is the only honest test of the journal)."""
    bus = pathlib.Path(bus_dir)
    while True:
        for journal in bus.glob("*" + JOURNAL_SUFFIX):
            try:
                lines = journal.read_text().splitlines()
            except OSError:
                continue
            if len(lines) >= after_points:
                os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.005)


def _child_coordinator(bus_dir, addresses, plan_path, role):
    plan = FaultPlan.load(plan_path)
    if role == "victim":
        for kill in plan.kills:
            if kill.get("target") == "coordinator":
                threading.Thread(
                    target=_watch_journal_and_die,
                    args=(bus_dir, kill["after_points"]),
                    daemon=True,
                ).start()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = run_grid(
            _spec(), workers=addresses.split(","),
            cache_dir=bus_dir,
            request_timeout=REQUEST_TIMEOUT,
        )
    from repro.fastsim.grid import last_grid_stats

    payload = {"stats": last_grid_stats(), "digests": _digests(results)}
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    assert sys.argv[1] == "coordinator", sys.argv
    sys.exit(_child_coordinator(*sys.argv[2:]))
