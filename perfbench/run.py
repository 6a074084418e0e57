"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sparse_broadcast --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``sparse_broadcast``, ``traffic_csma``, ``service_sinr`` and
``quick_suite`` (see ``perfbench/workloads/``), or ``all`` for each in
turn.  Each workload runs in one fresh process, so set-up time and peak
memory belong to that workload alone.

End-to-end metrics, reported by every workload:

* ``setup_s`` — median set-up time over several set-ups in the run,
  plus the median import time of the workload's modules in fresh
  interpreters;
* ``peak_rss_mb`` — peak RSS of the workload's process (of the daemon
  for ``service_sinr``);
* ``ops_per_s`` — the median over repetitions of the workload's work
  per second, each repetition scaled to a nominal machine speed: sweeps
  (``sparse_broadcast``), slots (``traffic_csma``), requests in
  one-second closed-loop bursts (``service_sinr``) and grid points of a
  cold pass, scaled experiment by experiment (``quick_suite``).
  Neighbours on a shared machine slow memory-heavy code by up to a
  third for seconds to minutes at a time, so a fixed kernel
  (:func:`common.probe_s`) is timed between repetitions and each rate is
  multiplied by how slow the machine ran around it.  The unscaled
  figures by the names users know (``rounds_per_s``, ``slots_per_s``,
  ``rps``, ``p50_ms``, ``p99_ms``, ``suite_s``, ``replay_s``,
  ``error_rate``) are printed above the JSON line.

The command supervises: the workload runs in a child process that leads
a process group of its own, and when the child has exited every process
left in that group (and any orphan re-parented to the supervisor) is
killed and reaped before the command exits.  The workload itself stops
``multiprocessing``'s resource tracker, which the grid's shared-memory
segments start and which would otherwise outlive it.

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` measures the workload untraced, then again with every
layer's public functions wrapped, and prints the ``per_layer`` metrics,
the per-layer self-time table and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when
any output check failed.  Every result, with its run context, is also
appended to ``--out`` (default ``perfbench/out/results.jsonl``), the
input of ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse_broadcast", "traffic_csma", "service_sinr", "quick_suite")
#: Set in the environment of the supervised workload process.
WORKER_ENV = "PERFBENCH_WORKER"
#: ``prctl`` option making orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the supervisor waits for leftover processes to be reaped.
REAP_TIMEOUT_S = 30.0


def _become_subreaper() -> None:
    """Have orphaned descendants re-parented here, so they can be reaped."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _reap_group(pgid: int) -> int:
    """Kill process group ``pgid`` and reap every child of this process.

    :returns: the number of processes reaped.
    """
    deadline = time.monotonic() + REAP_TIMEOUT_S
    reaped = 0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() > deadline:
            raise RuntimeError("a process outside the workload's process "
                               "group is still running")
        else:
            time.sleep(0.01)


def supervise(argv: list[str]) -> int:
    """Run the workload in a child process and reap all it leaves behind.

    The child leads a new process group.  It is waited for without being
    reaped, so the group id stays reserved until the whole group has
    been killed; then every process re-parented here is reaped too.
    """
    _become_subreaper()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    child = subprocess.Popen(
        [sys.executable, __file__] + argv,
        env=dict(os.environ, **{WORKER_ENV: "1"}), start_new_session=True,
    )
    code = 1
    try:
        info = os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        code = (info.si_status if info.si_code == os.CLD_EXITED
                else 128 + info.si_status)
    finally:
        leftovers = _reap_group(child.pid) - 1
        child.returncode = code
    if leftovers > 0:
        print(f"stopped {leftovers} processes the workload left running",
              file=sys.stderr)
    return code


def _stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait for it.

    The grid's shared-memory segments start it, and CPython lets it
    outlive the process that started it.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _declared() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _print_report(result, failed: int, attempted: int) -> None:
    for name, (value, unit, note) in result.report.items():
        print(f"  {name:<18} {value:>14.4f} {unit:<6} {note}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<18} {rate:>14.4f} {'ratio':<6} "
          f"{failed} of {attempted} operations failed")


def traced_run(module, args, prepared, import_s, base):
    """Measure again with tracing on; ``(result, per-layer values)``."""
    import layers
    from common import OUT
    from spans import (
        Tracer, format_table, layer_table, read_spans, self_times,
    )

    trace_dir = OUT / "traces"
    tracer = Tracer(uuid.uuid4().hex[:12], trace_dir)
    patcher = layers.install(tracer)
    tracer.follow_forks()
    try:
        traced = module.measure(prepared, args.seconds, tracer=tracer,
                                setup_reps=1, import_s=import_s)
    finally:
        patcher.restore()
        tracer.flush()
    parts = sorted(trace_dir.glob(f"spans-{tracer.run_id}-*.jsonl"))
    timeline = read_spans(parts)
    merged = trace_dir / (
        f"trace-{args.workload}-seed{args.seed}-{tracer.run_id}.jsonl"
    )
    with open(merged, "w") as handle:
        for record in timeline:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    for part in parts:
        part.unlink()

    overhead = 100.0 * (
        base.metrics["ops_per_s"] / traced.metrics["ops_per_s"] - 1.0
    )
    values = layers.layer_metrics(
        timeline, {**traced.extra, "trace_overhead_pct": overhead}
    )
    region = [s for s in timeline if s["name"] == "bench.timed"][0]
    region_s = (region["end"] - region["start"]) / 1e9
    pids = sorted({s["pid"] for s in timeline})
    print(f"per-layer self time ({len(timeline)} spans from {len(pids)} "
          f"processes, merged into {merged.relative_to(ROOT)}):")
    print(format_table(layer_table(timeline), region_s))
    unattributed = self_times(timeline)[region["id"]] / 1e9
    print(f"timed region {region_s:.4f} s, of which {unattributed:.4f} s "
          f"({100 * unattributed / region_s:.1f}%) is outside every traced "
          f"layer; tracing overhead {overhead:+.2f}% per unit of work")
    return traced, values


def run_all(args) -> int:
    """Run every workload, each in its own fresh process."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    if args.out is not None:
        common += ["--out", str(args.out)]
    return max(
        subprocess.run(
            [sys.executable, __file__, "--workload", name] + common
        ).returncode
        for name in WORKLOADS
    )


def main(argv=None) -> int:
    if WORKER_ENV not in os.environ:
        return supervise(sys.argv[1:] if argv is None else list(argv))
    try:
        return run_workload(argv)
    finally:
        _stop_resource_tracker()


def run_workload(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    declared = _declared()

    import common

    module = importlib.import_module(f"workloads.{args.workload}")
    context = common.run_context(args.workload, args.seed, args.trace)
    print("context: " + json.dumps(context))
    import_s = common.import_seconds(module.IMPORTS)
    prepared = module.prepare(args.seed)

    result = module.measure(prepared, args.seconds, import_s=import_s)
    attempted, failed = result.attempted, result.failed
    problems = list(result.problems)
    if args.trace:
        traced, values = traced_run(module, args, prepared, import_s,
                                    result)
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
        wanted = declared["per_layer"]
    else:
        values = result.metrics
        wanted = declared["end_to_end"]
        for name, value in values.items():
            result.report.setdefault(name, (value, wanted[name], ""))
    print(f"{args.workload} seed {args.seed}:")
    _print_report(result, failed, attempted)
    for line in problems:
        print(f"CHECK FAILED: {line}")

    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in wanted.items()
    }
    correct = failed == 0
    out = args.out or (common.OUT / "results.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as handle:
        handle.write(json.dumps({
            "context": context, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "report": {k: list(v) for k, v in result.report.items()},
        }) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
