"""Paths, run context and the result record shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources.
SRC = ROOT / "src"
#: Everything the benchmark writes (results, traces, scratch caches).
OUT = ROOT / "perfbench" / "out"
#: Pinned outputs per workload and seed.
PINS = Path(__file__).resolve().parent / "pins.json"


@dataclass
class Result:
    """What one measurement of a workload produced.

    :param metrics: the ``end_to_end`` values of ``BENCHMARK.json``.
    :param report: workload metrics by the names users know them
        (``rounds_per_s``, ``p99_ms``, ...) as ``name -> (value, unit,
        note)``; printed, not part of the JSON line.
    :param attempted: operations attempted (sweeps, traffic runs,
        requests, grid points and report checks).
    :param failed: operations that failed or whose output check failed.
    :param extra: per-layer values not derived from spans.
    :param problems: one line per failed check.
    """

    metrics: dict
    report: dict
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def span(tracer, name: str):
    """``tracer.span(name)`` or a no-op when tracing is off."""
    return tracer.span(name) if tracer is not None else (
        contextlib.nullcontext()
    )


def freeze_setup() -> None:
    """Exempt everything built so far from garbage collection.

    Set-up objects (a 20k-node graph, flow tables) live for the whole
    run; left in the collector's generations they are rescanned at
    random points of the timed repetitions, which only adds noise.
    """
    gc.collect()
    gc.freeze()


_PROBE_DATA = None

#: Seconds :func:`probe_s` takes at the machine speed ``ops_per_s`` is
#: reported at; a scale only, so it never changes a comparison.
NOMINAL_PROBE_S = 0.030


def probe_s() -> float:
    """Time a fixed kernel: array sorts plus interpreter work.

    On a shared machine, neighbours slow memory-heavy code by up to a
    third for seconds to minutes at a time.  This kernel slows with
    them, so it measures how fast the machine is running right now.
    """
    global _PROBE_DATA
    if _PROBE_DATA is None:
        import numpy as np

        _PROBE_DATA = np.random.default_rng(0).random(400_000)
    t0 = time.perf_counter()
    for _ in range(8):
        _PROBE_DATA.copy().sort()
    total = 0
    for i in range(200_000):
        total += i
    return time.perf_counter() - t0


class Paced:
    """Repetition rates, each scaled to the nominal machine speed.

    The machine speed is probed before the first repetition and after
    each one; a repetition's rate is multiplied by the mean probe time
    around it over :data:`NOMINAL_PROBE_S`.  The scaled rates follow the
    program's speed rather than the neighbours'.
    """

    def __init__(self):
        self.before = probe_s()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []

    def add(self, work: float, seconds: float) -> float:
        """Record one repetition; returns its speed factor."""
        after = probe_s()
        factor = (self.before + after) / (2 * NOMINAL_PROBE_S)
        self.before = after
        self.raw.append(work / seconds)
        self.scaled.append(work / seconds * factor)
        self.factors.append(factor)
        return factor


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules: list[str], reps: int = 3) -> float:
    """Median time to import ``modules`` in a fresh interpreter.

    Imports happen once per process, so repeating them for a median
    needs fresh processes; the interpreter's own start-up is excluded.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=60, cwd=ROOT,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def digest(*arrays) -> str:
    """SHA-256 over the raw bytes of ``arrays`` (dtype and shape too)."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def load_pins(workload: str) -> dict:
    """Pinned outputs of ``workload`` keyed by seed string."""
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


def check_pinned(
    workload: str, seed: int, outputs: list, problems: list
) -> list:
    """Check repeated outputs of one seed against each other and the pin.

    Every repetition in a run uses the same inputs, so all outputs must
    be equal; when the seed has a pinned output they must equal it too.

    :returns: the indices of the outputs that failed.
    """
    pinned = load_pins(workload).get(str(seed))
    reference = pinned if pinned is not None else (
        outputs[0] if outputs else None
    )
    failed = []
    for i, out in enumerate(outputs):
        if out != reference:
            failed.append(i)
            problems.append(
                f"{workload} seed {seed} repetition {i}: output differs "
                f"from the {'pinned' if pinned is not None else 'first'} "
                "output"
            )
    return failed


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context(workload: str, seed: int, trace: int) -> dict:
    """Machine and program facts recorded with every result."""
    import numpy as np

    from repro.network.network import Network

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    probe = Network(np.array([[0.0, 0.0], [0.5, 0.0]]))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "kernel_kind": probe.kernel_kind,
        "numba": has_numba,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }
