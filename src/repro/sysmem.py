"""System/process memory helpers shared by tests and benchmarks.

The scale tests and benchmarks gate multi-GB builds on available memory
and report peak RSS next to their timings, and the query service sizes
its resident-network pool from the same numbers.  One implementation
lives here and every caller — bench scripts, scale smoke tests,
:mod:`repro.service.pool` — imports it directly, so a fix (e.g.
honoring cgroup limits that ``MemAvailable`` overstates on
containerized CI) reaches every caller at once.
"""

from __future__ import annotations

import sys


def available_memory_bytes() -> int:
    """Available system memory, or a huge sentinel when unknowable.

    Reads ``MemAvailable`` from ``/proc/meminfo``; on platforms without
    it, returns ``1 << 62`` so callers are never gated blind.
    """
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 1 << 62


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Reads ``VmHWM`` from ``/proc/self/status`` where it exists: Linux
    carries ``getrusage``'s ``ru_maxrss`` across ``execve``, so a
    daemon spawned by a large process would otherwise report its
    launcher's peak.  Elsewhere falls back to ``ru_maxrss`` (kilobytes
    on Linux, bytes on macOS; both normalized to bytes), and returns 0
    where the ``resource`` module is unavailable (non-POSIX platforms).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only environments
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux container
        return int(peak)
    return int(peak) * 1024
