"""Tests for the process memory helpers in :mod:`repro.sysmem`."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import sysmem

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc"
)


def _status_bytes(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise AssertionError(f"no {field} in /proc/self/status")


@needs_proc
def test_peak_is_at_least_the_current_rss():
    block = np.ones(32 << 20, dtype=np.uint8)
    assert block.sum() == block.size
    rss = _status_bytes("VmRSS")
    assert sysmem.peak_rss_bytes() >= rss > 0


@needs_proc
def test_child_reports_its_own_peak_not_its_parents():
    # Linux keeps ru_maxrss across execve: a child of a large process
    # must still report its own high-water mark.
    block = np.ones(128 << 20, dtype=np.uint8)
    assert block.sum() == block.size
    parent = sysmem.peak_rss_bytes()
    env = dict(os.environ, PYTHONPATH=SRC)
    child = int(subprocess.run(
        [sys.executable, "-c",
         "from repro.sysmem import peak_rss_bytes; print(peak_rss_bytes())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)
    assert 0 < child < parent - (64 << 20)
