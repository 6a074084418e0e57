"""In-memory span tracer that wraps the program's public functions.

Nothing under ``src/`` is edited: :class:`Patcher` replaces functions
where they are bound (module attributes, including names bound with
``from ... import ...``), class methods and properties, and restores
every original on :meth:`Patcher.restore`.  Spans carry a name, start
and end (``time.perf_counter_ns``, CLOCK_MONOTONIC on Linux, so spans of
different processes share one clock), a parent, the pid and a shared run
id.  They stay in memory and are written as JSON lines when the process
ends its traced region:

* fork workers of a ``multiprocessing`` pool inherit the wrappers with
  the address space; the tracer drops the parent's spans in the child
  and writes the child's own at worker exit (``multiprocessing.util``
  runs finalizers on a clean worker exit);
* a separately launched process (the service daemon) rebuilds a tracer
  from :data:`ENV_VAR` through :func:`from_env`.

:func:`self_times` and :func:`layer_table` turn a merged timeline into
the per-layer self-time table.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional

#: Environment variable carrying ``{"run_id", "dir"}`` to child
#: processes started with exec (the daemon launcher reads it).
ENV_VAR = "PERFBENCH_TRACE"


class Tracer:
    """Collects spans of one process for one traced run.

    :param run_id: identifier shared by every process of the run.
    :param out_dir: directory the per-process JSON-lines files go to.
    """

    def __init__(self, run_id: str, out_dir: "str | os.PathLike"):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    # -- recording -----------------------------------------------------
    def start(self, name: str) -> tuple:
        """Open a span; returns the token :meth:`end` closes.

        Span ids are ``(pid, n)`` so that fork children, which inherit
        the current span as their parent, never collide with it.
        """
        span_id = (self.pid, next(self._ids))
        parent = self._current.get()
        token = self._current.set(span_id)
        return (span_id, parent, name, time.perf_counter_ns(), token)

    def end(self, opened: tuple, attrs: Optional[dict] = None) -> None:
        """Close a span opened by :meth:`start`."""
        end = time.perf_counter_ns()
        span_id, parent, name, start, token = opened
        self._current.reset(token)
        # A tuple, not a dict: this runs once per traced call.
        self.spans.append((span_id, parent, name, start, end, attrs))

    def records(self) -> list[dict]:
        """This process's spans as JSON-ready dicts."""
        def key(span_id):
            return None if span_id is None else f"{span_id[0]}:{span_id[1]}"

        out = []
        for span_id, parent, name, start, end, attrs in self.spans:
            record = {
                "id": key(span_id), "parent": key(parent), "name": name,
                "start": start, "end": end, "pid": span_id[0],
                "run": self.run_id,
            }
            if attrs:
                record["attrs"] = attrs
            out.append(record)
        return out

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`start` / :meth:`end`."""
        opened = self.start(name)
        try:
            yield
        finally:
            self.end(opened)

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable] = None,
        when: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        :param attrs: ``attrs(args, kwargs, result) -> dict`` of numbers
            stored on the span (counts, bytes).
        :param when: ``when(args, kwargs) -> bool``; calls for which it
            is false pass through unrecorded.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if when is not None and not when(args, kwargs):
                    return await fn(*args, **kwargs)
                opened = tracer.start(name)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    tracer.end(opened)
                    raise
                tracer.end(
                    opened, attrs(args, kwargs, result) if attrs else None
                )
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            opened = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(opened)
                raise
            tracer.end(opened, attrs(args, kwargs, result) if attrs else None)
            return result

        return wrapper

    # -- output --------------------------------------------------------
    def span_file(self) -> Path:
        """This process's JSON-lines file."""
        return self.out_dir / f"spans-{self.run_id}-{self.pid}.jsonl"

    def flush(self) -> None:
        """Append this process's spans to :meth:`span_file` and clear."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.span_file(), "a") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
        self.spans = []

    def follow_forks(self) -> None:
        """Make ``multiprocessing`` fork children trace into their own file.

        The child keeps the wrappers (they live in the copied address
        space) but drops the parent's in-memory spans, and writes its own
        when the worker exits cleanly.
        """
        import multiprocessing.util as mp_util

        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        import multiprocessing.util as mp_util

        self.pid = os.getpid()
        self.spans = []
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def env_value(self) -> str:
        """The :data:`ENV_VAR` value for exec'd child processes."""
        return json.dumps({"run_id": self.run_id, "dir": str(self.out_dir)})


def from_env() -> Optional[Tracer]:
    """The tracer a parent process handed over through :data:`ENV_VAR`."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    spec = json.loads(raw)
    return Tracer(spec["run_id"], spec["dir"])


class Patcher:
    """Replace program attributes with wrappers and put them back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        """``setattr(owner, attr, value)``, remembering the original.

        On a class, ``attr`` must be defined by the class itself.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._undo.append((setattr, owner, attr, original))
        setattr(owner, attr, value)

    def item(self, mapping: dict, key, value) -> None:
        """``mapping[key] = value``, remembering the original."""
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def everywhere(
        self, original: Callable, replacement: Callable,
        packages: tuple = ("repro", "workloads"),
    ) -> int:
        """Rebind ``original`` in every loaded module of ``packages``.

        Covers the defining module and every module that bound the
        function with ``from ... import ...``.

        :returns: the number of bindings replaced.
        """
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] not in packages:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            put, owner, attr, original = self._undo.pop()
            put(owner, attr, original)


# ----------------------------------------------------------------------
# analysis of a merged timeline
# ----------------------------------------------------------------------
def read_spans(paths: Iterable["str | os.PathLike"]) -> list[dict]:
    """Load and merge span files into one timeline sorted by start."""
    spans = []
    for path in paths:
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    spans.sort(key=lambda s: (s["start"], s["end"]))
    return spans


def covered(intervals: Iterable[tuple], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Per-span self time in ns: duration minus the union of the
    intervals its children cover (children may overlap each other, as
    concurrent tasks or fork workers do)."""
    children = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """``name -> {"calls", "total_s", "self_s", "pids"}`` over a timeline."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span["name"],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "pids": set()},
        )
        row["calls"] += 1
        row["total_s"] += (span["end"] - span["start"]) / 1e9
        row["self_s"] += own[span["id"]] / 1e9
        row["pids"].add(span["pid"])
    return table


def format_table(table: dict[str, dict], region_s: float) -> str:
    """Render :func:`layer_table` sorted by self time.

    The ``/region`` column is self time over the timed region; spans
    that run concurrently (requests in flight, fork workers, the daemon)
    can add up to more than 100%.
    """
    lines = [
        f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} "
        f"{'/region':>8} {'procs':>5}"
    ]
    for name, row in sorted(
        table.items(), key=lambda item: -item[1]["self_s"]
    ):
        share = 100.0 * row["self_s"] / region_s if region_s else 0.0
        lines.append(
            f"{name:<34} {row['calls']:>9d} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {share:>7.1f}% {len(row['pids']):>5d}"
        )
    return "\n".join(lines)
