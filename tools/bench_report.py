"""Merge per-job ``BENCH_*.json`` artifacts into one trajectory file.

CI's benchmark jobs each upload a pytest-benchmark JSON
(``BENCH_grid.json``, ``BENCH_service.json``, ``BENCH_distrib.json``,
...), which makes run-over-run comparison a manual scavenger hunt
across artifacts.  This tool folds any number of them into a single
**trajectory** file — a list of labelled snapshots, each mapping
benchmark name to its headline numbers — so the performance story of
the repo lives in one committed document
(``benchmarks/TRAJECTORY.json``) instead of N expiring artifacts.

Usage::

    python tools/bench_report.py BENCH_*.json \
        --output benchmarks/TRAJECTORY.json --label "$GITHUB_SHA"

Snapshots are appended; re-running with an existing label *replaces*
that snapshot (idempotent CI re-runs).  ``--print`` renders the merged
snapshot as a table without writing anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load_entries(path: "pathlib.Path") -> dict:
    """Headline numbers of every benchmark in one pytest-benchmark JSON.

    Returns ``{bench_name: {"mean_s", "min_s", "stddev_s", "rounds",
    "extra_info", "source"}}``.  Files that are not pytest-benchmark
    output raise ``ValueError`` — a merge must not silently skip an
    artifact.
    """
    with open(path) as handle:
        payload = json.load(handle)
    benches = payload.get("benchmarks")
    if not isinstance(benches, list):
        raise ValueError(
            f"{path}: not a pytest-benchmark JSON (no 'benchmarks' list)"
        )
    entries = {}
    for bench in benches:
        stats = bench.get("stats", {})
        entries[bench["name"]] = {
            "source": path.name,
            "mean_s": stats.get("mean"),
            "min_s": stats.get("min"),
            "stddev_s": stats.get("stddev"),
            "rounds": stats.get("rounds"),
            "extra_info": bench.get("extra_info", {}),
        }
    return entries


#: Run facts a benchmark records in ``extra_info`` that describe the
#: machine rather than the benchmark; lifted into the snapshot's
#: ``machine`` block so every timing states its core count and kernel.
MACHINE_FACTS = ("nproc", "kernel_kind")


def merge_snapshot(paths: "list[pathlib.Path]", label: str) -> dict:
    """One trajectory snapshot from every input artifact.

    The ``machine`` block holds pytest-benchmark's ``node``,
    ``python_version`` and raw ``cpu`` info plus :data:`MACHINE_FACTS`,
    taken from the first benchmark whose ``extra_info`` records them
    (``nproc`` falls back to the cpuinfo core count).
    """
    entries: dict = {}
    machine = None
    for path in paths:
        with open(path) as handle:
            machine = machine or json.load(handle).get("machine_info")
        for name, entry in load_entries(path).items():
            entries[name] = entry
    machine = machine or {}
    recorded = [entries[name]["extra_info"] for name in sorted(entries)]
    defaults = {"nproc": (machine.get("cpu") or {}).get("count")}
    facts = {
        key: next(
            (info[key] for info in recorded if info.get(key) is not None),
            defaults.get(key),
        )
        for key in MACHINE_FACTS
    }
    return {
        "label": label,
        "sources": sorted(p.name for p in paths),
        "machine": {
            **{key: machine.get(key)
               for key in ("node", "python_version", "cpu")},
            **facts,
        },
        "benchmarks": dict(sorted(entries.items())),
    }


def append_snapshot(trajectory_path: "pathlib.Path", snapshot: dict) -> list:
    """Append (or replace, by label) ``snapshot`` in the trajectory."""
    trajectory: list = []
    if trajectory_path.exists():
        trajectory = json.loads(trajectory_path.read_text())
        if not isinstance(trajectory, list):
            raise ValueError(
                f"{trajectory_path}: trajectory must be a JSON list"
            )
    trajectory = [
        snap for snap in trajectory if snap.get("label") != snapshot["label"]
    ] + [snapshot]
    trajectory_path.parent.mkdir(parents=True, exist_ok=True)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def format_snapshot(snapshot: dict) -> str:
    """Human-readable table of one snapshot's headline numbers."""
    lines = [
        f"snapshot {snapshot['label']!r} "
        f"({len(snapshot['benchmarks'])} benchmarks from "
        f"{len(snapshot['sources'])} artifact(s))"
    ]
    width = max(
        (len(name) for name in snapshot["benchmarks"]), default=4
    )
    for name, entry in snapshot["benchmarks"].items():
        mean = entry.get("mean_s")
        mean_txt = f"{mean:.4f}s" if mean is not None else "-"
        lines.append(
            f"  {name:<{width}}  mean {mean_txt:<10} "
            f"[{entry['source']}]"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point (see the module docstring for usage)."""
    parser = argparse.ArgumentParser(
        prog="python tools/bench_report.py",
        description="Merge BENCH_*.json artifacts into one trajectory.",
    )
    parser.add_argument(
        "inputs", nargs="+", metavar="BENCH.json",
        help="pytest-benchmark JSON files to merge",
    )
    parser.add_argument(
        "--output", default="benchmarks/TRAJECTORY.json", metavar="PATH",
        help="trajectory file to append to (default %(default)s)",
    )
    parser.add_argument(
        "--label", default="local", metavar="NAME",
        help="snapshot label, e.g. a commit SHA (default %(default)s); "
        "an existing snapshot with the same label is replaced",
    )
    parser.add_argument(
        "--print", action="store_true", dest="print_only",
        help="render the merged snapshot without writing the trajectory",
    )
    args = parser.parse_args(argv)
    paths = [pathlib.Path(p) for p in args.inputs]
    snapshot = merge_snapshot(paths, args.label)
    print(format_snapshot(snapshot))
    if not args.print_only:
        trajectory = append_snapshot(pathlib.Path(args.output), snapshot)
        print(
            f"wrote {args.output}: {len(trajectory)} snapshot(s), "
            f"latest {snapshot['label']!r}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
