"""Command-line entry point: ``python -m repro.experiments <id|all>``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.base import SCALES
from repro.experiments.registry import get_experiment, list_experiments


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-reproduction experiments (see DESIGN.md §5).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. E05) or 'all'",
    )
    parser.add_argument(
        "--scale", choices=SCALES, default="quick",
        help="sweep size: quick (seconds) or full (minutes)",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--markdown", metavar="PATH", default=None,
        help="additionally write the reports as a Markdown document",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per grid sweep (1 = in-process; parallel "
             "runs are result-identical to serial ones)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=".repro-cache",
        help="grid result-cache directory (re-runs and quick->full "
             "upgrades replay cached points)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk grid result cache",
    )
    parser.add_argument(
        "--cache-prune", type=float, default=None, metavar="MB",
        help="after the run, evict least-recently-used cache entries "
             "until the cache directory is at most MB megabytes "
             "(tools/cache_gc.py is the standalone form)",
    )
    args = parser.parse_args(argv)

    from repro.fastsim.grid import (
        GridOptions,
        last_grid_stats,
        set_default_grid_options,
    )

    set_default_grid_options(
        GridOptions(
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    )

    ids = list_experiments() if args.experiment.lower() == "all" else [
        args.experiment
    ]
    reports = []
    for exp_id in ids:
        run = get_experiment(exp_id)
        started = time.perf_counter()
        report = run(scale=args.scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        reports.append(report)
        print(report.render())
        timing = f"({elapsed:.1f}s"
        stats = last_grid_stats()
        if stats["cached"]:
            # Cache keys cover inputs, not code — a full replay after a
            # simulation-code change is stale; surface it every run.
            timing += (
                f"; {stats['cached']}/{stats['points']} grid points "
                f"from cache, --no-cache to recompute"
            )
        if stats["journal_replays"]:
            timing += (
                f"; {stats['journal_replays']} of them journaled by an "
                f"interrupted run"
            )
        print(timing + ")\n")
    if args.cache_prune is not None:
        # Independent of --no-cache: that flag only disables the cache
        # during the run; an explicit prune request still reclaims disk.
        from repro.fastsim.cache import ResultCache

        report = ResultCache(args.cache_dir).prune(
            max_bytes=int(args.cache_prune * 1e6)
        )
        print(
            f"cache prune: {report['evicted']} LRU entries evicted, "
            f"{report['kept_entries']} kept "
            f"({report['kept_bytes'] / 1e6:.1f} MB)"
        )
    if args.markdown:
        from repro.experiments.summary import reports_to_markdown

        with open(args.markdown, "w") as handle:
            handle.write(
                reports_to_markdown(
                    reports,
                    title=f"Experiment results (scale={args.scale}, "
                          f"seed={args.seed})",
                )
            )
        print(f"markdown written to {args.markdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
