"""Garbage-collect the on-disk grid result cache (LRU eviction).

The cache (``repro.fastsim.cache.ResultCache``) is content-addressed:
entries never go stale on input changes, so the directory grows without
bound across runs.  This tool reports usage and evicts the
least-recently-used entries (recency = file mtime, refreshed on every
cache hit) until the directory fits the given budgets.

Usage::

    python tools/cache_gc.py [--cache-dir .repro-cache]
                             [--max-mb N] [--max-entries N] [--dry-run]
    python tools/cache_gc.py --verify [--cache-dir .repro-cache]

With no budget it only reports.  The experiments CLI exposes the same
eviction as ``python -m repro.experiments ... --cache-prune MB``.

``--verify`` runs the read-only integrity audit instead: every entry's
checksum header is validated (``ResultCache.verify``; an entry without
one is corrupt), corrupt entries and on-disk quarantines are reported,
and the exit status is nonzero when corruption is found — so a fleet
cron job (``cache_gc.py --verify || alert``) catches bit-rot before a
sweep trips over it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))


def format_report(report: dict) -> str:
    mode = "would evict" if report["dry_run"] else "evicted"
    line = (
        f"cache {report['root']}: {report['entries']} entries, "
        f"{report['bytes'] / 1e6:.1f} MB; {mode} {report['evicted']} "
        f"LRU entries -> {report['kept_entries']} entries, "
        f"{report['kept_bytes'] / 1e6:.1f} MB"
    )
    swept = report.get("tmp_swept", 0)
    if swept:
        line += f"; swept {swept} stale debris file(s)"
    quarantined = report.get("quarantined", 0)
    if quarantined:
        line += f"; {quarantined} quarantined entr(ies) present"
    return line


def format_verify_report(report: dict) -> str:
    """Human-readable line for a ``--verify`` audit report."""
    line = (
        f"cache {report['root']}: {report['entries']} entries — "
        f"{report['verified']} verified, {report['corrupt']} corrupt, "
        f"{report['quarantined']} quarantined"
    )
    if report["corrupt_keys"]:
        shown = ", ".join(k[:16] for k in report["corrupt_keys"][:8])
        more = len(report["corrupt_keys"]) - 8
        line += f"\n  corrupt keys: {shown}" + (
            f" (+{more} more)" if more > 0 else ""
        )
    return line


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/cache_gc.py",
        description="Report and LRU-evict the grid result cache.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "cache-key semantics (DESIGN.md §6.3): every entry is "
            "addressed by a SHA-256 of the grid point's inputs — "
            "protocol kind, Network.fingerprint() (coordinates, SINR "
            "parameters, metric, channel identity, sparse-backend "
            "marker), constants, seed, replication count, and the "
            "resolved kwargs.  Mobility sweeps carry their "
            "MobilityModel in the kwargs, so dynamic runs key on the "
            "model's identity() (knobs + trajectory seed) and can "
            "never replay a static run's result — or another "
            "mobility's.  Keys cover inputs, not code: entries never "
            "go stale on input changes, which is why this LRU sweep "
            "is the only reclamation path."
        ),
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="PATH",
        help="cache directory (the experiments CLI default)",
    )
    parser.add_argument(
        "--max-mb", type=float, default=None, metavar="N",
        help="evict oldest entries until total size is at most N MB",
    )
    parser.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="evict oldest entries until at most N remain",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="read-only integrity audit: validate every entry's "
        "checksum, report corrupt/quarantined entries, exit nonzero "
        "on corruption (for fleet cron alerting)",
    )
    args = parser.parse_args(argv)

    from repro.fastsim.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.verify:
        report = cache.verify()
        print(format_verify_report(report))
        return 1 if (report["corrupt"] or report["quarantined"]) else 0
    report = cache.prune(
        max_bytes=(
            None if args.max_mb is None else int(args.max_mb * 1e6)
        ),
        max_entries=args.max_entries,
        dry_run=args.dry_run,
    )
    print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
