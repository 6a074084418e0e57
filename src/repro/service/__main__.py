"""``python -m repro.service`` — launch the resident-network daemon.

Examples::

    # Unix socket (recommended: filesystem permissions are the ACL)
    python -m repro.service --unix /tmp/repro.sock --cache-dir ~/.repro-cache

    # Loopback TCP on a fixed port
    python -m repro.service --tcp 127.0.0.1:7040

The daemon prints one ``serving on <address>`` line per listener (the
exact string :func:`repro.service.client.connect` accepts) and runs
until SIGINT/SIGTERM or a client ``shutdown`` op.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.service.pool import NetworkPool
from repro.service.server import ServiceServer


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Resident-network SINR query service (DESIGN.md §8).",
        epilog="Queries against one resident network coalesce into "
        "batched kernel calls, bitwise identical to serving them "
        "one at a time; sweep results share the CLI result cache.",
    )
    parser.add_argument(
        "--unix", metavar="PATH",
        help="listen on a unix-domain socket at PATH",
    )
    parser.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="listen on TCP (use port 0 for an ephemeral port)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache for sweep requests "
        "(shared with CLI --cache-dir runs)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="time-to-live of per-point lease files on keyed sweeps "
        "(multi-host sharding, DESIGN.md §9.2; default %(default)s)",
    )
    parser.add_argument(
        "--window", type=float, default=0.002, metavar="SECONDS",
        help="coalescing window (default %(default)s)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=128, metavar="B",
        help="largest coalesced batch per kernel call (default %(default)s)",
    )
    parser.add_argument(
        "--memory-budget", type=float, default=None, metavar="GB",
        help="resident-pool budget in GB (default: a quarter of "
        "available memory)",
    )
    parser.add_argument(
        "--max-networks", type=int, default=None, metavar="N",
        help="cap on resident networks (default: bytes budget only)",
    )
    parser.add_argument(
        "--fault-plan", metavar="PLAN.json",
        help="install a repro.faults.FaultPlan from a JSON file "
        "(chaos testing only; equivalent to the REPRO_FAULT_PLAN "
        "environment variable)",
    )
    args = parser.parse_args(argv)
    if not args.unix and not args.tcp:
        parser.error("need at least one listener: --unix and/or --tcp")
    return args


async def _serve(args: argparse.Namespace) -> None:
    if args.fault_plan:
        from repro import faults

        faults.install(faults.FaultPlan.load(args.fault_plan))
    budget = (
        int(args.memory_budget * 1e9)
        if args.memory_budget is not None
        else None
    )
    server = ServiceServer(
        pool=NetworkPool(
            budget_bytes=budget, max_networks=args.max_networks
        ),
        cache_dir=args.cache_dir,
        window=args.window,
        max_batch=args.max_batch,
        lease_ttl=args.lease_ttl,
    )
    if args.unix:
        await server.start_unix(args.unix)
        print(f"serving on unix:{args.unix}", flush=True)
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        await server.start_tcp(host or "127.0.0.1", int(port))
        bound_host, bound_port = server.tcp_address
        print(f"serving on tcp:{bound_host}:{bound_port}", flush=True)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, server.shutdown)
    await server.serve_forever()
    print("service stopped", flush=True)


def main(argv=None) -> int:
    """CLI entry point."""
    try:
        asyncio.run(_serve(_parse_args(argv)))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
