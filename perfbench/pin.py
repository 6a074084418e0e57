"""Record the pinned outputs the workloads check their runs against.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --workload sparse_broadcast --seeds 0-31

Computes the output of each seed with the current program (no timing)
and merges it into ``perfbench/pins.json``.  Re-pin only when a change
is meant to alter results; a benchmark run whose output differs from
its pin fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import PINS  # noqa: E402

#: Workloads whose outputs are pinned per seed.
PINNED = ("sparse_broadcast", "traffic_csma")


def output(workload: str, seed: int):
    """The output a run of ``workload`` on ``seed`` must reproduce."""
    module = importlib.import_module(f"workloads.{workload}")
    if workload == "sparse_broadcast":
        return module.output_of(module.sweep_once(module.setup(seed), seed))
    net, flows = module.setup(seed)
    return module.output_of(module.play(net, flows, seed))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/pin.py")
    parser.add_argument("--workload", choices=PINNED, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range such as 0-31")
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    table = pins.setdefault(args.workload, {})
    for seed in args.seeds:
        table[str(seed)] = output(args.workload, seed)
        print(f"{args.workload} seed {seed}: {table[str(seed)]}", flush=True)
        PINS.write_text(render(pins))
    return 0


def render(pins: dict) -> str:
    """JSON with one line per pinned seed."""
    blocks = []
    for workload in sorted(pins):
        seeds = sorted(pins[workload], key=int)
        rows = ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(pins[workload][s])}"
            for s in seeds
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
