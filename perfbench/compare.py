"""Compare two benchmark result sets: a parent and a change.

Usage, from the root of a checkout::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``perfbench/run.py --out`` appends, one per
run.  Per workload and metric it prints each side's median and quartiles
and the share of pairs the change won (runs are paired by seed), then a
verdict:

* ``improved`` — the change won at least 9 of 10 pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
* ``no worse`` — the change's median is not worse than the parent's by
  more than the metric's bound, and the parent's own spread is within
  that bound (or every change run beats every parent run);
* ``worse`` — the median is worse by more than the bound, with the
  parent's spread within it;
* ``unresolved`` — anything else: the runs are too noisy to tell.

Per-layer metrics have no bound, so for them ``no worse`` means no worse
at all.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """``{(workload, metric): {seed: value}}`` of the correct runs."""
    out: dict = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("correct"):
                continue
            ctx = record["context"]
            for name, metric in record["metrics"].items():
                out[(ctx["workload"], name)][ctx["seed"]] = metric["value"]
    return out


def pairs_won(parent: dict, change: dict, higher: bool) -> tuple[int, int]:
    """``(won, pairs)`` over the seeds both sides ran."""
    seeds = sorted(set(parent) & set(change))
    sign = 1 if higher else -1
    won = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    return won, len(seeds)


def verdict(parent: list, change: list, won: int, pairs: int,
            higher: bool, bound: float) -> str:
    """The verdict for one workload and metric (see the module doc)."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (cmed - pmed) if higher else (pmed - cmed)
    if pairs and won >= WIN_SHARE * pairs and gain > p3 - p1:
        return "improved"
    noisy = pmed and (p3 - p1) / abs(pmed) > bound
    dominates = (min(change) > max(parent)) if higher else (
        max(change) < min(parent)
    )
    if dominates:
        return "no worse"
    if noisy:
        return "unresolved"
    return "no worse" if gain >= -bound * abs(pmed) else "worse"


def _describe(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rules = {m["name"]: (m["better"] == "higher", m.get("bound", 0.0))
             for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':<17} {'metric':<34} {'parent [q1, q3]':<34} "
          f"{'change [q1, q3]':<34} {'won':<7} verdict")
    worse = False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in rules:
            continue
        higher, bound = rules[name]
        pv, cv = list(parent[key].values()), list(change[key].values())
        won, pairs = pairs_won(parent[key], change[key], higher)
        result = verdict(pv, cv, won, pairs, higher, bound)
        worse |= result == "worse"
        print(f"{workload:<17} {name:<34} {_describe(pv):<34} "
              f"{_describe(cv):<34} {f'{won}/{pairs}':<7} {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
