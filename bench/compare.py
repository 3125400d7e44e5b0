"""Compare two results files written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json

Prints one row per (workload, end-to-end metric) with both medians, the
change from A to B, each side's own spread across its rounds, and a
verdict, judged against the metric's bound in ``BENCHMARK.json``:

``unresolved``  either side's interquartile spread exceeds the bound;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``same``        otherwise.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import load_benchmark, spread


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple:
    """``(verdict, relative change of the median, spread of a, spread of b)``."""
    spread_a, spread_b = spread(a), spread(b)
    median_a, median_b = statistics.median(a), statistics.median(b)
    if not median_a:
        return "unresolved", 0.0, spread_a, spread_b
    change = (median_b - median_a) / median_a
    if spread_a > bound or spread_b > bound:
        return "unresolved", change, spread_a, spread_b
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "worse", change, spread_a, spread_b
    if gain > bound:
        return "better", change, spread_a, spread_b
    return "same", change, spread_a, spread_b


def compare(a: dict, b: dict, bench: dict) -> list[tuple]:
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for spec in bench["end_to_end"]:
            va = a["workloads"][name]["metrics"][spec["name"]]["values"]
            vb = b["workloads"][name]["metrics"][spec["name"]]["values"]
            rows.append(
                (name, spec["name"], spec["unit"], va, vb,
                 *verdict(va, vb, spec["better"], spec["bound"]), spec["bound"])
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(a, b, load_benchmark())
    print(
        f"{'workload':<16} {'metric':<15} {'A':>11} {'B':>11} {'unit':<5} "
        f"{'change':>8} {'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict"
    )
    for name, metric, unit, va, vb, v, change, sa, sb, bound in rows:
        print(
            f"{name:<16} {metric:<15} {statistics.median(va):>11.4g} "
            f"{statistics.median(vb):>11.4g} {unit:<5} {change:>+8.1%} "
            f"{sa:>8.1%} {sb:>8.1%} {bound:>6.0%}  {v}"
        )
    for side, data in (("A", a), ("B", b)):
        for name, entry in data["workloads"].items():
            if entry["failed"]:
                print(f"{side} {name}: {entry['failed']}/{entry['attempted']} failed")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
