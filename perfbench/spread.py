"""Run-to-run spread of the end-to-end metrics over a set of benchmark runs.

    python3 perfbench/spread.py perfbench/out/BENCH_*_trace0.json

Groups untraced output files by workload, machine and code (files from
different machines or commits are never pooled), and prints for each metric
the median over runs, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (q3 - q1) as a
share of the median, and that spread as a share of the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("git_commit", "source_sha256", "python", "numpy", "nproc", "cpu_model", "run_seconds")


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        meta = record["metadata"]
        if meta["traced"]:
            continue
        key = (meta["workload"],) + tuple(meta[k] for k in COMPARABLE)
        groups.setdefault(key, []).append(record)
    for key, records in sorted(groups.items()):
        seeds = sorted(r["metadata"]["seed"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        print(f"{key[0]}: {len(records)} runs, seeds {seeds}, failed {failed} of {attempted}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            print(f"  {name:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {spread / bound:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
