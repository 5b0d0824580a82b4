"""Compare two sets of benchmark runs, or show the spread of one.

    python3 benchmarks/e2e/compare.py OLD.json NEW.json
    python3 benchmarks/e2e/compare.py --spread RUNS.json

The files are what ``run.py --out FILE`` appends to: several untraced
runs per workload.  One row per workload and end-to-end metric: both
medians, the ratio NEW/OLD with its base, the bound from
``BENCHMARK.json`` and a verdict —

* ``regressed``  NEW's median is worse than OLD's by more than the bound;
* ``improved``   NEW's median is better by more than the bound;
* ``unresolved`` either side's run-to-run spread (quartile distance over
  median) is wider than the bound, so the medians cannot settle it;
* ``unchanged``  otherwise.

``stored_bytes_per_cell`` is an exact count: the same seed must give the
same value on both sides, and a row says so when it does not.

Exits 1 when any row regressed or any run failed an operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: (workload, metric) -> (seed, value) of every untraced run.
Samples = Dict[Tuple[str, str], List[Tuple[int, float]]]

#: Metrics that are counts, not timings: equal seeds must give equal values.
EXACT = ("stored_bytes_per_cell",)


def load_runs(path: str) -> Tuple[Samples, int]:
    """The file's untraced runs by (workload, metric) and seed, plus the
    number of failed operations across all its runs."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    samples: Samples = {}
    failed = 0
    for run in runs:
        failed += run["failed"]
        info = run["info"]
        if info["trace"]:
            continue
        for name, metric in run["metrics"].items():
            samples.setdefault((info["workload"], name), []).append(
                (info["seed"], metric["value"])
            )
    return samples, failed


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(old: List[float], new: List[float], better: str, bound: float) -> str:
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    ratio = statistics.median(new) / statistics.median(old)
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def declared_metrics() -> Dict[str, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def print_spread(path: str) -> int:
    samples, failed = load_runs(path)
    declared = declared_metrics()
    print(f"{'workload':22} {'metric':24} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}")
    wide = 0
    for (workload, name), pairs in sorted(samples.items()):
        values = [value for _, value in pairs]
        bound = declared[name]["bound"]
        share = spread(values)
        flag = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
        wide += share > bound and name != "setup_s"
        print(f"{workload:22} {name:24} {len(values):3d} "
              f"{statistics.median(values):14.6g} {share:8.4f} {bound:6.2f}{flag}")
    print(f"failed operations: {failed}")
    return 1 if wide or failed else 0


def print_comparison(old_path: str, new_path: str) -> int:
    old, old_failed = load_runs(old_path)
    new, new_failed = load_runs(new_path)
    declared = declared_metrics()
    print(f"{'workload':22} {'metric':24} {'old median':>14} {'new median':>14} "
          f"{'new/old':>8} {'bound':>6}  verdict")
    regressed = 0
    for key in sorted(set(old) & set(new)):
        workload, name = key
        metric = declared[name]
        old_values = [value for _, value in old[key]]
        new_values = [value for _, value in new[key]]
        old_median = statistics.median(old_values)
        new_median = statistics.median(new_values)
        outcome = verdict(old_values, new_values, metric["better"], metric["bound"])
        regressed += outcome == "regressed"
        if name in EXACT:
            old_by_seed, new_by_seed = dict(old[key]), dict(new[key])
            shared = set(old_by_seed) & set(new_by_seed)
            differ = sum(old_by_seed[seed] != new_by_seed[seed] for seed in shared)
            outcome += f" (count differs on {differ} of {len(shared)} shared seeds)"
        print(f"{workload:22} {name:24} {old_median:14.6g} {new_median:14.6g} "
              f"{new_median / old_median:8.4f} {metric['bound']:6.2f}  {outcome}")
    for key in sorted(set(old) ^ set(new)):
        print(f"{key[0]:22} {key[1]:24} only in {'OLD' if key in old else 'NEW'}")
    print(f"failed operations: old {old_failed}, new {new_failed}")
    return 1 if regressed or new_failed else 0


def main(argv: List[str]) -> int:
    if len(argv) == 2 and argv[0] == "--spread":
        return print_spread(argv[1])
    if len(argv) == 2:
        return print_comparison(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
