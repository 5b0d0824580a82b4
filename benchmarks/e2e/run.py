"""The benchmark command named in ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <int> \
        [--seconds <s>] [--trace <0|1>] [--out FILE] [--trace-out FILE]

Each workload runs in a fresh child interpreter with ``PYTHONHASHSEED=0``
and every ``REPRO_*`` variable cleared, so the shipped defaults are what
is measured.  The child prints every metric by name with its unit and,
as its last line, the JSON result object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
#: A child that outlives this is killed; the driver allows 180 s.
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, measures nothing")
    parser.add_argument("--out", help="append this run's result document to FILE")
    parser.add_argument("--trace-out", help="write the traced run's spans to FILE")
    parser.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.contract = contract
    args.names = names
    return args


# ----------------------------------------------------------------------
# parent: one fresh interpreter per workload run
# ----------------------------------------------------------------------
def run_children(args: argparse.Namespace, argv: List[str]) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    workloads = args.names if args.workload == "all" else [args.workload]
    worst = 0
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve()), *argv,
                   "--workload", name, "--in-child"]
        try:
            done = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        worst = max(worst, abs(done.returncode))
    return worst


# ----------------------------------------------------------------------
# child: the run itself
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.nosqldb.cache import (
        DEFAULT_BLOCK_CACHE_BYTES,
        DEFAULT_ROW_CACHE_BYTES,
    )

    from benchmarks.e2e._timing import tail_percentile
    from benchmarks.e2e.workloads import WORKLOADS_BY_NAME, Run, smoke_spec

    contract = args.contract
    spec = WORKLOADS_BY_NAME[args.workload]
    if args.smoke:
        spec = smoke_spec(spec)
    run = Run(spec, args.seed, args.seconds, bool(args.trace))
    run.execute()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    section = "per_layer" if args.trace else "end_to_end"
    values = run.per_layer() if args.trace else run.end_to_end(peak_rss_mb)
    metrics: Dict[str, dict] = {}
    for declared in contract[section]:
        name = declared["name"]
        metrics[name] = {"value": values[name], "unit": declared["unit"]}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json {section}: {undeclared}")

    oracle = run.inputs.oracle
    points = run.samples["point_s"]
    tail_label, tail = tail_percentile(points)
    budgets = spec.cache_bytes or (DEFAULT_BLOCK_CACHE_BYTES, DEFAULT_ROW_CACHE_BYTES)
    info = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "schema": spec.schema,
        "ingest": "stream" if spec.stream else "batch",
        "stations": spec.shape.stations,
        "days": spec.shape.days,
        "snapshots_per_day": spec.shape.snapshots_per_day,
        "documents": len(run.inputs.documents),
        "tuples": oracle.n_tuples,
        "cells": oracle.n_cells,
        "nodes": oracle.n_nodes,
        "block_cache_bytes": budgets[0],
        "row_cache_bytes": budgets[1],
        "write_cycles": len(run.samples["pipeline_s"]),
        "read_passes": run.timed_passes,
        "point_samples": len(points),
        f"point_{tail_label}_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "machine_speed": run.machine_speed(),
        "failures": run.tally.reasons,
    }
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    if args.out:
        samples = {
            name: values for name, values in run.samples.items()
            if not name.startswith("point_s")
        }
        append_run(Path(args.out), {"info": info, **result, "samples": samples})
    if args.trace and args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"info": info, "spans": run.rec.as_json()}, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def append_run(path: Path, document: dict) -> None:
    """``FILE`` holds ``{"runs": [...]}``; ``compare.py`` reads two of them."""
    runs = []
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if args.in_child:
        return run_workload(args)
    return run_children(args, argv)


if __name__ == "__main__":
    sys.exit(main())
