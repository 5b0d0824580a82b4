"""Tests of the benchmark harness itself (not of the system).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; outside
tier-1's ``testpaths`` on purpose.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import _timing, compare
from benchmarks.e2e.inputs import make_documents, make_vectors
from benchmarks.e2e.oracle import build_cold
from benchmarks.e2e.workloads import SMOKE, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
@pytest.fixture
def fake_clock(monkeypatch):
    """A clock the test advances by hand."""
    state = {"now": 0.0}
    monkeypatch.setattr(_timing, "wall_clock", lambda: state["now"])
    monkeypatch.setattr(_timing, "cpu_clock", lambda: state["now"] / 2)

    def advance(seconds: float) -> None:
        state["now"] += seconds

    return advance


def test_self_time_of_nested_and_sibling_spans(fake_clock):
    rec = _timing.SpanRecorder("t", trace=True)
    with rec.timed("run") as root:
        fake_clock(1.0)                      # root's own
        with rec.timed("mapping.store") as store:
            fake_clock(2.0)                  # store's own
            with rec.timed("nosqldb.insert"):
                fake_clock(3.0)
            with rec.timed("nosqldb.insert"):
                fake_clock(4.0)
        with rec.timed("etl.extract"):
            fake_clock(5.0)
        fake_clock(0.5)                      # root's own again
    assert root.wall_s == pytest.approx(15.5)
    assert store.wall_s == pytest.approx(9.0)
    assert store.self_s == pytest.approx(2.0)
    assert root.self_s == pytest.approx(1.5)
    assert rec.by_name("self_s")["nosqldb.insert"] == pytest.approx([3.0, 4.0])
    layers, unattributed = rec.layer_totals(root)
    assert layers == pytest.approx({"mapping": 2.0, "nosqldb": 7.0, "etl": 5.0})
    assert sum(layers.values()) + unattributed == pytest.approx(root.wall_s)
    assert [span["parent"] for span in rec.as_json()] == [None, 0, 1, 1, 0]
    assert store.cpu_s == pytest.approx(4.5)


def test_untraced_recorder_keeps_durations_but_no_spans(fake_clock):
    rec = _timing.SpanRecorder("t", trace=False)
    with rec.timed("mapping.store") as store:
        fake_clock(2.0)
    assert store.wall_s == pytest.approx(2.0)
    assert rec.spans == []


def test_tail_percentile_needs_ten_samples_beyond():
    assert _timing.tail_percentile(list(range(1000))) == ("p99", 989)
    assert _timing.tail_percentile(list(range(999)))[0] == "p95"
    assert _timing.tail_percentile(list(range(200))) == ("p95", 189)
    assert _timing.tail_percentile(list(range(100))) == ("p90", 89)
    assert _timing.tail_percentile(list(range(99))) == ("max", 98)
    assert _timing.percentile([5, 1, 3], 0.5) == 3


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    first = list(make_documents(SMOKE, 11))
    again = list(make_documents(SMOKE, 11))
    other = list(make_documents(SMOKE, 12))
    assert [d.content for d in first] == [d.content for d in again]
    assert [d.content for d in first] != [d.content for d in other]
    cube = build_cold(first)
    assert cube.n_source_tuples == SMOKE.tuples
    assert make_vectors(cube, 11, 50) == make_vectors(cube, 11, 50)
    assert make_vectors(cube, 11, 50) != make_vectors(cube, 12, 50)


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
def test_contract_names_and_workloads():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS
    ]
    names = [w["name"] for w in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [metric["name"] for metric in CONTRACT[section]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def run_benchmark(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("workload", [spec.name for spec in WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(workload, trace, tmp_path):
    trace_out = tmp_path / "trace.json"
    done = run_benchmark(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--smoke",
        "--trace", str(trace), "--trace-out", str(trace_out),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(value, (int, float)) for value in values.values())
    for name in values:
        assert f"\n{name} " in done.stdout
    if not trace:
        assert all(value > 0 for value in values.values())
        return
    layers = sum(v for name, v in values.items() if name.startswith("layer."))
    assert layers + values["unattributed_s"] == pytest.approx(values["wall_s"])
    assert values["telemetry.trace_overhead_ratio"] > 0
    spans = json.loads(trace_out.read_text(encoding="utf-8"))["spans"]
    assert spans[0]["name"] == "run" and spans[0]["parent"] is None
    assert all(span["parent"] is not None for span in spans[1:])


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no source tree
    to measure, so the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(
        "--workload", WORKLOADS[0].name, "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, script=tmp_path / "benchmarks/e2e/run.py",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1) == "improved"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1) == "regressed"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_compare_reads_run_files(tmp_path, capsys):
    def runs(scale):
        return {"runs": [
            {"info": {"workload": "feed_to_nosql", "trace": 0, "seed": seed},
             "failed": 0,
             "metrics": {"point_p50_ms": {"value": scale * (1 + seed / 1000), "unit": "ms"}}}
            for seed in range(5)
        ]}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(runs(1.0)), encoding="utf-8")
    new.write_text(json.dumps(runs(2.0)), encoding="utf-8")
    assert compare.main([str(old), str(new)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main(["--spread", str(old)]) == 0
