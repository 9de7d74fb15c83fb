"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

from spans import Span, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def reduced(name, seed=3):
    return WORKLOADS[name](seed, reduced=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result = run.measure(reduced(name), 0.2)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert result["reported"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = {*run.END_TO_END, *run.REPORT_ONLY}
    if not WORKLOADS[name].simulated:
        expected.remove("sim_ms_per_op")
    assert set(result["reported"]) == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics_emitted_with_units(name):
    result = run.measure_traced(reduced(name), 0.4)
    assert result["correct"], result["problems"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    simulated = WORKLOADS[name].simulated
    assert (metrics["simul.events"]["value"] > 0) == simulated
    assert (metrics["net.protocol_ms"]["value"] > 0) == (not simulated)
    spans_file = ROOT / result["extra"]["spans_file"]
    names = {json.loads(line)["name"] for line in spans_file.read_text().splitlines()}
    spans_file.unlink()
    assert "op" in names and ("net.mesh" in names) == (not simulated)
    assert [p.name for p in spans_file.parent.iterdir() if p.name.startswith("trace-")] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_result_counts_as_failed_op(name):
    result = run.measure(reduced(name), 0.1, corrupt=True)
    assert result["failed"] == 1
    assert result["reported"]["error_rate"]["value"] > 0
    assert not result["correct"]


@pytest.mark.parametrize("name", ["sim-iterate", "sim-minibatch"])
def test_exact_counters_repeat_across_runs(name):
    keys = list(run.EXACT) + ["sim_ms_per_op"]
    first, second = (run.measure_traced(reduced(name), 0.2) for _ in range(2))
    assert first["correct"] and second["correct"]
    (ROOT / first["extra"]["spans_file"]).unlink()
    assert {k: first["metrics"][k] for k in keys} == {k: second["metrics"][k] for k in keys}
    assert first["metrics"]["cluster.messages"]["value"] > 0


def test_cli_prints_result_line_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-iterate",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and set(line["metrics"]) == set(run.END_TO_END)
    report = json.loads(lines[-2].removeprefix("report "))
    assert set(report["host"]) >= {"python", "numpy", "nproc", "seed"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-iterate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_gated_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_self_time_subtracts_overlapping_children():
    parent = Span("p", 0.0, 10.0, "1", None, 0, 1)
    kids = [Span("c", 1.0, 3.0, "2", "1", 0, 1), Span("c", 2.0, 4.0, "3", "1", 0, 1)]
    assert self_time(parent, kids) == pytest.approx(7.0)
