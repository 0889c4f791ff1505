"""BENCHMARK.json names what run.py reports, a checkout without the program
makes run.py fail without printing a result, and the helpers that turn raw
timings into metrics do what they say."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import layer_metric_units

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer_metric_units()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "milnor",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_numpy_share_is_read_from_the_importtime_report():
    report = ("import time: self [us] | cumulative | imported package\n"
              "import time:      2857 |     146361 |     numpy\n"
              "import time:      4581 |       7317 | vancyc.cli\n")
    assert run.numpy_import_s(report) == 0.146361
    assert run.numpy_import_s(report.replace("numpy", "numpyx")) == 0.0


def test_steady_median_keeps_the_half_with_the_least_drift():
    samples = [(1.0, 0.5), (2.0, 0.0), (3.0, 0.01), (10.0, 0.9)]
    assert run.steady_median(samples) == 2.5
    assert run.steady_median([(4.0, 0.3)]) == 4.0
    assert run.drift(0.04, 0.06) == pytest.approx(0.4)
