"""Smoke test of the benchmark at ``--quick`` sizes.

Run with ``python -m pytest bench -q``. Checks that every metric
BENCHMARK.json names is emitted for every workload, that no output check
fails, and that the benchmark refuses to run without the simulator.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from compare import verdict
from workloads import matches

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_metric_emitted_and_no_check_fails():
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--reps", "1", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = [w["name"] for w in spec()["workloads"]]
    expected = {f"{w}/{m['name']}" for w in names for m in spec()["per_layer"]}
    assert set(result["metrics"]) == expected


def test_single_workload_line_has_exactly_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "whatif-plan", "--quick",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"]
                                      for m in spec()["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_without_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet-decode",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_digest_tolerance():
    assert matches({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-12)]})
    assert not matches({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-6)]})
    assert not matches(1, 2)
    assert not matches(True, 1.0)


@pytest.mark.parametrize("b_values, expected", [
    ([1.00, 1.01, 1.02], "unchanged"),
    ([1.20, 1.21, 1.22], "worse"),
    ([0.80, 0.81, 0.82], "better"),
    ([0.70, 1.00, 1.40], "unresolved"),
])
def test_compare_verdicts(b_values, expected):
    def summary(values):
        return {"median": values[1], "q1": values[0], "q3": values[2],
                "values": values}

    a = summary([0.99, 1.00, 1.01])
    assert verdict(a, summary(b_values), "lower", 0.1)[1] == expected
