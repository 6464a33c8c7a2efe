"""Each workload at tiny size prints exactly the metrics BENCHMARK.json names."""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH
from workloads import MIN_WARM_PASSES

ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_the_declared_metrics(workload, trace):
    command = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads(done.stdout.strip().splitlines()[-2].split(" ", 1)[1])
    traced = [rep for rep in record["reps"] if rep["mode"] == "traced"]
    # Per-layer sums cover a fixed amount of work, whatever the host's speed.
    assert all(len(rep["warm_s"]) == MIN_WARM_PASSES for rep in traced)
