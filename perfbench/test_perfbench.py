"""Self-test of the benchmark itself (not part of the package's test suite).

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_minimal_run_emits_every_metric_with_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", trace, "--iterations", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    assert all(np.isfinite(entry["value"]) for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "matching_m100", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no factored_pg sources" in proc.stderr


def test_self_time_on_synthetic_tree_adds_up_to_inclusive_time():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]


def test_tracer_self_time_adds_up_on_nested_calls():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("envs.step", leaf)
    traced_middle = tracer.wrap("optim.rollout", middle)
    traced_root = tracer.wrap("optim.collect_batch", traced_middle)
    traced_root()
    traced_root()

    a = tracer.arrays()
    roots = a["parent"] == -1
    inclusive = float(np.sum(a["end"][roots] - a["start"][roots]))
    spans = summarize(tracer)
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(inclusive, rel=1e-9)
    assert spans["envs.step"]["calls"] == 4
    assert spans["optim.rollout"]["calls"] == 2
    assert spans["envs.step"]["self_s"] >= 4 * 0.002
