"""Self-test of the benchmark at tiny sizes.

Every metric named in BENCHMARK.json must come out with its unit, every
output check must pass, and every per-layer count must repeat exactly
across two traced runs.  Run from anywhere with
``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True, proc.stdout
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_names_and_units(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(first) == units(second) == want
    counts = [name for name, unit in want.items()
              if unit in ("count", "bytes")]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
