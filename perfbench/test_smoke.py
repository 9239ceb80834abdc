"""Smoke test for the benchmark itself: tiny-size runs print exactly the
metric names BENCHMARK.json declares, with their units, and pass the
correctness check; without the library sources the benchmark refuses to run.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--size", "tiny"], cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert NAME.match(m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_all_runs_every_workload():
    proc = _run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["correct"] for r in results] == [True] * len(SPEC["workloads"])


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
