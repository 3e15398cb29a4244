"""The benchmark's own tests: every workload at smoke size, and the result contract.

    python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_at_smoke_size(trace):
    out = _run("--workload", "all", "--smoke", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    for workload in bench["workloads"]:
        prefix = workload["name"] + "."
        got = {k[len(prefix):]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(prefix)}
        assert got == expected, workload["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("--workload", "rod_naive", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
