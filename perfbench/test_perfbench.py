"""The benchmark's own test: every workload at reduced size on a held-out seed,
untraced and traced, must finish with no failed op and report exactly the
metrics BENCHMARK.json names.  Kept out of the tier-1 suite:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7919  # not a seed the benchmark was tuned on

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_reduced_run_on_held_out_seed(workload, trace):
    proc = _run(ROOT, workload, trace, "--reduced")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0, proc.stderr
    assert result["correct"] is True
    declared = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "spectra", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
