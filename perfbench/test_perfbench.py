"""The benchmark's own test: every workload in smoke mode, traced and untraced.

    python3 -m pytest perfbench/test_perfbench.py

Each run must finish with fail_ratio == 0 and report exactly the metrics
BENCHMARK.json names.  A copy of the benchmark without the package must
refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=175, cwd=root,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_has_no_failed_ops(workload, trace):
    proc = run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0, proc.stdout
    assert result["correct"] is True
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run(tmp_path, "solve-pool", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
