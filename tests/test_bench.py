"""The benchmark runs end to end against this checkout.

`bench/run.py` calls about twenty library functions by name and keyword;
a short traced run of each workload that BENCHMARK.json lists exercises
every one of those calls, so a signature change that breaks the benchmark
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs(workload, tmp_path):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1",
            "--results", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
