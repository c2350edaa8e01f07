"""The benchmark runs end to end against this checkout.

`bench/run.py` calls about twenty library functions by name and keyword;
a short traced run of each workload that BENCHMARK.json lists exercises
every one of those calls, so a signature change that breaks the benchmark
fails here.

Each run's seed-0 `output_digest`, a hash of every item's outputs in the
first round, is pinned too, so a change that moves what the benchmark
computes fails here instead of only drifting. Like the float digests of
`tests/test_parity.py`, they are those of OpenBLAS's SkylakeX kernel: the
`tradeoff-sweep` outputs are restored pixels and the `oracle-check` ones
include `fm_identity_check`'s matrix products, and a kernel that rounds
its products differently gives other digests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
OUTPUT_DIGESTS = {"tradeoff-sweep": "44e452f38bc7f22f", "oracle-check": "00074e55a4fd9cbb"}


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
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert f"output_digest {OUTPUT_DIGESTS[workload]}" in lines
