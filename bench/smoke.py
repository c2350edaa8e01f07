"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload of the runner (those BENCHMARK.json lists, and
``codec-roundtrip``, which is run by hand) for one second untraced and traced,
and checks that each run ends with the expected result line:
exactly the keys correct/attempted/failed/metrics, a correct run with no
failed item, and exactly the metrics BENCHMARK.json declares for that mode
with the declared units. It then checks that the runner refuses, with a
non-zero exit and no result line, a directory holding only BENCHMARK.json
and the benchmark's own files, and that the compare command reads the
results. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_result(proc, declared: dict, label: str) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}\n{proc.stderr}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{label}: missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{label}: {name} unit {m.get('unit')!r}, declared {declared[name]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    scratch = BENCH_DIR / "results" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--results", str(scratch / "runs")]
            problems += check_result(run(cmd, ROOT), declared[trace], f"{workload} trace {trace}")

    bare = scratch / "bare"
    for path in BENCH_DIR.glob("*.py"):
        (bare / "bench").mkdir(parents=True, exist_ok=True)
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    name = spec["workloads"][0]["name"]
    proc = run([sys.executable, *spec["command"][1:], "--workload", name, "--seed", "0",
                "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")

    proc = run([sys.executable, str(BENCH_DIR / "compare.py"), str(scratch / "runs"), str(scratch / "runs")], ROOT)
    if proc.returncode != 0 or "unresolved" in proc.stdout or "worse" in proc.stdout:
        problems.append(f"compare of a result set with itself:\n{proc.stdout}{proc.stderr}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
