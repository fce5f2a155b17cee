"""Tiny-size self-test of the benchmark.

Runs every workload at ``--scale tiny``, untraced and traced, and checks
that each run is correct and prints every metric BENCHMARK.json names,
both in its tables and in the final JSON line.  Then checks that the
benchmark refuses to run, printing no result, where the program source is
missing.  Takes well under a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(trace: int, expected: list[str]) -> list[str]:
    done = bench(ROOT, "--workload", "all", "--scale", "tiny", "--seconds", "0", "--trace", str(trace))
    if done.returncode != 0:
        return [f"trace={trace}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    *tables, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"trace={trace}: not correct: {last[:200]}")
    text = "\n".join(tables)
    for workload in workloads.WORKLOADS:
        for metric in expected:
            if f"{workload}.{metric}" not in result["metrics"]:
                problems.append(f"trace={trace}: {workload}.{metric} missing from the JSON")
        if f"== {workload} " not in text:
            problems.append(f"trace={trace}: no table for {workload}")
    for metric in expected:
        layer, _, field = metric.rpartition(".")
        if metric not in text and not (layer in text and field in text):
            problems.append(f"trace={trace}: {metric} missing from the tables")
    if trace == 0:
        for metric in run.SERVE_DETAIL:
            if metric not in text:
                problems.append(f"serve_stream detail {metric} missing from the table")
    return problems


def check_refuses_without_source() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = bench(bare, "--workload", "mst_random", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["a checkout without the program source still produced a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_run(0, [metric["name"] for metric in spec["end_to_end"]])
    problems += check_run(1, [metric["name"] for metric in spec["per_layer"]])
    problems += check_refuses_without_source()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
