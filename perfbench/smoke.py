"""Self-test of the benchmark on 4 x 4 tori.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--tiny``, and
checks that each run prints every metric of ``BENCHMARK.json`` with its
unit, that no case failed (``failed_ratio`` is 0), and that the same
seed gives the same verdict digest.  Then it copies only
``BENCHMARK.json`` and ``perfbench/`` into an empty directory and checks
that the benchmark refuses to run there.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    argv += ["--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int) -> str:
    """Checks one tiny run; returns its verdict digest."""
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or detail["failed_ratio"] != 0:
        raise AssertionError(f"{workload} trace={trace} failed: {detail['problems']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{workload} trace={trace}: metric names or units differ: {sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")
    print(f"ok  {workload:10s} trace={trace} attempted={result['attempted']}", flush=True)
    return detail["digest"]


def check_bare_directory() -> None:
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in (ROOT / "perfbench").glob("*.*"):
            shutil.copy(path, bare / "perfbench" / path.name)
        proc = run(bare, "spectral", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory refused", flush=True)


def main() -> int:
    try:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            digests = {check_run(workload, trace) for trace in (0, 1)}
            if len(digests) != 1:
                raise AssertionError(f"{workload}: verdict digest differs between two runs of one seed")
        check_bare_directory()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
