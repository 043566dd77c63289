"""Smoke check of the benchmark itself, at tiny scale (about a minute).

Usage: python3 perfbench/smoke.py     (from the root of a clickrank checkout)

For every workload in BENCHMARK.json it asserts that

* an untraced run prints every end-to-end metric with its unit, is correct
  and fails nothing;
* a traced run prints every per-layer metric with its unit;
* a run whose dense output is damaged before the checks (``--corrupt``)
  counts that as a failed operation and is not correct.

Exits 1 at the first assertion that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} {extra}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: unexpected result keys {sorted(result)}")
    return result


def expect_metrics(result: dict, listed: list[dict], label: str) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in listed}
    if set(got) != set(want):
        raise AssertionError(f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit or not isinstance(got[name]["value"], float):
            raise AssertionError(f"{label}: {name} printed as {got[name]}, expected a number in {unit}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            plain = run(workload, 0)
            expect_metrics(plain, bench["end_to_end"], f"{workload} trace=0")
            if not plain["correct"] or plain["failed"] != 0:
                raise AssertionError(f"{workload}: clean run reported {plain['failed']} failed operations")
            zero = [m["name"] for m in bench["end_to_end"] if plain["metrics"][m["name"]]["value"] <= 0.0]
            if zero:
                raise AssertionError(f"{workload}: end-to-end metrics not above 0: {zero}")
            expect_metrics(run(workload, 1), bench["per_layer"], f"{workload} trace=1")
            broken = run(workload, 0, "--corrupt")
            if broken["correct"] or broken["failed"] < 1:
                raise AssertionError(f"{workload}: a corrupted dense run was not counted as failed")
            print(f"{workload}: ok ({plain['attempted']} operations, corrupted output counted as failed)")
    except AssertionError as exc:
        print(f"smoke check failed: {exc}", file=sys.stderr)
        return 1
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
