"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs one cycle of each workload untraced and traced (``--seconds 1``) and
asserts that the result line carries every metric of ``BENCHMARK.json``
as a number with its unit, that every point matched its
reference, that ``failed_share`` is computed, and that the traced run
shows the workload split the benchmark is built on.  Finally it checks
that a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes
the benchmark fail without printing a result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
from workloads import WORKLOADS

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

#: Per-layer counters that must be zero (or not) on each workload.
SPLIT = {
    "fluid-sweep": {"core.calls": ">0", "emulation.calls": "0", "analysis.calls": "0",
                    "executor.dispatched": "0", "core.lockstep_width": ">1",
                    "store.hit_share": "1"},
    "emulation-sweep": {"core.calls": "0", "emulation.calls": ">0", "analysis.calls": "0",
                        "executor.dispatched": ">0", "store.hit_share": "1"},
    "analytic-sweep": {"core.calls": "0", "emulation.calls": "0", "analysis.calls": ">0",
                       "executor.dispatched": "0", "store.hit_share": "1"},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int) -> list[str]:
    errors = []
    proc = run(harness.ROOT, workload, trace)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["perfbench"]
    specs = SPEC["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    for spec in specs:
        got = result["metrics"].get(spec["name"], {})
        if got.get("unit") != spec["unit"] or not isinstance(got.get("value"), int | float):
            errors.append(f"{workload}: {spec['name']} emitted as {got}")
    if not (result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]):
        errors.append(f"{workload}: {result['failed']}/{result['attempted']} failed: "
                      f"{record['failures'][:3]}")
    if record.get("failed_share") != result["failed"] / result["attempted"]:
        errors.append(f"{workload}: failed_share {record.get('failed_share')} not computed")
    if trace:
        for name, rule in SPLIT[workload].items():
            value = result["metrics"][name]["value"]
            ok = value > float(rule[1:]) if rule.startswith(">") else value == float(rule)
            if not ok:
                errors.append(f"{workload}: {name} = {value}, expected {rule}")
    return errors


def check_bare_directory() -> list[str]:
    """Without ``src/`` the benchmark must fail and print no result."""
    harness.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.WORK))
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "fluid-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main(names: list[str]) -> int:
    errors = []
    for name in names or list(WORKLOADS):
        for trace in (0, 1):
            found = check_result(name, trace)
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    errors += check_bare_directory()
    for error in errors:
        print("error:", error, file=sys.stderr)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
