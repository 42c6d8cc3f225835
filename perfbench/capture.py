"""Regenerate ``reference/<workload>.json`` from the current sources.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs every point of each workload's pool once through the same launcher
the benchmark uses (traced, so emulation runs also yield their per-flow
packet counts) and writes the per-point results.  The references are
meant to be captured once, at the commit that introduced the benchmark;
recapturing them after a change to ``src/`` would hide the very
differences the benchmark checks for.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS, Campaign, reference_path


def capture_campaign(workload: Campaign, tmp: Path) -> list[dict]:
    inputs = workload.pool_inputs()
    run_dir = tmp / "pool"
    run_dir.mkdir()
    command = workload.command(inputs, run_dir, len(os.sched_getaffinity(0)))
    run = harness.run_cli(command, run_dir / "run", tmp, trace_dir=tmp / "spans")
    if run.returncode != 0:
        raise RuntimeError(f"{workload.name}: exit code {run.returncode}\n{run.stderr[-2000:]}")
    _, worker_spans = layers.read_spans(tmp / "spans", run.pid)
    flows = {s["key"]: s["flows"] for s in worker_spans if s["layer"] == "emulation"}
    entries = []
    for record in harness.read_store(run_dir / "store.jsonl"):
        if record.get("kind") == "failure":
            raise RuntimeError(f"{workload.name}: failed point {record.get('meta')}")
        entry = {"point": list(Campaign.point_of(record)), "metrics": record["metrics"]}
        if workload.substrate == "emulation":
            entry["flows"] = flows[record["key"]]
        entries.append(entry)
    expected = set(workload.points(inputs))
    got = {tuple(e["point"]) for e in entries}
    if got != expected:
        raise RuntimeError(f"{workload.name}: pool points {sorted(expected ^ got)} differ")
    return entries


def render(name: str, duration_s: float, entries: list[dict]) -> str:
    """The reference document, one point per line."""
    lines = ",\n".join("  " + json.dumps(entry, sort_keys=True) for entry in entries)
    return (
        f'{{"workload": {json.dumps(name)}, "duration_s": {duration_s!r}, "points": [\n'
        f"{lines}\n]}}\n"
    )


def main(names: list[str]) -> int:
    harness.become_subreaper()
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        harness.WORK.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"capture-{name}-", dir=harness.WORK))
        try:
            entries = capture_campaign(workload, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        entries.sort(key=lambda e: json.dumps(e["point"]))
        reference_path(name).parent.mkdir(exist_ok=True)
        reference_path(name).write_text(render(name, workload.duration_s, entries))
        print(f"{name}: {len(entries)} reference points")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
