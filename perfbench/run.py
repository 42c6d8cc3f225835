"""Campaign benchmark of ``repro-bbr``: one workload, end to end or traced.

    python3 perfbench/run.py --workload fluid-sweep --seed 1 --seconds 40 --trace 0

Runs cycles of the chosen workload (see ``workloads.py``) for about
``--seconds`` seconds, each CLI invocation a fresh process against a fresh
temporary store under ``perfbench/.work``.  Every point's output is checked
against ``reference/<workload>.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of an
outside-in traced run with ``--trace 1``; names and units come from
``BENCHMARK.json``).  The line before it carries the
full record: every sample, the sample count, the machine fingerprint and a
calibration figure.  Exits 2 without a result when ``src/`` or the
references are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS, Campaign, load_reference

#: Metric names and units, as BENCHMARK.json lists them.
SPEC_PATH = harness.ROOT / "BENCHMARK.json"

#: Reported in the full record only.  Points per second of compute divides
#: by (cold wall - set-up), which widens the machine's run-to-run drift
#: past any bound BENCHMARK.json may set; cold_wall_s and setup_s carry the
#: same information with a smaller spread.
RECORD_ONLY = {"points_per_s": "1/s"}


def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric list of BENCHMARK.json."""
    with SPEC_PATH.open() as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def calibrate(loops: int = 200_000, repeats: int = 3) -> float:
    """Ops/s of a fixed pure-Python loop (best of ``repeats``)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i * i % 7
        best = max(best, loops / (time.perf_counter() - start))
    return best


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "calibration_ops_per_s": calibrate(),
    }


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(samples)
    high = None
    if n > 10:
        q = 100.0 * (n - 10) / n
        ordered = sorted(samples)
        high = {"percentile": q, "value": ordered[n - 11]}
    return {"median": statistics.median(samples), "n": n, "high": high, "samples": samples}


class Bench:
    """Runs cycles of one workload and checks every point it produces."""

    def __init__(self, workload: Campaign, reference: dict, tmp: Path, traced: bool):
        self.workload = workload
        self.reference = reference
        self.tmp = tmp
        self.traced = traced
        self.cpus = len(os.sched_getaffinity(0))
        self.cycles = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ----------------------------------------------------------------- checks

    def _check_run(
        self, failed: dict, points: list[tuple], run: harness.ChildRun,
        records: list[dict], where: str,
    ) -> None:
        if run.returncode != 0:
            for point in points:
                failed.setdefault(point, f"{where}: exit code {run.returncode}")
        got = {}
        for record in records:
            point = Campaign.point_of(record)
            if record.get("kind") == "failure":
                failed.setdefault(point, f"{where}: {record.get('error')}")
            else:
                got[point] = record
        for point in points:
            ref = self.reference.get(point)
            if point not in got:
                failed.setdefault(point, f"{where}: no result")
            elif ref is None:
                failed.setdefault(point, f"{where}: point missing from the reference")
            elif not self.workload.matches(got[point], ref):
                failed.setdefault(point, f"{where}: result differs from the reference")

    def _check_flows(self, failed: dict, records: list[dict], spans: list[dict]) -> None:
        """Emulation per-flow sent/delivered/lost counts, exactly."""
        point_of_key = {r["key"]: Campaign.point_of(r) for r in records if "key" in r}
        seen = set()
        for span in spans:
            if span["layer"] != "emulation":
                continue
            point = point_of_key.get(span["key"])
            ref = self.reference.get(point)
            seen.add(point)
            if ref is None or span["flows"] != ref.get("flows"):
                failed.setdefault(point, "traced: per-flow packet counts differ")
        for point in point_of_key.values():
            if point not in seen:
                failed.setdefault(point, "traced: no emulation span for the point")

    # ----------------------------------------------------------------- cycles

    def _pass(
        self, inputs: dict, run_dir: Path, failed: dict, warm: bool,
        trace_dir: Path | None = None,
    ) -> tuple[harness.ChildRun, harness.ChildRun | None, list[dict]]:
        """A cold run into a fresh store in ``run_dir``, then optionally a warm one."""
        run_dir.mkdir(parents=True)
        command = self.workload.command(inputs, run_dir, self.cpus)
        points = self.workload.points(inputs)
        where = "traced" if trace_dir else "cold"
        cold = harness.run_cli(command, run_dir / "cold", self.tmp,
                               trace_dir=trace_dir and trace_dir / "cold")
        store = run_dir / "store.jsonl"
        records = harness.read_store(store)
        self._check_run(failed, points, cold, records, where)
        if not warm:
            return cold, None, records
        warm_run = harness.run_cli(command, run_dir / "warm", self.tmp,
                                   trace_dir=trace_dir and trace_dir / "warm")
        after = harness.read_store(store)
        for record in after[len(records):]:
            failed.setdefault(Campaign.point_of(record), "warm: point recomputed")
        self._check_run(failed, points, warm_run, after, "warm")
        return cold, warm_run, records

    def cycle(self, inputs: dict) -> None:
        cycle_dir = self.tmp / f"cycle{self.cycles}"
        points = self.workload.points(inputs)
        failed: dict[tuple, str] = {}
        if self.traced:
            self._traced_cycle(inputs, cycle_dir, failed)
        else:
            cold, warm, _ = self._pass(inputs, cycle_dir, failed, warm=True)
            if cold.setup_s is None:
                for point in points:
                    failed.setdefault(point, "cold: no point was dispatched")
            else:
                self.add("setup_s", cold.setup_s)
                self.add("cold_wall_s", cold.wall_s)
                self.add("warm_wall_s", warm.wall_s)
                self.add("points_per_s", len(points) / (cold.wall_s - cold.setup_s))
                self.add("cpu_s", cold.cpu_s)
                self.add("peak_rss_mb", cold.maxrss_mb)
        self.cycles += 1
        self.attempted += len(points)
        self.failures.extend(f"{point}: {why}" for point, why in failed.items())

    def _traced_cycle(self, inputs: dict, cycle_dir: Path, failed: dict) -> None:
        untraced, _, _ = self._pass(inputs, cycle_dir / "untraced", failed, warm=False)
        trace_dir = cycle_dir / "spans"
        cold, warm, records = self._pass(
            inputs, cycle_dir / "traced", failed, warm=True, trace_dir=trace_dir
        )
        store = cycle_dir / "traced" / "store.jsonl"
        store_bytes = store.stat().st_size if store.exists() else 0
        processes = []
        for phase, run in (("cold", cold), ("warm", warm)):
            main, workers = layers.read_spans(trace_dir / phase, run.pid)
            processes.append({
                "main": main,
                "workers": workers,
                "wall_s": run.wall_s,
                "import_s": run.probe.get("import_s", 0.0),
                "import_analysis_s": layers.import_time_s(run.stderr, "repro.analysis"),
                "store_bytes": store_bytes,
                "warm": phase == "warm",
            })
            if phase == "cold" and self.workload.substrate == "emulation":
                self._check_flows(failed, records, workers + main)
        for name, value in layers.layer_metrics(processes).items():
            self.add(name, value)
        self.add("trace.overhead_share", cold.wall_s / untraced.wall_s - 1.0)


def warm_up(tmp: Path) -> None:
    """Import the CLI once, untimed, so byte-code and page cache are warm."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=str(harness.ROOT), env=harness.child_env(tmp), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not harness.source_present():
        print(f"error: no repro sources under {harness.SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        reference = load_reference(workload.name)
        units = metric_units("per_layer" if args.trace else "end_to_end")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the {workload.name} reference or {SPEC_PATH.name}: "
              f"{exc}", file=sys.stderr)
        return 2

    harness.become_subreaper()
    machine = fingerprint()
    harness.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=harness.WORK))
    bench = Bench(workload, reference, tmp, traced=bool(args.trace))
    try:
        warm_up(tmp)
        rng = random.Random(args.seed)
        start = time.monotonic()
        while True:
            bench.cycle(workload.draw(rng))
            # Start another cycle while it is expected to end no more than
            # half a cycle past the deadline.
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * elapsed / bench.cycles > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    recorded = units if args.trace else {**units, **RECORD_ONLY}
    missing = [name for name in recorded if name not in bench.samples]
    failed = len(bench.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": bench.cycles,
        "fingerprint": machine,
        "failed_share": failed / bench.attempted,
        "failures": bench.failures[:20],
        "metrics": {
            name: {"unit": recorded[name], **summarize(bench.samples[name])}
            for name in recorded if name in bench.samples
        },
    }
    print(json.dumps({"perfbench": record}))
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": record["metrics"][name]["median"], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
