"""Shared configuration of the benchmark harness.

Every benchmark regenerates the data behind one figure or table of the
paper and prints the reproduced series, so running

    pytest benchmarks/ --benchmark-only

produces the full set of reproduced results (recorded in EXPERIMENTS.md).

By default the aggregate sweeps use a reduced buffer grid (1, 4, 7 BDP) and
a slightly shortened trace duration so the whole suite completes in a few
minutes on a laptop; set ``REPRO_BENCH_FULL=1`` to run the paper's full
1-7 BDP grid and durations.

The perf benchmarks evaluate every gate on every run but write their
``benchmarks/BENCH_*.json`` trajectories only when ``REPRO_BENCH_RECORD=1``
is set (CI's ``bench`` job sets it), so a plain test run leaves the
tracked files untouched.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Buffer grid used by the aggregate-figure benchmarks.
BENCH_BUFFERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0) if FULL else (1.0, 4.0, 7.0)
#: Duration of the aggregate scenarios.
BENCH_DURATION = 5.0 if FULL else 4.0
#: Duration of the single-flow trace validations.
TRACE_DURATION = 30.0 if FULL else 10.0
#: Integration step used by the benchmarks.
BENCH_DT = 2.5e-4
#: Whether the perf benchmarks write their ``BENCH_*.json`` files.
RECORD = os.environ.get("REPRO_BENCH_RECORD", "0") == "1"


def record_results(path: Path, payload: dict, replace: bool = False) -> None:
    """Write ``payload`` to a BENCH json file when :data:`RECORD` is set.

    By default the payload's keys are merged into the existing file, so
    several benchmarks can share one file; ``replace`` overwrites it.
    """
    if not RECORD:
        return
    results: dict = {}
    if not replace and path.exists():
        try:
            results = json.loads(path.read_text())
        except json.JSONDecodeError:
            results = {}
    results.update(payload)
    path.write_text(json.dumps(results, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Keep benchmarks hermetic: never pick up an operator's REPRO_STORE file."""
    monkeypatch.delenv("REPRO_STORE", raising=False)


def run_once(benchmark, func, *args, **kwargs):
    """Run a benchmark exactly once (the figures are deterministic and heavy)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def bench_buffers():
    return BENCH_BUFFERS


@pytest.fixture(scope="session")
def bench_duration():
    return BENCH_DURATION
