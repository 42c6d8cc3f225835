"""Layer map of ``repro-bbr`` and the span recorder of the traced run.

The traced run wraps each layer's public entry points from outside the
package: every target is patched under the name its *caller* looks it up
by (``sweep`` imports ``simulate_many`` by name, so the wrapper goes on
``repro.experiments.sweep.simulate_many``, not on the simulator module).
Each wrapped call becomes one span; a span's self time is its duration
minus the durations of the spans nested inside it.  Spans are kept in
memory per process and appended to ``spans-<pid>.jsonl`` whenever the
process's span stack empties, so forked pool workers (which exit without
running ``atexit`` hooks) still leave their spans behind.

This module is imported by the child launcher (``Recorder``,
``install_dispatch_probe``) and by ``run.py`` (``read_spans``,
``layer_metrics``); it imports nothing from ``repro`` at module level, so
``run.py`` never pays the package's import cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


def _core_batch(args: tuple, result: Any) -> dict:
    configs = list(args[0])
    return {"width": len(configs), "steps": _steps(configs[0]) if configs else 0}


def _steps(config: Any) -> int:
    # Same step count the sweep layer records for a lockstep chunk.
    return int(round(config.duration_s / config.fluid.dt)) + 1


def _emulation(args: tuple, result: Any) -> dict:
    from repro.experiments.store import scenario_key

    runner = args[0]
    flows = [
        [s.sent_count, s.delivered_count, s.lost_count] for s in runner.senders.values()
    ]
    key = scenario_key(runner.config, "emulation", runner.record_interval_s, runner.scheduler)
    return {"key": key, "flows": flows, "sent": sum(f[0] for f in flows)}


def _analysis(args: tuple, result: Any) -> dict:
    return {"numerical": getattr(result, "method", "") == "numerical"}


def _store_get(args: tuple, result: Any) -> dict:
    return {"hit": result is not None}


def _executor(args: tuple, result: Any) -> dict:
    executor = args[0]
    attempts = list(result.attempts.values())
    pooled = bool(executor.policy.pooled)
    return {
        "dispatched": sum(attempts) if pooled else 0,
        "retries": sum(max(0, a - 1) for a in attempts),
    }


#: ``(target, layer, extras)``: ``target`` is ``module:attribute.path`` as
#: the calling module looks it up; ``extras`` derives counters from the
#: call's arguments and result.  The ``cli`` layer is the CLI's own work
#: (building the parser, parsing arguments, merging the preset, rendering
#: the table), not ``cli.main`` as a whole: time spent in code that no
#: target covers stays in ``unattributed_s``.
TARGETS: tuple[tuple[str, str, Callable[[tuple, Any], dict] | None], ...] = (
    ("repro.cli:build_parser", "cli", None),
    ("repro.cli:argparse.ArgumentParser.parse_args", "cli", None),
    ("repro.cli:_apply_campaign_preset", "cli", None),
    ("repro.cli:_summary_display_rows", "cli", None),
    ("repro.experiments.report:format_table", "cli", None),
    ("repro.cli:resolve_store", "store.load", None),
    ("repro.experiments.sweep:run_campaign", "sweep", None),
    ("repro.experiments.sweep:grid_point_keys", "sweep.plan", None),
    ("repro.experiments.sweep:_cache_key", "sweep.plan", None),
    ("repro.experiments.sweep:scenario_key", "sweep.plan", None),
    ("repro.experiments.sweep:_point_config", "scenarios", None),
    ("repro.experiments.sweep:simulate_many", "core", _core_batch),
    ("repro.experiments.sweep:aggregate_metrics", "metrics", None),
    ("repro.experiments.sweep:summarize_metrics", "metrics", None),
    ("repro.analysis:analyze_scenario", "analysis", _analysis),
    ("repro.analysis:buffer_never_binds", "analysis", None),
    ("repro.emulation.runner:EmulationRunner.run", "emulation", _emulation),
    ("repro.experiments.store:SweepStore.get", "store", _store_get),
    ("repro.experiments.store:SweepStore.put", "store", None),
    ("repro.experiments.store:SweepStore.put_failure", "store", None),
    ("repro.experiments.executor:ResilientExecutor.run", "executor", _executor),
    ("repro.experiments.executor:wait", "executor.wait", None),
)

#: Entry points whose first call marks the dispatch of the first grid
#: point (the end of set-up) in an untraced run.
DISPATCH_TARGETS: tuple[str, ...] = (
    "repro.experiments.sweep:simulate_many",
    "repro.experiments.executor:ResilientExecutor.run",
)


def resolve(target: str) -> tuple[Any, str]:
    """The object owning ``target``'s attribute, and the attribute name."""
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


def patch(target: str, make: Callable[[Callable], Callable]) -> None:
    owner, attr = resolve(target)
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def install_dispatch_probe(probe: dict) -> None:
    """Record (monotonic) when the first grid point is dispatched."""

    def make(fn: Callable) -> Callable:
        def first_dispatch(*args: Any, **kwargs: Any) -> Any:
            probe.setdefault("dispatch_t", time.monotonic())
            return fn(*args, **kwargs)

        return first_dispatch

    for target in DISPATCH_TARGETS:
        patch(target, make)


class Recorder:
    """In-memory span stack of one process, flushed per top-level span."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.stack: list[float] = []
        self.spans: list[dict] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked worker inherits the parent's open spans; they are not its own.
        self.stack = []
        self.spans = []

    def install(self) -> None:
        for target, layer, extras in TARGETS:
            patch(target, functools.partial(self._wrap, layer=layer, extras=extras))

    def _wrap(self, fn: Callable, layer: str, extras: Callable | None) -> Callable:
        name = fn.__qualname__

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.stack.append(0.0)
            start = time.perf_counter()
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._close(layer, name, start, end, extras if ok else None, args, result)

        return traced

    def _close(
        self,
        layer: str,
        name: str,
        start: float,
        end: float,
        extras: Callable | None,
        args: tuple,
        result: Any,
    ) -> None:
        children = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1] += duration
        span = {"layer": layer, "name": name, "dur": duration, "self": duration - children}
        if extras is not None:
            span.update(extras(args, result))
        self.spans.append(span)
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def read_spans(trace_dir: Path, main_pid: int) -> tuple[list[dict], list[dict]]:
    """``(main-process spans, worker spans)`` of one traced process tree."""
    main: list[dict] = []
    workers: list[dict] = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with path.open() as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        (main if pid == main_pid else workers).extend(spans)
    return main, workers


def import_time_s(stderr_text: str, module: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``module`` (0 if never imported)."""
    total_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            total_us += int(fields[1])
    return total_us / 1e6


def _sum(spans: list[dict], layer: str, field: str = "self") -> float:
    return sum(s.get(field, 0) for s in spans if s["layer"] == layer)


def _count(spans: list[dict], layer: str) -> int:
    return sum(1 for s in spans if s["layer"] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.

    Each entry of ``processes`` describes one traced CLI process:
    ``main``/``workers`` span lists, ``wall_s`` (measured by ``run.py``),
    ``import_s``, ``import_analysis_s``, ``store_bytes`` and ``warm``.
    Layer ``busy_s`` figures sum self time over every process of the tree;
    ``unattributed_s`` is wall time minus the main process's attributed
    time (imports plus span self times), where ``executor.wait_s`` stands
    for the time the workers' spans cover.
    """
    spans = [s for p in processes for s in p["main"] + p["workers"]]
    warm_gets = [
        s for p in processes if p["warm"]
        for s in p["main"] if s["layer"] == "store" and "hit" in s
    ]
    core_busy = _sum(spans, "core")
    core_calls = _count(spans, "core")
    scenario_steps = sum(s["width"] * s["steps"] for s in spans if s["layer"] == "core")
    scenarios_integrated = _sum(spans, "core", "width")
    emulation_busy = _sum(spans, "emulation")
    sent = _sum(spans, "emulation", "sent")
    analysis_calls = [s for s in spans if s["layer"] == "analysis" and "numerical" in s]
    gets = [s for s in spans if s["layer"] == "store" and "hit" in s]
    attributed = sum(
        p["import_s"] + sum(s["self"] for s in p["main"]) for p in processes
    )
    return {
        "setup.import_s": sum(p["import_s"] for p in processes),
        "setup.import_analysis_s": sum(p["import_analysis_s"] for p in processes),
        "cli.self_s": _sum(spans, "cli"),
        "sweep.plan_s": _sum(spans, "sweep.plan"),
        "sweep.self_s": _sum(spans, "sweep"),
        "scenarios.build_s": _sum(spans, "scenarios"),
        "scenarios.calls": _count(spans, "scenarios"),
        "core.busy_s": core_busy,
        "core.calls": core_calls,
        "core.scenario_steps": scenario_steps,
        "core.scenario_steps_per_s": _ratio(scenario_steps, core_busy),
        "core.lockstep_width": _ratio(scenarios_integrated, core_calls),
        "emulation.busy_s": emulation_busy,
        "emulation.calls": _count(spans, "emulation"),
        "emulation.sent_pkts": sent,
        "emulation.pkts_per_s": _ratio(sent, emulation_busy),
        "analysis.busy_s": _sum(spans, "analysis"),
        "analysis.calls": _count(spans, "analysis"),
        "analysis.numerical_share": _ratio(
            sum(1 for s in analysis_calls if s["numerical"]), len(analysis_calls)
        ),
        "metrics.busy_s": _sum(spans, "metrics"),
        "metrics.calls": _count(spans, "metrics"),
        "store.load_s": _sum(spans, "store.load"),
        "store.busy_s": _sum(spans, "store"),
        "store.gets": len(gets),
        "store.puts": _count(spans, "store") - len(gets),
        "store.hit_share": _ratio(sum(1 for s in warm_gets if s["hit"]), len(warm_gets)),
        "store.bytes": max((p["store_bytes"] for p in processes), default=0),
        "executor.busy_s": _sum(spans, "executor"),
        "executor.wait_s": _sum(spans, "executor.wait"),
        "executor.dispatched": _sum(spans, "executor", "dispatched"),
        "executor.retries": _sum(spans, "executor", "retries"),
        "unattributed_s": sum(p["wall_s"] for p in processes) - attributed,
    }
