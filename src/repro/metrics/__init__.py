"""Trace containers and aggregate performance metrics.

The metric containers and summaries of :mod:`.aggregate` import without
numpy; the trace containers and the churn/fairness helpers (which need
numpy) load on first attribute access (PEP 562), so the store and the sweep
planner never pay for them.
"""

from __future__ import annotations

import importlib
from typing import Any

from .aggregate import (
    AggregateMetrics,
    LinkMetrics,
    MetricsSummary,
    aggregate_metrics,
    buffer_occupancy_percent,
    jitter_ms,
    link_metrics,
    loss_percent,
    summarize_metrics,
    utilization_percent,
)

#: Lazily imported names, by defining submodule.
_LAZY = {
    "active_flow_counts": "churn",
    "active_flow_mask": "churn",
    "active_jain_fairness": "churn",
    "fct_percentile_s": "churn",
    "flow_completion_times": "churn",
    "mean_active_flows": "churn",
    "jain_index": "fairness",
    "per_cca_share": "fairness",
    "trace_fairness": "fairness",
    "FlowTrace": "traces",
    "LinkTrace": "traces",
    "Trace": "traces",
    "resample": "traces",
}
_SUBMODULES = frozenset({"aggregate", "churn", "fairness", "traces"})


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AggregateMetrics",
    "LinkMetrics",
    "MetricsSummary",
    "aggregate_metrics",
    "link_metrics",
    "summarize_metrics",
    "buffer_occupancy_percent",
    "jitter_ms",
    "loss_percent",
    "utilization_percent",
    "active_flow_counts",
    "active_flow_mask",
    "active_jain_fairness",
    "fct_percentile_s",
    "flow_completion_times",
    "mean_active_flows",
    "jain_index",
    "per_cca_share",
    "trace_fairness",
    "FlowTrace",
    "LinkTrace",
    "Trace",
    "resample",
]
