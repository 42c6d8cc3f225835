"""Reproduction harness: canonical scenarios, sweeps, and per-figure regeneration.

Everything here but :mod:`.figures` and :mod:`.phase` imports without numpy;
``figures`` (which pulls in every substrate) loads on first attribute
access (PEP 562).
"""

from __future__ import annotations

import importlib
from typing import Any

from . import backends, executor, presets, report, scenarios, sweep
from .executor import ExecutorPolicy
from .presets import CampaignPreset, load_preset
from .scenarios import (
    BUFFER_SWEEP_BDP,
    CCA_MIXES,
    DISCIPLINES,
    TOPOLOGY_PRESETS,
    aggregate_scenario,
    competition_scenario,
    multi_dumbbell_scenario,
    parking_lot_scenario,
    topology_scenario,
    trace_validation_scenario,
)
from .sweep import (
    CampaignFailure,
    CampaignResult,
    SweepPoint,
    run_campaign,
    run_point,
    run_sweep,
    series,
)

__all__ = [
    "backends",
    "executor",
    "figures",
    "presets",
    "report",
    "scenarios",
    "sweep",
    "CampaignFailure",
    "CampaignPreset",
    "CampaignResult",
    "ExecutorPolicy",
    "load_preset",
    "run_campaign",
    "BUFFER_SWEEP_BDP",
    "CCA_MIXES",
    "DISCIPLINES",
    "TOPOLOGY_PRESETS",
    "aggregate_scenario",
    "competition_scenario",
    "multi_dumbbell_scenario",
    "parking_lot_scenario",
    "topology_scenario",
    "trace_validation_scenario",
    "SweepPoint",
    "run_point",
    "run_sweep",
    "series",
]


def __getattr__(name: str) -> Any:
    if name == "figures":
        return importlib.import_module(f"{__name__}.figures")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
