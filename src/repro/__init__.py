"""repro — fluid models, packet-level emulation, and analysis of BBRv1/BBRv2.

This library reproduces "Model-Based Insights on the Performance, Fairness,
and Stability of BBR" (Scherrer, Legner, Perrig, Schmid; ACM IMC 2022):

* :mod:`repro.core` — the paper's fluid models of BBRv1, BBRv2, Reno and
  CUBIC plus the delay-differential-equation network model and integrator.
* :mod:`repro.emulation` — a packet-level discrete-event emulator standing
  in for the paper's mininet testbed.
* :mod:`repro.metrics` — traces and the aggregate metrics of the evaluation.
* :mod:`repro.analysis` — reduced models, equilibria and Lyapunov stability
  (Theorems 1-5).
* :mod:`repro.experiments` — scenario definitions, sweeps and per-figure
  regeneration of the paper's evaluation.

Quickstart::

    from repro.config import dumbbell_scenario
    from repro.core import simulate
    from repro.metrics import aggregate_metrics

    config = dumbbell_scenario(["bbr1"] * 5 + ["reno"] * 5, buffer_bdp=2.0)
    trace = simulate(config)
    print(aggregate_metrics(trace))

The subpackages load on first use, so ``import repro`` imports no numpy.
"""

from __future__ import annotations

import importlib
from typing import Any

from . import config, topology, units
from .config import (
    FlowConfig,
    FluidParams,
    LinkConfig,
    ScenarioConfig,
    TopologyConfig,
    dumbbell_scenario,
)

__version__ = "1.0.0"

#: Subpackages loaded on first attribute access (PEP 562): ``import repro``
#: and the CLI's plan/store layer stay numpy-free, and each substrate is
#: imported only by the runs that use it.
_SUBPACKAGES = frozenset({"analysis", "core", "emulation", "experiments", "metrics"})


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "analysis",
    "config",
    "core",
    "emulation",
    "experiments",
    "metrics",
    "topology",
    "units",
    "FlowConfig",
    "FluidParams",
    "LinkConfig",
    "ScenarioConfig",
    "TopologyConfig",
    "dumbbell_scenario",
    "__version__",
]
