"""Import budget: numpy and the substrates load only where a run needs them.

* ``import repro``, the CLI and the sweep planner load no numpy and no
  substrate (``repro.core``, ``repro.emulation``, ``repro.analysis``).
* A warm campaign, served entirely from a store filled by an earlier
  process, loads no numpy at all.
* A pooled grid loads its substrate in the parent before the pool forks,
  so the workers inherit it instead of each importing it.
* scipy loads only where the analytic substrate solves numerically.

Each case runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds whatever earlier tests imported.  The checks are on
module names only, never on timings, so they are deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Module prefixes that only a run on a substrate may load.
HEAVY = ("numpy", "scipy", "repro.core", "repro.emulation", "repro.analysis")


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last.

    The result lists, under each :data:`HEAVY` prefix, the modules with that
    prefix that were loaded at exit (plus whatever ``code`` put in a
    ``result`` dict).
    """
    script = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json as _json, sys as _sys
        _result = dict(globals().get("result", {{}}))
        for _prefix in {HEAVY!r}:
            _result[_prefix] = sorted(
                m for m in _sys.modules if m == _prefix or m.startswith(_prefix + ".")
            )
        print(_json.dumps(_result))
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _campaign(args: list[str]) -> dict:
    """Run ``repro-bbr campaign ARGS`` through ``cli.main`` in a fresh interpreter."""
    return _loaded_after(
        f"""
        from repro import cli
        result = {{"code": cli.main(["campaign", *{args!r}])}}
        """
    )


def test_package_cli_and_sweep_import_without_numpy_or_substrates():
    loaded = _loaded_after("import repro, repro.cli, repro.experiments.sweep")
    for prefix in HEAVY:
        assert loaded[prefix] == [], prefix


def test_package_attributes_load_on_first_use():
    loaded = _loaded_after(
        """
        import repro
        from repro import metrics
        result = {
            "simulate": repro.core.simulate.__module__,
            "trace": metrics.Trace.__module__,
            "figures": repro.experiments.figures.__name__,
        }
        """
    )
    assert loaded["simulate"] == "repro.core.simulator"
    assert loaded["trace"] == "repro.metrics.traces"
    assert loaded["figures"] == "repro.experiments.figures"
    assert "numpy" in loaded["numpy"]


def test_warm_campaigns_load_no_numpy(tmp_path):
    grids = {
        "fluid": ["--substrate", "fluid", "--buffers", "1", "--duration", "0.2"],
        "analytic": ["--substrate", "analytic", "--buffers", "2"],
    }
    for substrate, grid in grids.items():
        args = [
            *grid, "--mixes", "BBRv1", "--disciplines", "droptail", "--seeds", "1",
            "--store", str(tmp_path / f"{substrate}.jsonl"), "-q",
        ]
        cold = _campaign(args)
        assert cold["code"] == 0
        assert cold["numpy"] != [], substrate  # the cold run computed the point
        warm = _campaign(args)
        assert warm["code"] == 0
        for prefix in HEAVY:
            assert warm[prefix] == [], (substrate, prefix)


def test_pooled_grid_loads_its_substrate_before_forking(tmp_path):
    loaded = _loaded_after(
        f"""
        import sys
        from repro import cli
        from repro.experiments.executor import ResilientExecutor

        entered = []
        real_run = ResilientExecutor.run

        def run(self, *args, **kwargs):
            entered.append("repro.emulation.runner" in sys.modules)
            return real_run(self, *args, **kwargs)

        ResilientExecutor.run = run
        code = cli.main([
            "campaign", "--substrate", "emulation", "--mixes", "BBRv1",
            "--buffers", "1", "--disciplines", "droptail", "--duration", "0.2",
            "--seeds", "2", "--workers", "2",
            "--store", {str(tmp_path / "pool.jsonl")!r}, "-q",
        ])
        result = {{"code": code, "entered": entered}}
        """
    )
    assert loaded["code"] == 0
    assert loaded["entered"] == [True]


def test_fluid_and_emulation_points_never_load_scipy():
    loaded = _loaded_after(
        """
        from repro.experiments import sweep
        fluid = sweep.run_point("BBRv1", 1.0, "droptail", duration_s=0.2, store=False)
        emu = sweep.run_point(
            "BBRv1", 1.0, "droptail", substrate="emulation", duration_s=0.2, store=False
        )
        result = {"substrates": [fluid.substrate, emu.substrate]}
        """
    )
    assert loaded["substrates"] == ["fluid", "emulation"]
    assert loaded["scipy"] == []


def test_scipy_loads_on_first_numerical_analytic_solve():
    loaded = _loaded_after(
        """
        import sys
        from repro.analysis import analyze_network, reference_network
        from repro.experiments import sweep
        closed = analyze_network(("bbr2",) * 2, reference_network(2, buffer_bdp=4.0))
        before = sorted(m for m in sys.modules if m.startswith("scipy"))
        point = sweep.run_point(
            "BBRv1/BBRv2", 3.0, "droptail", substrate="analytic", store=False
        )
        result = {
            "closed_method": closed.method,
            "scipy_before": before,
            "method": point.analysis["method"],
        }
        """
    )
    # A closed-form point solves nothing and stays numpy-only ...
    assert loaded["closed_method"] == "closed-form"
    assert loaded["scipy_before"] == []
    # ... while the numerical fallback brings in the ODE and root solvers.
    assert loaded["method"] == "numerical"
    assert "scipy.integrate" in loaded["scipy"]
    assert "scipy.optimize" in loaded["scipy"]
