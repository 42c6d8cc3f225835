"""Import budget: scipy loads only where the analytic substrate solves.

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


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last.

    ``scipy`` in the result lists the ``scipy*`` modules loaded at exit.
    """
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json as _json, sys as _sys
        _result = dict(globals().get("result", {}))
        _result["scipy"] = sorted(m for m in _sys.modules if m.startswith("scipy"))
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


def test_package_and_cli_import_without_scipy():
    loaded = _loaded_after("import repro, repro.cli, repro.analysis")
    assert loaded["scipy"] == []


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
