"""Process plumbing of the benchmark: hermetic child runs with rusage.

Every CLI invocation is a fresh ``python launch.py ...`` process in its
own session, with ``src/`` on ``PYTHONPATH``, string hashing fixed
(``PYTHONHASHSEED=0``) and the ``REPRO_*`` variables that would redirect
the store, telemetry or logging removed.  Wall time runs from just before
the spawn to the reaping of the child; CPU time and peak RSS come from the
kernel's ``wait4`` accounting, which covers the child and every descendant
it waited for (its pool workers).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of running benchmarks (ignored by git, removed per run).
WORK = HERE / ".work"
LAUNCHER = HERE / "launch.py"

#: Environment variables that would make a run read or write state
#: outside its own temporary store, or change its logging.
SCRUBBED_ENV = ("REPRO_STORE", "REPRO_TELEMETRY", "REPRO_LOG_LEVEL")

#: No single CLI process may outlive this (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 120.0


def source_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def child_env(tmp_dir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp_dir)
    return env


@dataclass
class ChildRun:
    """Outcome of one CLI process."""

    pid: int
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    probe: dict = field(default_factory=dict)
    start_t: float = 0.0

    @property
    def setup_s(self) -> float | None:
        """Spawn to first dispatched point (``None`` if nothing was dispatched)."""
        dispatch = self.probe.get("dispatch_t")
        return None if dispatch is None else dispatch - self.start_t


def run_cli(
    cli_args: list[str],
    run_dir: Path,
    tmp_dir: Path,
    trace_dir: Path | None = None,
) -> ChildRun:
    """Run ``repro-bbr CLI_ARGS`` through the launcher and reap it."""
    run_dir.mkdir(parents=True, exist_ok=True)
    probe_path = run_dir / "probe.json"
    out_path = run_dir / "stdout.txt"
    err_path = run_dir / "stderr.txt"
    cmd = [sys.executable]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["-X", "importtime"]
    cmd += [str(LAUNCHER), "--probe", str(probe_path)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    cmd += ["--", *cli_args]
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=child_env(tmp_dir),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        status, usage = _reap(proc)
        wall = time.monotonic() - start
    _clean_up_group(proc.pid)
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    return ChildRun(
        pid=proc.pid,
        returncode=status,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        probe=probe,
        start_t=start,
    )


def _reap(proc: subprocess.Popen) -> tuple[int, os.struct_rusage]:
    """Block in ``wait4`` (no polling delay); a timer kills a hung tree."""
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, args=(proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a child's session (e.g. orphaned workers)."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def _clean_up_group(pgid: int) -> None:
    """Kill and collect members of a reaped child's session that outlived it.

    Pool workers that outlive the CLI are re-parented to this process (a
    child subreaper), so after ``SIGKILL`` they can be waited for here.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def become_subreaper() -> None:
    """Adopt orphaned grandchildren so none outlives the benchmark (Linux)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        pr_set_child_subreaper = 36
        libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def read_store(path: Path) -> list[dict]:
    """All records of a JSON-lines store file, in append order."""
    if not path.exists():
        return []
    records = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                with contextlib.suppress(json.JSONDecodeError):
                    records.append(json.loads(line))
    return records
