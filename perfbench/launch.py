"""Run one ``repro-bbr`` command under the benchmark's probes.

    python launch.py --probe FILE [--trace-dir DIR] -- CLI-ARGS...

Without ``--trace-dir`` only the dispatch probe is installed: the first
call into a point-dispatching entry point records a monotonic timestamp,
from which ``run.py`` derives ``setup_s``.  With ``--trace-dir`` every
layer entry point in :data:`layers.TARGETS` is wrapped before the CLI
runs (and so before any process pool forks), and spans go to
``DIR/spans-<pid>.jsonl``.  The probe file receives the timestamps and
the measured ``import repro.cli`` time as JSON when the command ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    probe: dict = {"start_t": time.monotonic()}
    import repro.cli

    probe["import_s"] = time.monotonic() - probe["start_t"]
    recorder = None
    if args.trace_dir is None:
        layers.install_dispatch_probe(probe)
    else:
        recorder = layers.Recorder(args.trace_dir)
        recorder.install()
    code: int | str | None = 1
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        probe["end_t"] = time.monotonic()
        if recorder is not None:
            recorder.flush()
        args.probe.write_text(json.dumps(probe))
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
