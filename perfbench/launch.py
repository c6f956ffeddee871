"""Traced launcher: ``python perfbench/launch.py <repro CLI arguments>``.

Runs the ``repro`` CLI after installing the benchmark's timing wrappers
(:mod:`spans`), with spans written to ``$PERFBENCH_TRACE_DIR`` at exit.

The wrappers are installed at import time on purpose: cluster workers are
started with the ``spawn`` method, which re-imports this file (as
``__mp_main__``) in every worker before the worker function runs, so each
worker process gets the same wrappers as the coordinator.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for entry in (str(_HERE.parent / "src"), str(_HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import spans  # noqa: E402

if os.environ.get("PERFBENCH_TRACE_DIR"):
    spans.install(Path(os.environ["PERFBENCH_TRACE_DIR"]))


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
