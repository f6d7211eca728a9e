"""Run one ``repro`` CLI command under the benchmark's span tracer.

Usage::

    python perfbench/launch.py OUT.json serve --port 0 --workers 2

The command runs exactly as ``python -m repro serve ...`` would, with
every entry point in :data:`tracer.SPANS` wrapped.  ``SIGUSR1`` clears
the aggregates (the client sends it when its traced phase starts).  On
graceful drain, when the command returns, the aggregates are written to
``OUT.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main(argv) -> int:
    out_path, command = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    baseline = {"stats": tracing.memo_stats()}

    def restart(signum, frame) -> None:
        tracer.reset()
        baseline["stats"] = tracing.memo_stats()

    signal.signal(signal.SIGUSR1, restart)
    from repro.__main__ import main as repro_main

    code = repro_main(command)
    snapshot = tracer.snapshot()
    snapshot["counts"].update(tracing.stats_delta(baseline["stats"]))
    with open(out_path, "w") as handle:
        json.dump(snapshot, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
