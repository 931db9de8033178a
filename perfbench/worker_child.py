"""Run ``repro worker`` as the service-drain workload's worker process.

Usage: ``python worker_child.py [--trace-out FILE] <repro worker arguments>``

Without ``--trace-out`` this is exactly the ``repro worker`` command.
With it, the benchmark's tracer wraps the library's entry points for the
life of the worker, and on exit (SIGTERM included) the worker's per-layer
metrics, the artifact bytes it moved and its spans are written to FILE
as one JSON object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list) -> int:
    from repro.experiments import cli

    if argv[:1] != ["--trace-out"]:
        return cli.main(["worker", *argv])
    trace_out, worker_argv = Path(argv[1]), argv[2:]

    from harness import ENTRY_POINTS, Tracer
    from repro.experiments.artifacts import ARTIFACT_BYTES

    tracer = Tracer(ENTRY_POINTS)
    try:
        with tracer:
            return cli.main(["worker", *worker_argv])
    finally:
        metrics = dict(tracer.metrics)
        metrics["service.artifact_bytes"] = sum(value for _, value in ARTIFACT_BYTES.samples())
        trace_out.write_text(
            json.dumps({"metrics": metrics, "spans": tracer.span_records()}), encoding="utf-8"
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
