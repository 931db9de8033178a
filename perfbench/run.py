"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spice-verify --seed 2009 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` makes the separate traced run: it wraps the library's entry points
from this process, alternates untraced and traced iterations, prints the
per-layer metrics and writes the spans to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The program is imported from the checkout's ``src``
directory only; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
CONFIG_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Times the imports of the given modules in a fresh interpreter.
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n"
)


def import_seconds(modules: List[str]) -> float:
    from workloads import python_env

    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        capture_output=True,
        text=True,
        env=python_env(),
        cwd=str(ROOT),
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Any, seconds: float, work: Path) -> Dict[str, Any]:
    """The untraced run: set up ``SETUPS`` times, then time iterations."""
    for name in workload.modules:
        importlib.import_module(name)
    setup_times: List[float] = []
    child_peak = 0.0
    state = None
    for index in range(SETUPS):
        imports = import_seconds(list(workload.modules))
        started = time.perf_counter()
        state = workload.setup(work / f"setup-{index}")
        setup_times.append(imports + time.perf_counter() - started)
        if index < SETUPS - 1:
            child_peak = max(child_peak, workload.teardown(state))
    iterations = []
    try:
        workload.warm_up(state, work)
        started = time.perf_counter()
        while True:
            iterations.append(workload.iterate(state, work))
            elapsed = time.perf_counter() - started
            if elapsed + iterations[-1].wall > seconds:
                break
    finally:
        child_peak = max(child_peak, workload.teardown(state))

    walls = [iteration.wall for iteration in iterations]
    attempted = sum(iteration.attempted for iteration in iterations)
    failed = sum(iteration.failed for iteration in iterations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb() + child_peak, "MB"),
        "ok_fraction": (1.0 - failed / attempted, "ratio"),
        "jobs_per_s": (statistics.median(it.jobs / it.wall for it in iterations), "1/s"),
    }
    print(
        f"{workload.name}: {len(iterations)} iteration(s), "
        f"set-ups {[round(value, 3) for value in setup_times]}, "
        f"walls {[round(wall, 3) for wall in walls]}",
        file=sys.stderr,
    )
    return result_line(iterations, metrics)


def trace(workload: Any, seconds: float, work: Path, per_layer: List[Dict[str, str]], seed: int):
    """The traced run: per-layer metrics, spans written to ``.perfbench_out``."""
    traced = workload.trace(work, seconds)
    units = {entry["name"]: entry["unit"] for entry in per_layer}
    metrics = {name: (traced.metrics.get(name, 0.0), unit) for name, unit in units.items()}
    unknown = sorted(set(traced.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"traced metrics missing from BENCHMARK.json: {unknown}")
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"trace-{workload.name}-{seed}.jsonl", "w", encoding="utf-8") as handle:
        for record in traced.spans:
            handle.write(json.dumps(record) + "\n")
    return result_line(traced.iterations, metrics)


def result_line(iterations: List[Any], metrics: Dict[str, Any]) -> Dict[str, Any]:
    problems = [problem for iteration in iterations for problem in iteration.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(iteration.failed for iteration in iterations)
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(iteration.attempted for iteration in iterations),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: List[str]) -> int:
    from_checkout = (SRC / "repro" / "__init__.py").is_file() and CONFIG_PATH.is_file()
    if not from_checkout:
        print("perfbench: run from a checkout with src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import checks

    # A SIGTERM unwinds like an exception, so the worker child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    config = json.loads(CONFIG_PATH.read_text(encoding="utf-8"))
    workload = workloads.make_workload(args.workload, checks.load_expected())
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            result = trace(workload, args.seconds, work, config["per_layer"], args.seed)
        else:
            result = measure(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
