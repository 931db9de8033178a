"""Measure every workload over several seeds and write the ledger.

Usage (from the root of a checkout)::

    python3 perfbench/ledger.py --seeds 1-10 --out perfbench/baseline.json

For each workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
with tracing off, then once traced at the default workload seed.  The
ledger holds, per workload, every end-to-end metric's values, median,
quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the traced
run's per-layer metrics, and a manifest of the machine and code that
produced them.  It also prints each spread next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Which end-to-end metric each per-layer metric should move, on which
#: workload (metric-name prefix -> (end-to-end metrics, workloads)).  The
#: ``table2-*`` workloads run by hand; ``service-drain`` runs the same
#: layers at ``fast-smoke`` budgets in its worker.
MOVES = {
    "optim.nsga2_s": ("wall_s", ["table2-vectorised", "service-drain"]),
    "optim.sort": ("wall_s", ["table2-vectorised", "service-drain"]),
    "optim.crowding_s": ("wall_s", ["table2-vectorised", "service-drain"]),
    "optim.evaluate_s": ("wall_s", ["table2-serial"]),
    "optim.candidates": ("wall_s", ["table2-serial"]),
    "process.": ("wall_s", ["table2-vectorised", "service-drain"]),
    "circuits.analytical": ("wall_s", ["table2-serial"]),
    "circuits.spice": ("wall_s, ok_fraction", ["spice-verify"]),
    "behavioural.simulate": ("wall_s", ["table2-serial"]),
    "behavioural.": ("wall_s", ["table2-vectorised", "service-drain"]),
    "core.verification_s": ("wall_s (stage split)", ["spice-verify"]),
    "core.": ("wall_s (stage split)", ["table2-vectorised", "table2-serial", "service-drain"]),
    "spice.": ("wall_s", ["spice-verify"]),
    "experiments.": ("wall_s; jobs_per_s", ["table2-vectorised", "service-drain"]),
    "service.": ("wall_s, jobs_per_s", ["service-drain"]),
    "obs.": ("none: says whether the per-layer figures can be trusted", []),
}


def moves_for(metric: str) -> Dict[str, Any]:
    for prefix, (end_to_end, workloads) in MOVES.items():
        if metric.startswith(prefix):
            return {"end_to_end": end_to_end, "workloads": workloads}
    raise KeyError(metric)


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-4000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{completed.stderr[-4000:]}")
    return result


def summarise(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def manifest(seeds: List[int]) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            cpu = next(line.split(":", 1)[1].strip() for line in cpuinfo if "model name" in line)
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {
        "git_sha": commit or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seeds": seeds,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    ledger: Dict[str, Any] = {
        "manifest": dict(manifest(seeds), trace_seed=DEFAULT_SEED),
        "run_seconds": config["run_seconds"],
        "workloads": {},
        "per_layer_moves": {
            metric["name"]: moves_for(metric["name"]) for metric in config["per_layer"]
        },
    }
    for workload in config["workloads"]:
        name = workload["name"]
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for seed in seeds:
            result = run(name, seed, config["run_seconds"], trace=0)
            for metric, reading in result["metrics"].items():
                values.setdefault(metric, []).append(reading["value"])
                units[metric] = reading["unit"]
            print(f"{name} seed {seed}: done", file=sys.stderr, flush=True)
        traced = run(name, DEFAULT_SEED, config["run_seconds"], trace=1)
        entry = {
            "why": workload["why"],
            "runs": len(seeds),
            "end_to_end": {
                metric: dict(summarise(readings), unit=units[metric])
                for metric, readings in values.items()
            },
            "per_layer": {metric: reading["value"] for metric, reading in traced["metrics"].items()},
        }
        ledger["workloads"][name] = entry
        for metric, summary in entry["end_to_end"].items():
            print(
                f"{name:18} {metric:12} median {summary['median']:10.4g} "
                f"spread {summary['spread']:.4f} bound {bounds[metric]}"
            )
    args.out.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
