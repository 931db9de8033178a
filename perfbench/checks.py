"""Output checks and failure accounting for the benchmark workloads.

Every function here is pure: it takes what a workload produced and
returns either a list of problems (empty when the output is correct) or
the ``(attempted, failed)`` operation counts that ``ok_fraction`` and the
result line's ``attempted`` / ``failed`` are built from.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Reference outputs recorded on the seed commit.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Stage pickles whose bytes both ``table2`` backends must reproduce.
TABLE2_STAGES = ("circuit", "system", "yield")

#: The performance the SPICE test bench returns for a dead design point
#: (a lane pair that did not oscillate), see ``VcoTestbench._combine``.
SPICE_PENALTY = {"kvco": 0.0, "jitter": 1e-9, "current": 1.0}


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def is_penalty(performance: Mapping[str, float]) -> bool:
    """Whether a measured VCO performance is the SPICE failure penalty."""
    return all(performance.get(name) == value for name, value in SPICE_PENALTY.items())


def spice_lane_failures(measured: Sequence[Mapping[str, float]]) -> Tuple[int, int]:
    """``(lanes attempted, lanes failed)`` of one verification run.

    Each verified point runs two lanes (one per control voltage); a point
    whose performance is the penalty lost both.
    """
    failed = sum(2 for performance in measured if is_penalty(performance))
    return 2 * len(measured), failed


def job_failures(jobs: Iterable[Mapping[str, Any]]) -> int:
    """Jobs that did not end ``done`` in their first attempt."""
    return sum(1 for job in jobs if job.get("state") != "done" or job.get("attempts") != 1)


def _finite(values: Iterable[Any]) -> bool:
    return all(
        isinstance(value, (int, float)) and math.isfinite(value)
        for value in values
        if not isinstance(value, bool)
    )


def check_table2(
    entry_directory: Path,
    evaluations: int,
    yield_samples: int,
    summary: Mapping[str, Any],
    expected: Mapping[str, Any],
) -> List[str]:
    """Problems with one ``table2`` run (empty when it is correct).

    The stage pickles must hash to ``expected["table2_digests"]``, which
    both backends reproduce; the run must spend the recorded budgets and
    report a finite summary.
    """
    problems = []
    if evaluations != expected["table2_evaluations"]:
        problems.append(
            f"circuit stage spent {evaluations} evaluations, "
            f"expected {expected['table2_evaluations']}"
        )
    if yield_samples != expected["table2_yield_samples"]:
        problems.append(
            f"yield stage drew {yield_samples} samples, "
            f"expected {expected['table2_yield_samples']}"
        )
    numbers = [value for value in summary.values() if isinstance(value, (int, float))]
    if not numbers or not _finite(numbers):
        problems.append(f"summary is empty or not finite: {dict(summary)}")
    digests = expected["table2_digests"]
    for stage in TABLE2_STAGES:
        path = Path(entry_directory) / f"{stage}.pkl"
        actual = sha256_file(path) if path.is_file() else "missing"
        if actual != digests[stage]:
            problems.append(f"{stage}.pkl sha256 {actual} != recorded {digests[stage]}")
    return problems


def check_spice(
    summary: Mapping[str, float],
    measured: Sequence[Mapping[str, float]],
    expected: Mapping[str, Any],
) -> List[str]:
    """Problems with one SPICE verification run (empty when it is correct).

    The run must verify the expected number of points, none of them a
    penalty, and its error summary must match the recorded one within
    ``expected["spice_rel_tolerance"]``.
    """
    problems = []
    if len(measured) != expected["spice_points"]:
        problems.append(f"verified {len(measured)} points, expected {expected['spice_points']}")
    penalties = sum(1 for performance in measured if is_penalty(performance))
    if penalties:
        problems.append(f"{penalties} verified point(s) returned the SPICE failure penalty")
    tolerance = expected["spice_rel_tolerance"]
    for name, value in expected["spice_summary"].items():
        actual = summary.get(name)
        if actual is None or not abs(actual - value) <= tolerance * abs(value):
            problems.append(f"{name} = {actual}, recorded {value} (rel. tol. {tolerance})")
    return problems
