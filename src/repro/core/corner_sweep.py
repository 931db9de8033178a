"""Corner-sweep analysis of the circuit-level Pareto front.

Monte Carlo (the variation model) captures the statistical spread of the
process; corner analysis complements it by pushing the technology to its
specified extremes and asking what the Pareto front looks like in the
worst case.  :class:`CornerSweepAnalysis` re-evaluates every circuit-stage
Pareto design under each corner of a :class:`~repro.process.corners.CornerSet`
and condenses the per-corner fronts into a worst-case-corner front: for
every design the pessimal value of each performance across the corners,
with the corner that caused it recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.circuits.evaluators import VcoEvaluator
from repro.process.corners import CornerSet
from repro.process.technology import Technology

__all__ = ["CornerFront", "CornerSweepReport", "CornerSweepAnalysis"]

#: Performances carried per design, in storage order.
_PERFORMANCE_NAMES = ("kvco", "jitter", "current", "fmin", "fmax")

#: Worst-case sense of each performance: ``True`` means larger is worse
#: (jitter, current burn, a narrowed low end), ``False`` means smaller is
#: worse (gain and the achievable top frequency).
_LARGER_IS_WORSE = {
    "kvco": False,
    "jitter": True,
    "current": True,
    "fmin": True,
    "fmax": False,
}

#: Objectives (name, larger_is_worse) used for the worst-case front's
#: non-dominated filter -- the circuit stage's own trade-off triplet.
_FRONT_OBJECTIVES = ("kvco", "jitter", "current")


@dataclass
class CornerFront:
    """The Pareto designs re-evaluated under one corner."""

    corner: str
    technology: str
    records: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class CornerSweepReport:
    """Per-corner fronts plus the condensed worst-case-corner front."""

    corners: List[str]
    designs: List[Dict[str, float]]
    fronts: List[CornerFront] = field(default_factory=list)
    worst_case: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_designs(self) -> int:
        """Number of swept Pareto designs."""
        return len(self.designs)

    def front(self, corner: str) -> CornerFront:
        """The re-evaluated front of one corner."""
        for entry in self.fronts:
            if entry.corner == corner:
                return entry
        raise KeyError(f"no swept corner named {corner!r}")

    def worst_case_front(self) -> List[Dict[str, Any]]:
        """Non-dominated subset of the worst-case records.

        Dominance uses the circuit stage's own objectives (maximise
        ``kvco``, minimise ``jitter`` and ``current``) applied to the
        worst-case values, so the returned rows are the designs whose
        *pessimal* behaviour is still Pareto-optimal.
        """

        def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
            not_worse = all(
                (a[name] <= b[name] if _LARGER_IS_WORSE[name] else a[name] >= b[name])
                for name in _FRONT_OBJECTIVES
            )
            strictly_better = any(
                (a[name] < b[name] if _LARGER_IS_WORSE[name] else a[name] > b[name])
                for name in _FRONT_OBJECTIVES
            )
            return not_worse and strictly_better

        return [
            row
            for row in self.worst_case
            if not any(dominates(other, row) for other in self.worst_case if other is not row)
        ]

    def summary(self) -> Dict[str, float]:
        """Headline numbers for progress payloads and reports."""
        return {
            "n_corners": float(len(self.corners)),
            "n_designs": float(self.n_designs),
            "worst_case_front_size": float(len(self.worst_case_front())),
        }


class CornerSweepAnalysis:
    """Re-evaluate circuit-stage Pareto designs across a corner set."""

    def __init__(
        self,
        evaluator: VcoEvaluator,
        technology: Technology,
        corners: CornerSet,
    ) -> None:
        self.evaluator = evaluator
        self.technology = technology
        self.corners = corners

    def run(self, circuit: Any, cancel: Optional[Any] = None) -> CornerSweepReport:
        """Sweep a :class:`~repro.core.circuit_stage.CircuitStageResult`.

        ``cancel`` (duck-typed ``raise_if_cancelled()``) is observed at
        corner boundaries.
        """
        designs = list(circuit.designs)
        if not designs:
            raise ValueError("the circuit stage produced no Pareto designs to sweep")
        report = CornerSweepReport(
            corners=self.corners.names,
            designs=[design.as_dict() for design in designs],
        )
        per_corner: List[List[Dict[str, float]]] = []
        for corner in self.corners:
            if cancel is not None:
                cancel.raise_if_cancelled()
            shifted = corner.apply(self.technology)
            performances = self.evaluator.evaluate_batch(designs, technology=shifted)
            records = [
                {name: float(getattr(performance, name)) for name in _PERFORMANCE_NAMES}
                for performance in performances
            ]
            per_corner.append(records)
            report.fronts.append(
                CornerFront(corner=corner.name, technology=shifted.name, records=records)
            )
        for index in range(len(designs)):
            worst: Dict[str, Any] = {"design": index}
            for name in _PERFORMANCE_NAMES:
                values = [
                    (records[index][name], corner_name)
                    for records, corner_name in zip(per_corner, self.corners.names)
                ]
                value, corner_name = (
                    max(values) if _LARGER_IS_WORSE[name] else min(values)
                )
                worst[name] = value
                worst[f"{name}_corner"] = corner_name
            report.worst_case.append(worst)
        return report
