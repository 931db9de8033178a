"""Bottom-up verification of the behavioural model.

The last claim of the paper is that the behavioural prediction "has been
verified with transistor level simulations" without "a corresponding drop
in accuracy".  This module quantifies that claim for the reproduction: the
selected (or any) operating point is mapped back to transistor sizes and
re-evaluated with a reference evaluator -- the transistor-level MNA test
bench of ``HierarchicalFlow.spice_evaluator`` or any other
:class:`~repro.circuits.evaluators.VcoEvaluator` -- and the relative
error of every performance against the behavioural (table-model)
prediction is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.circuits.evaluators import VcoEvaluator
from repro.core.combined_model import CombinedPerformanceVariationModel

__all__ = ["VerificationPoint", "VerificationReport", "BottomUpVerification"]

_PERFORMANCES = ("kvco", "jitter", "current", "fmin", "fmax")


@dataclass
class VerificationPoint:
    """Comparison of one operating point: model prediction vs reference."""

    kvco: float
    ivco: float
    design: Any
    predicted: Dict[str, float]
    measured: Dict[str, float]

    def relative_errors(self) -> Dict[str, float]:
        """Relative error of each performance (|pred - meas| / |meas|)."""
        errors: Dict[str, float] = {}
        for name in _PERFORMANCES:
            measured = self.measured.get(name)
            predicted = self.predicted.get(name)
            if measured is None or predicted is None:
                continue
            scale = abs(measured) if measured != 0.0 else 1.0
            errors[name] = abs(predicted - measured) / scale
        return errors


@dataclass
class VerificationReport:
    """Aggregate bottom-up verification results."""

    points: List[VerificationPoint] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        """Number of verified operating points."""
        return len(self.points)

    def worst_error(self) -> float:
        """Largest relative error across all points and performances."""
        errors = [
            error for point in self.points for error in point.relative_errors().values()
        ]
        return max(errors) if errors else 0.0

    def mean_error(self, name: Optional[str] = None) -> float:
        """Mean relative error (optionally of a single performance)."""
        errors: List[float] = []
        for point in self.points:
            point_errors = point.relative_errors()
            if name is None:
                errors.extend(point_errors.values())
            elif name in point_errors:
                errors.append(point_errors[name])
        if not errors:
            return 0.0
        return sum(errors) / len(errors)

    def summary(self) -> Dict[str, float]:
        """Per-performance mean relative error plus the overall worst case."""
        result = {f"mean_error_{name}": self.mean_error(name) for name in _PERFORMANCES}
        result["worst_error"] = self.worst_error()
        result["n_points"] = float(self.n_points)
        return result


class BottomUpVerification:
    """Re-simulate selected operating points with a reference evaluator."""

    def __init__(
        self,
        model: CombinedPerformanceVariationModel,
        reference_evaluator: VcoEvaluator,
    ) -> None:
        self.model = model
        self.reference_evaluator = reference_evaluator

    def _make_point(
        self, kvco: float, ivco: float, design: Any, measured: Mapping[str, float]
    ) -> VerificationPoint:
        """Pair the model's prediction with one reference measurement."""
        predicted = self.model.interpolate(kvco, ivco)
        return VerificationPoint(
            kvco=kvco,
            ivco=ivco,
            design=design,
            predicted={name: float(predicted[name]) for name in _PERFORMANCES},
            measured=dict(measured),
        )

    def verify_point(self, kvco: float, ivco: float) -> VerificationPoint:
        """Verify one (gain, current) operating point."""
        design = self.model.design_parameters_for(kvco, ivco)
        measured = self.reference_evaluator.evaluate(design).as_dict()
        return self._make_point(kvco, ivco, design, measured)

    def verify(self, operating_points: Sequence[Mapping[str, float]]) -> VerificationReport:
        """Verify a list of ``{"kvco": ..., "ivco": ...}`` operating points.

        All reference simulations go through the evaluator's
        ``evaluate_batch``, so a :class:`RingVcoSpiceEvaluator` fans the
        transistor-level transients out over its process pool (identical
        results to the per-point loop, one pool instead of N serial runs).
        """
        report = VerificationReport()
        if not operating_points:
            return report
        points = [
            (float(point["kvco"]), float(point["ivco"])) for point in operating_points
        ]
        designs = [self.model.design_parameters_for(kvco, ivco) for kvco, ivco in points]
        measured = self.reference_evaluator.evaluate_batch(designs)
        report.points.extend(
            self._make_point(kvco, ivco, design, performance.as_dict())
            for (kvco, ivco), design, performance in zip(points, designs, measured)
        )
        return report

    def verify_model_points(self, max_points: int = 3) -> VerificationReport:
        """Verify a subset of the Pareto points stored in the model itself."""
        performance = self.model.performance
        indices = range(0, performance.n_points, max(performance.n_points // max_points, 1))
        points = []
        for index in list(indices)[:max_points]:
            record = performance.point(index)
            points.append({"kvco": record["kvco"], "ivco": record["current"]})
        return self.verify(points)
