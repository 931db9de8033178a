"""Individuals (candidate solutions) manipulated by the genetic algorithm.

The paper calls the encoded parameter set of a candidate the *GA string*
(section 3.2).  An :class:`Individual` couples that parameter vector with
its evaluated objective values, constraint values and the NSGA-II
bookkeeping attributes (non-domination rank and crowding distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "Individual",
    "objectives_matrix",
    "parameters_matrix",
    "violations_vector",
]


@dataclass
class Individual:
    """A candidate solution and its evaluation state."""

    #: Decision-variable vector (the GA string), always within bounds.
    parameters: np.ndarray
    #: Objective vector in minimisation convention; ``None`` until evaluated.
    objectives: Optional[np.ndarray] = None
    #: Constraint vector ``g_j(x)`` (>= 0 feasible); empty when unconstrained.
    constraints: Optional[np.ndarray] = None
    #: Raw objective values keyed by name (natural sense), for reporting.
    raw_objectives: Dict[str, float] = field(default_factory=dict)
    #: Additional non-optimised metrics carried along for reporting.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Non-domination rank assigned by fast non-dominated sorting (0 = best).
    rank: int = -1
    #: Crowding distance within the individual's front.
    crowding: float = 0.0

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=float)

    @property
    def is_evaluated(self) -> bool:
        """Whether objective values have been assigned."""
        return self.objectives is not None

    @property
    def constraint_violation(self) -> float:
        """Total constraint violation (0.0 when feasible)."""
        if self.constraints is None or self.constraints.size == 0:
            return 0.0
        return float(np.sum(np.clip(-self.constraints, 0.0, None)))

    @property
    def is_feasible(self) -> bool:
        """True when all constraints ``g_j(x) >= 0`` are satisfied."""
        return self.constraint_violation == 0.0

    def copy(self) -> "Individual":
        """Deep copy of the individual (parameters and evaluation state)."""
        return Individual(
            parameters=self.parameters.copy(),
            objectives=None if self.objectives is None else self.objectives.copy(),
            constraints=None if self.constraints is None else self.constraints.copy(),
            raw_objectives=dict(self.raw_objectives),
            metrics=dict(self.metrics),
            rank=self.rank,
            crowding=self.crowding,
        )

    def dominates(self, other: "Individual") -> bool:
        """Pareto dominance in minimisation convention (unconstrained)."""
        if self.objectives is None or other.objectives is None:
            raise ValueError("both individuals must be evaluated before comparison")
        no_worse = np.all(self.objectives <= other.objectives)
        strictly_better = np.any(self.objectives < other.objectives)
        return bool(no_worse and strictly_better)

    def constrained_dominates(self, other: "Individual") -> bool:
        """Deb's constraint-domination rule.

        A feasible solution dominates an infeasible one; among two
        infeasible solutions the one with smaller total violation wins;
        among two feasible solutions ordinary Pareto dominance applies.
        """
        self_violation = self.constraint_violation
        other_violation = other.constraint_violation
        if self_violation == 0.0 and other_violation > 0.0:
            return True
        if self_violation > 0.0 and other_violation == 0.0:
            return False
        if self_violation > 0.0 and other_violation > 0.0:
            return self_violation < other_violation
        return self.dominates(other)

    def as_dict(self, parameter_names=None) -> Dict[str, float]:
        """Flatten the individual into a dictionary for tabular reporting."""
        record: Dict[str, float] = {}
        if parameter_names is None:
            parameter_names = [f"x{i}" for i in range(self.parameters.size)]
        for name, value in zip(parameter_names, self.parameters):
            record[name] = float(value)
        record.update({k: float(v) for k, v in self.raw_objectives.items()})
        record.update({k: float(v) for k, v in self.metrics.items()})
        return record


def objectives_matrix(population: Sequence["Individual"]) -> np.ndarray:
    """Stack the population's objective vectors into an ``(n, m)`` matrix.

    The batch counterpart of :attr:`Individual.objectives`; raises if any
    individual has not been evaluated (mirroring :meth:`Individual.dominates`).
    """
    rows: List[np.ndarray] = []
    for individual in population:
        if individual.objectives is None:
            raise ValueError("both individuals must be evaluated before comparison")
        rows.append(individual.objectives)
    return np.vstack(rows) if rows else np.empty((0, 0))


def parameters_matrix(population: Sequence["Individual"]) -> np.ndarray:
    """Stack the population's parameter vectors into an ``(n, d)`` matrix."""
    if not population:
        return np.empty((0, 0))
    return np.vstack([individual.parameters for individual in population])


def violations_vector(population: Sequence["Individual"]) -> np.ndarray:
    """Total constraint violation of every individual as an ``(n,)`` vector.

    Stacked row sums give the bytes of :attr:`Individual.constraint_violation`;
    missing, empty or ragged constraint vectors fall back to that property.
    """
    rows = [individual.constraints for individual in population]
    size = rows[0].size if rows and rows[0] is not None else 0
    if size and all(row is not None and row.shape == (size,) for row in rows):
        return np.clip(-np.array(rows), 0.0, None).sum(axis=1)
    return np.array(
        [individual.constraint_violation for individual in population], dtype=float
    )


