"""Pareto-front utilities.

The Pareto front is the central data structure of the paper's flow: the
outcome of the circuit-level optimisation *is* the performance model
(section 3.3), so this module provides a convenient container
(:class:`ParetoFront`) plus the standard front-quality indicators used by
the ablation benchmarks (hypervolume, knee point, spacing).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.optim.individual import Individual

__all__ = [
    "dominates",
    "pareto_filter",
    "pareto_matrix",
    "ParetoFront",
    "hypervolume",
    "knee_point",
    "spacing",
]


def dominates(a, b) -> bool:
    """Pareto dominance between two minimisation-convention vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective vectors must have the same shape")
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_matrix(objectives: np.ndarray) -> np.ndarray:
    """``matrix[i, j]`` is :func:`dominates` of rows ``i`` and ``j``.

    One ``(n, n)`` comparison per objective.  A NaN compares False, so a
    row holding one neither dominates nor is dominated.  When row ``i`` is
    no worse than row ``j`` and ``j`` no worse than ``i``, the rows are
    equal, so "strictly better somewhere" is "``j`` not no worse than ``i``".
    """
    n = objectives.shape[0]
    no_worse = np.ones((n, n), dtype=bool)
    for column in objectives.T:
        no_worse &= column[:, None] <= column
    return no_worse & ~no_worse.T


def pareto_filter(points) -> np.ndarray:
    """Indices of the non-dominated rows of ``points`` (minimisation).

    Dominance is transitive, so every dominated row is dominated by some
    non-dominated one: the rows that no row dominates are the front.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError("points must be a 2-D array of shape (n_points, n_objectives)")
    return np.flatnonzero(~pareto_matrix(arr).any(axis=0))


class ParetoFront:
    """A set of mutually non-dominated individuals.

    The front records the problem's parameter and objective names so it can
    be exported to tabular form, written to ``.tbl`` data files and used to
    build the performance / variation models of the paper.
    """

    def __init__(
        self,
        individuals: Iterable[Individual],
        parameter_names: Sequence[str],
        objective_names: Sequence[str],
        objective_senses: Sequence[str] | None = None,
    ) -> None:
        self.individuals: List[Individual] = [ind for ind in individuals if ind.is_evaluated]
        self.parameter_names = list(parameter_names)
        self.objective_names = list(objective_names)
        self.objective_senses = (
            list(objective_senses)
            if objective_senses is not None
            else ["min"] * len(self.objective_names)
        )

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self):
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    @property
    def parameters(self) -> np.ndarray:
        """Matrix of parameter vectors, one row per front member."""
        if not self.individuals:
            return np.empty((0, len(self.parameter_names)))
        return np.vstack([ind.parameters for ind in self.individuals])

    @property
    def objectives(self) -> np.ndarray:
        """Matrix of minimisation-convention objective vectors."""
        if not self.individuals:
            return np.empty((0, len(self.objective_names)))
        return np.vstack([ind.objectives for ind in self.individuals])

    def raw_objective(self, name: str) -> np.ndarray:
        """Raw (natural sense) values of one named objective across the front."""
        return np.array([ind.raw_objectives[name] for ind in self.individuals])

    def parameter(self, name: str) -> np.ndarray:
        """Values of one named parameter across the front."""
        index = self.parameter_names.index(name)
        return self.parameters[:, index]

    def to_records(self) -> List[Dict[str, float]]:
        """Flatten the front into dictionaries for tabular output."""
        return [ind.as_dict(self.parameter_names) for ind in self.individuals]

    def sorted_by(self, objective_name: str) -> "ParetoFront":
        """Return a new front sorted by one raw objective value."""
        order = np.argsort(self.raw_objective(objective_name), kind="stable")
        return ParetoFront(
            [self.individuals[i] for i in order],
            self.parameter_names,
            self.objective_names,
            self.objective_senses,
        )

    def non_dominated(self) -> "ParetoFront":
        """Re-filter the front, dropping any dominated members."""
        if not self.individuals:
            return self
        keep = pareto_filter(self.objectives)
        return ParetoFront(
            [self.individuals[i] for i in keep],
            self.parameter_names,
            self.objective_names,
            self.objective_senses,
        )


def hypervolume(points, reference) -> float:
    """Hypervolume dominated by ``points`` w.r.t. ``reference`` (minimisation).

    Uses an exact recursive slicing algorithm; adequate for the small fronts
    and objective counts (<= 5) used in this project.
    """
    arr = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if arr.ndim != 2:
        raise ValueError("points must be 2-D")
    if ref.shape != (arr.shape[1],):
        raise ValueError("reference point dimensionality mismatch")
    # Only keep points that dominate the reference point.
    arr = arr[np.all(arr <= ref, axis=1)]
    if arr.size == 0:
        return 0.0
    arr = arr[pareto_filter(arr)]

    def recurse(front: np.ndarray, ref_point: np.ndarray) -> float:
        if front.shape[1] == 1:
            return float(ref_point[0] - front[:, 0].min())
        order = np.argsort(front[:, 0], kind="stable")
        front = front[order]
        total = 0.0
        previous = ref_point[0]
        # Sweep from the worst first coordinate towards the best, slicing.
        for i in range(front.shape[0] - 1, -1, -1):
            width = previous - front[i, 0]
            if width > 0.0:
                slab = front[: i + 1, 1:]
                slab = slab[pareto_filter(slab)] if slab.shape[0] > 1 else slab
                total += width * recurse(slab, ref_point[1:])
                previous = front[i, 0]
        return total

    return recurse(arr, ref)


def knee_point(points) -> int:
    """Index of the knee (best trade-off) point of a minimisation front.

    The knee is the point with the largest distance from the line (in
    normalised objective space) joining the extreme points -- the solution a
    designer would typically select when no objective is prioritised.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if arr.shape[0] == 1:
        return 0
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalised = (arr - lo) / span
    # Distance from the ideal point (0, ..., 0); smallest wins.
    distances = np.linalg.norm(normalised, axis=1)
    return int(np.argmin(distances))


def spacing(points) -> float:
    """Schott's spacing metric (uniformity of a front); 0 = perfectly even."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        return 0.0
    n = arr.shape[0]
    nearest = np.empty(n)
    for i in range(n):
        deltas = np.abs(arr - arr[i]).sum(axis=1)
        deltas[i] = np.inf
        nearest[i] = deltas.min()
    mean = nearest.mean()
    return float(np.sqrt(np.sum((nearest - mean) ** 2) / (n - 1)))
