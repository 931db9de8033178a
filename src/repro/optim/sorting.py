"""Fast non-dominated sorting and crowding distance (NSGA-II core).

These are the two sorting operations named explicitly in section 4.2 of the
paper: "Non-dominated sorting and crowding distance sorting are applied to
the solution for each generation in order to determine the final set of
Pareto-fronts."

Both operations work on the population's stacked arrays: constraint
domination is one ``(n, n)`` comparison per objective plus the feasibility
rule (see :func:`domination_matrix`), fronts are peeled with array
operations, and the crowding-distance accumulation is per-objective array
math.  The results are bit-identical to the original per-pair loops --
including the order of indices inside every front, which is the loop's
append order: freed indices sorted by the position of their last dominator
in the current front, then by index -- so seeded optimisation runs
reproduce exactly.  The RNG-consuming operators stay per-individual (see
:mod:`repro.optim.operators`): their draw counts depend on the data.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.optim.individual import (
    Individual,
    objectives_matrix,
    violations_vector,
)
from repro.optim.pareto import pareto_matrix

__all__ = [
    "domination_matrix",
    "fast_non_dominated_sort",
    "crowding_distance",
    "sort_population",
]


def domination_matrix(population: Sequence[Individual]) -> np.ndarray:
    """Pairwise constraint-domination as a boolean matrix.

    ``matrix[i, j]`` is True when ``population[i]`` constraint-dominates
    ``population[j]`` under Deb's rule (see
    :meth:`Individual.constrained_dominates`): feasible beats infeasible,
    smaller total violation beats larger, and ordinary Pareto dominance
    applies between two feasible solutions.
    """
    violations = violations_vector(population)
    infeasible = ~(violations == 0.0)
    matrix = pareto_matrix(objectives_matrix(population))
    # A feasible row beats every infeasible column; an infeasible row (a
    # total violation > 0 or NaN) beats only larger violations, so never a
    # feasible column, and a NaN beats and loses to nothing.
    matrix |= infeasible
    matrix[infeasible] = violations[infeasible, None] < violations
    return matrix


def fast_non_dominated_sort(population: Sequence[Individual]) -> List[List[int]]:
    """Partition ``population`` into non-domination fronts.

    Returns a list of fronts, each a list of indices into ``population``.
    Front 0 holds the non-dominated (Pareto-optimal) individuals; every
    individual's :attr:`Individual.rank` attribute is updated in place.
    Constraint-domination is used so infeasible individuals are pushed to
    later fronts.
    """
    if len(population) == 0:
        return []
    matrix = domination_matrix(population)
    domination_counts = matrix.sum(axis=0)
    fronts: List[List[int]] = []
    current = np.flatnonzero(domination_counts == 0)
    while current.size:
        rank = len(fronts)
        fronts.append(current.tolist())
        for index in fronts[-1]:
            population[index].rank = rank
        dominated = matrix[current]
        domination_counts -= dominated.sum(axis=0)
        freed = np.flatnonzero((domination_counts == 0) & dominated.any(axis=0))
        # Deb's loop appends an individual when its last dominator in the
        # current front is processed, in ascending order per dominator.
        last = current.size - 1 - dominated[::-1, freed].argmax(axis=0)
        current = freed[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(population: Sequence[Individual], front: Sequence[int]) -> np.ndarray:
    """Compute the crowding distance of every individual in ``front``.

    The individuals' :attr:`Individual.crowding` attributes are updated in
    place and the distances are returned in the order of ``front``.
    Boundary solutions of each objective receive an infinite distance so
    they are always preserved, which implements NSGA-II's diversity
    mechanism.
    """
    size = len(front)
    if size == 0:
        return np.array([])
    distances = np.zeros(size)
    if size <= 2:
        distances[:] = np.inf
    else:
        objectives = np.vstack([population[i].objectives for i in front])
        n_objectives = objectives.shape[1]
        for m in range(n_objectives):
            order = np.argsort(objectives[:, m], kind="stable")
            column = objectives[order, m]
            spread = column[-1] - column[0]
            distances[order[0]] = np.inf
            distances[order[-1]] = np.inf
            if spread <= 0.0:
                continue
            # Interior points accumulate the normalised gap between their
            # sorted neighbours; `order` is a permutation so the fancy
            # index targets are unique and += is safe.
            distances[order[1:-1]] += (column[2:] - column[:-2]) / spread
    for position, index in enumerate(front):
        population[index].crowding = float(distances[position])
    return distances


def sort_population(population: Sequence[Individual]) -> List[Individual]:
    """Return the population ordered by (rank, -crowding distance).

    Both rank and crowding distance are (re)computed first, so the result is
    the canonical NSGA-II survival ordering.
    """
    fronts = fast_non_dominated_sort(population)
    for front in fronts:
        crowding_distance(population, front)
    return sorted(population, key=lambda ind: (ind.rank, -ind.crowding))
