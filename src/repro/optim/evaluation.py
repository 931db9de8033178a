"""Batch evaluation backends for the population-based optimisers.

The paper's flow spends essentially all of its runtime inside objective
evaluations: 3,000 circuit evaluations per NSGA-II run (section 4.2) plus
hundreds of Monte Carlo re-simulations per Pareto point (section 3.3).
Evaluating one :class:`~repro.optim.individual.Individual` at a time keeps
that cost strictly serial Python, so the optimiser is batch-first instead:
the :class:`~repro.optim.nsga2.NSGA2` driver hands a *whole population* of
parameter vectors to a :class:`BatchEvaluator` and receives the evaluated
individuals back in one call.

Two interchangeable backends answer one question -- how the population
reaches the problem:

* :class:`VectorisedEvaluator` (the default) -- a single
  :meth:`~repro.optim.problem.Problem.evaluate_batch` call.  Problems that
  implement array-in/array-out evaluation (e.g. the VCO sizing problem
  backed by :class:`~repro.circuits.evaluators.RingVcoAnalyticalEvaluator`)
  evaluate the whole population in numpy; problems without a native batch
  path fall back to the per-vector loop transparently.
* :class:`SerialEvaluator` -- one :meth:`Problem.evaluate_vector` call per
  vector, the historical one-individual-at-a-time behaviour.

Both consume the same seeded RNG stream and produce bit-identical
individuals.  Pick a backend by name through :attr:`NSGA2Config.evaluator`
(one of :data:`EVALUATOR_CHOICES`) or inject a custom instance into
:class:`~repro.optim.nsga2.NSGA2` directly.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.optim.individual import Individual
from repro.optim.problem import Evaluation, Problem

__all__ = [
    "DEFAULT_EVALUATION",
    "EVALUATOR_CHOICES",
    "BatchEvaluator",
    "SerialEvaluator",
    "VectorisedEvaluator",
    "build_individual",
    "create_evaluator",
]

#: Backend names accepted by ``NSGA2Config.evaluator`` / :func:`create_evaluator`.
EVALUATOR_CHOICES = ("serial", "vectorised")

#: The backend used when none is named (NSGA-II, scenarios and the flow).
DEFAULT_EVALUATION = "vectorised"


def build_individual(
    problem: Problem, vector: np.ndarray, evaluation: Evaluation
) -> Individual:
    """Assemble an evaluated :class:`Individual` from a raw evaluation.

    This is the single place where evaluation results become individuals,
    shared by both backends so that serial and vectorised evaluation
    produce structurally identical populations.
    """
    individual = Individual(parameters=problem.clip(vector))
    individual.objectives = problem.objective_vector(evaluation)
    individual.constraints = problem.constraint_vector(evaluation)
    individual.raw_objectives = dict(evaluation.objectives)
    individual.metrics = dict(evaluation.metrics)
    return individual


class BatchEvaluator:
    """Strategy interface: evaluate a whole population of vectors at once."""

    #: Human-readable backend name (used in reports and benchmarks).
    name = "batch"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate every parameter vector and return evaluated individuals.

        Parameters
        ----------
        problem:
            The optimisation problem providing the objective functions.
        vectors:
            Parameter vectors to evaluate (one population or offspring
            batch), each of shape ``(n_parameters,)``.

        Returns
        -------
        list of Individual
            One evaluated individual per vector, in input order -- the
            NSGA-II driver relies on order preservation for
            reproducibility.
        """
        raise NotImplementedError


class SerialEvaluator(BatchEvaluator):
    """One `evaluate_vector` call per individual (the historical behaviour).

    The vectorised backend must reproduce its results bit for bit (same
    arithmetic, same seeded RNG stream), which the test suite and
    benchmarks enforce.
    """

    name = "serial"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate the batch with one Python call per vector."""
        return [
            build_individual(problem, vector, problem.evaluate_vector(vector))
            for vector in vectors
        ]


class VectorisedEvaluator(BatchEvaluator):
    """Array-in/array-out evaluation through ``Problem.evaluate_batch``.

    Problems with a native numpy batch path (the analytical VCO sizing
    problem, the behavioural PLL system problem) evaluate the whole
    population in a handful of array calls; problems without one inherit
    :meth:`Problem.evaluate_batch`'s serial loop and still work.
    """

    name = "vectorised"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate the whole batch in a single ``evaluate_batch`` call.

        Parameters
        ----------
        problem:
            The optimisation problem; its ``evaluate_batch`` receives one
            ``(n_vectors, n_parameters)`` matrix.
        vectors:
            Parameter vectors of the population or offspring batch.

        Returns
        -------
        list of Individual
            Evaluated individuals in input order, bit-identical to the
            serial backend for a correctly vectorised problem.
        """
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        evaluations = problem.evaluate_batch(matrix)
        if len(evaluations) != matrix.shape[0]:
            raise ValueError(
                f"problem {problem.name!r} returned {len(evaluations)} evaluation(s) "
                f"for {matrix.shape[0]} vector(s)"
            )
        return [
            build_individual(problem, row, evaluation)
            for row, evaluation in zip(matrix, evaluations)
        ]


def create_evaluator(name: str = DEFAULT_EVALUATION) -> BatchEvaluator:
    """Build a batch-evaluation backend from its configuration name.

    Parameters
    ----------
    name:
        One of :data:`EVALUATOR_CHOICES` (``"serial"``, ``"vectorised"``);
        case-insensitive.

    Returns
    -------
    BatchEvaluator
        A ready-to-use backend instance.

    Raises
    ------
    ValueError
        If ``name`` is not a known backend.
    """
    key = (name or DEFAULT_EVALUATION).lower()
    if key == "serial":
        return SerialEvaluator()
    if key == "vectorised":
        return VectorisedEvaluator()
    raise ValueError(
        f"unknown evaluator {name!r}; expected one of {', '.join(EVALUATOR_CHOICES)}"
    )
