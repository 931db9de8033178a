"""Multi-objective optimisation framework (NSGA-II).

Implements the optimisation machinery described in sections 2.1 and 3.2 of
the paper: the Non-dominated Sorting Genetic Algorithm II (NSGA-II) of Deb
et al. with elitist survival, fast non-dominated sorting, crowding-distance
diversity preservation, binary tournament selection, simulated binary
crossover (SBX) and polynomial mutation, plus constraint-domination
handling for the ``g_j(x) >= 0`` constraints of equation (1).

The framework is deliberately problem-agnostic -- both the circuit-level
VCO sizing problem and the system-level PLL problem of the paper are
expressed as :class:`~repro.optim.problem.Problem` subclasses and solved by
the same :class:`~repro.optim.nsga2.NSGA2` driver.  Simple baselines
(uniform random search, weighted-sum single-objective GA) are provided for
the ablation benchmarks.
"""

from repro.optim.baselines import RandomSearch, WeightedSumGA
from repro.optim.constraints import constraint_violation, constrained_dominates
from repro.optim.evaluation import (
    BatchEvaluator,
    SerialEvaluator,
    VectorisedEvaluator,
    create_evaluator,
)
from repro.optim.individual import Individual
from repro.optim.nsga2 import NSGA2, NSGA2Config, OptimisationResult
from repro.optim.operators import (
    PolynomialMutation,
    SBXCrossover,
    binary_tournament,
)
from repro.optim.pareto import (
    ParetoFront,
    dominates,
    hypervolume,
    knee_point,
    pareto_filter,
)
from repro.optim.problem import Objective, Parameter, Problem
from repro.optim.sorting import crowding_distance, fast_non_dominated_sort

__all__ = [
    "BatchEvaluator",
    "SerialEvaluator",
    "VectorisedEvaluator",
    "create_evaluator",
    "Individual",
    "Problem",
    "Parameter",
    "Objective",
    "NSGA2",
    "NSGA2Config",
    "OptimisationResult",
    "SBXCrossover",
    "PolynomialMutation",
    "binary_tournament",
    "fast_non_dominated_sort",
    "crowding_distance",
    "ParetoFront",
    "pareto_filter",
    "dominates",
    "hypervolume",
    "knee_point",
    "constraint_violation",
    "constrained_dominates",
    "RandomSearch",
    "WeightedSumGA",
]
