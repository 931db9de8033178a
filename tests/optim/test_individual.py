"""Tests for the Individual container and dominance relations."""

import numpy as np
import pytest

from repro.optim.individual import Individual, violations_vector


def _evaluated(objectives, constraints=None):
    ind = Individual(parameters=np.array([0.0]))
    ind.objectives = np.asarray(objectives, dtype=float)
    if constraints is not None:
        ind.constraints = np.asarray(constraints, dtype=float)
    return ind


def test_unevaluated_individual():
    ind = Individual(parameters=[1.0, 2.0])
    assert not ind.is_evaluated
    assert ind.parameters.dtype == float


def test_dominates_strictly_better():
    a = _evaluated([0.0, 0.0])
    b = _evaluated([1.0, 1.0])
    assert a.dominates(b)
    assert not b.dominates(a)


def test_dominates_requires_strict_improvement_somewhere():
    a = _evaluated([1.0, 1.0])
    b = _evaluated([1.0, 1.0])
    assert not a.dominates(b)
    assert not b.dominates(a)


def test_dominates_partial_improvement():
    a = _evaluated([0.0, 1.0])
    b = _evaluated([1.0, 0.0])
    assert not a.dominates(b)
    assert not b.dominates(a)


def test_dominates_unevaluated_raises():
    a = Individual(parameters=[0.0])
    b = _evaluated([0.0])
    with pytest.raises(ValueError):
        a.dominates(b)


def test_constraint_violation_zero_when_feasible():
    ind = _evaluated([0.0], constraints=[0.5, 0.0])
    assert ind.constraint_violation == 0.0
    assert ind.is_feasible


def test_constraint_violation_sums_violations():
    ind = _evaluated([0.0], constraints=[-0.5, -1.5, 2.0])
    assert ind.constraint_violation == pytest.approx(2.0)
    assert not ind.is_feasible


def test_no_constraints_is_feasible():
    ind = _evaluated([0.0])
    assert ind.is_feasible


def test_constrained_dominates_feasible_beats_infeasible():
    feasible = _evaluated([10.0], constraints=[0.0])
    infeasible = _evaluated([0.0], constraints=[-1.0])
    assert feasible.constrained_dominates(infeasible)
    assert not infeasible.constrained_dominates(feasible)


def test_constrained_dominates_smaller_violation_wins():
    slightly = _evaluated([5.0], constraints=[-0.1])
    badly = _evaluated([0.0], constraints=[-5.0])
    assert slightly.constrained_dominates(badly)


def test_constrained_dominates_both_feasible_uses_pareto():
    a = _evaluated([0.0, 0.0], constraints=[1.0])
    b = _evaluated([1.0, 1.0], constraints=[1.0])
    assert a.constrained_dominates(b)


def test_copy_is_deep_for_arrays():
    ind = _evaluated([1.0, 2.0], constraints=[0.0])
    ind.raw_objectives = {"f": 1.0}
    clone = ind.copy()
    clone.objectives[0] = 99.0
    clone.raw_objectives["f"] = 99.0
    assert ind.objectives[0] == 1.0
    assert ind.raw_objectives["f"] == 1.0


def test_as_dict_merges_parameters_and_metrics():
    ind = Individual(parameters=np.array([1.0, 2.0]))
    ind.raw_objectives = {"jitter": 3.0}
    ind.metrics = {"extra": 4.0}
    record = ind.as_dict(["w", "l"])
    assert record == {"w": 1.0, "l": 2.0, "jitter": 3.0, "extra": 4.0}


def test_as_dict_default_parameter_names():
    ind = Individual(parameters=np.array([1.0, 2.0]))
    ind.raw_objectives = {}
    record = ind.as_dict()
    assert record == {"x0": 1.0, "x1": 2.0}


def _property_violations(population):
    return np.array([ind.constraint_violation for ind in population], dtype=float)


@pytest.mark.parametrize("n_constraints", range(40))
def test_violations_vector_matches_property_bit_for_bit(n_constraints):
    # The stacked row sums must give the property's bytes, signed zeros,
    # infinities and NaN included.
    rng = np.random.default_rng(n_constraints)
    rows = rng.uniform(-1.0, 1.0, size=(64, n_constraints))
    mask = rng.random(rows.shape) < 0.15
    rows[mask] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=mask.sum())
    rows[0] = -0.0
    population = [_evaluated([0.0], row) for row in rows]
    expected = _property_violations(population)
    assert np.array_equal(
        violations_vector(population).view(np.uint64), expected.view(np.uint64)
    )


@pytest.mark.parametrize(
    "constraints",
    [
        [None, None],
        [None, [-1.0, 2.0]],
        [[], [-1.0, 2.0]],
        [[-1.0], [-1.0, -2.0]],
        [[-1.0, -2.0], [[-1.0, -2.0]]],
    ],
    ids=["none", "none-and-vector", "empty-and-vector", "ragged", "ndim"],
)
def test_violations_vector_falls_back_on_missing_or_ragged_constraints(constraints):
    population = [_evaluated([0.0], row) for row in constraints]
    assert np.array_equal(
        violations_vector(population).view(np.uint64),
        _property_violations(population).view(np.uint64),
    )


def test_violations_vector_of_empty_population():
    assert violations_vector([]).shape == (0,)
