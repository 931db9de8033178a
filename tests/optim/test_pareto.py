"""Tests for Pareto-front utilities (filtering, hypervolume, knee point)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.individual import Individual
from repro.optim.pareto import (
    ParetoFront,
    dominates,
    hypervolume,
    knee_point,
    pareto_filter,
    pareto_matrix,
    spacing,
)


def reference_pareto_filter(points):
    """The per-pair loop ``pareto_filter`` used to run, kept as the test oracle."""
    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        for j in range(n):
            if i == j or not keep[j]:
                continue
            if dominates(arr[j], arr[i]):
                keep[i] = False
                break
    return np.flatnonzero(keep)


def test_dominates_basic():
    assert dominates([0.0, 0.0], [1.0, 1.0])
    assert not dominates([1.0, 1.0], [0.0, 0.0])
    assert not dominates([0.0, 1.0], [1.0, 0.0])
    assert not dominates([1.0, 1.0], [1.0, 1.0])


def test_dominates_shape_mismatch_raises():
    with pytest.raises(ValueError):
        dominates([0.0], [0.0, 1.0])


def test_pareto_filter_removes_dominated_rows():
    points = np.array([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
    keep = pareto_filter(points)
    assert set(keep) == {0, 1, 2}


def test_pareto_filter_all_non_dominated():
    points = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert len(pareto_filter(points)) == 3


def test_pareto_filter_requires_2d():
    with pytest.raises(ValueError):
        pareto_filter([1.0, 2.0])


def test_hypervolume_single_point():
    assert hypervolume([[1.0, 1.0]], [2.0, 2.0]) == pytest.approx(1.0)


def test_hypervolume_two_points_2d():
    points = [[1.0, 3.0], [3.0, 1.0]]
    # Two unit-overlapping rectangles against reference (4, 4):
    # (4-1)*(4-3) + (4-3)*(4-1) ... computed by slicing = 3 + 3 - 1 = 5
    assert hypervolume(points, [4.0, 4.0]) == pytest.approx(5.0)


def test_hypervolume_point_outside_reference_ignored():
    assert hypervolume([[5.0, 5.0]], [4.0, 4.0]) == 0.0


def test_hypervolume_dominated_points_do_not_add_volume():
    base = hypervolume([[1.0, 1.0]], [3.0, 3.0])
    with_dominated = hypervolume([[1.0, 1.0], [2.0, 2.0]], [3.0, 3.0])
    assert with_dominated == pytest.approx(base)


def test_hypervolume_three_objectives():
    points = [[1.0, 1.0, 1.0]]
    assert hypervolume(points, [2.0, 2.0, 2.0]) == pytest.approx(1.0)


def test_hypervolume_monotonic_in_front_quality():
    worse = [[2.0, 2.0]]
    better = [[1.0, 1.0]]
    ref = [3.0, 3.0]
    assert hypervolume(better, ref) > hypervolume(worse, ref)


def test_knee_point_prefers_balanced_solution():
    points = np.array([[0.0, 1.0], [0.1, 0.1], [1.0, 0.0]])
    assert knee_point(points) == 1


def test_knee_point_single_point():
    assert knee_point([[1.0, 2.0]]) == 0


def test_knee_point_empty_raises():
    with pytest.raises(ValueError):
        knee_point(np.empty((0, 2)))


def test_spacing_uniform_front_is_zero():
    points = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    assert spacing(points) == pytest.approx(0.0, abs=1e-12)


def test_spacing_irregular_front_is_positive():
    points = np.array([[0.0, 3.0], [0.1, 2.9], [3.0, 0.0]])
    assert spacing(points) > 0.0


def test_spacing_single_point_is_zero():
    assert spacing([[1.0, 1.0]]) == 0.0


def _front_from(objectives, parameters=None):
    individuals = []
    if parameters is None:
        parameters = [[float(i)] for i in range(len(objectives))]
    for params, objs in zip(parameters, objectives):
        ind = Individual(parameters=np.asarray(params, dtype=float))
        ind.objectives = np.asarray(objs, dtype=float)
        ind.raw_objectives = {"f1": float(objs[0]), "f2": float(objs[1])}
        individuals.append(ind)
    return ParetoFront(individuals, ["p"], ["f1", "f2"])


def test_pareto_front_container_basics():
    front = _front_from([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert len(front) == 3
    assert front.parameters.shape == (3, 1)
    assert front.objectives.shape == (3, 2)
    assert list(front.raw_objective("f1")) == [0.0, 1.0, 2.0]
    assert list(front.parameter("p")) == [0.0, 1.0, 2.0]
    assert front[0].raw_objectives["f1"] == 0.0


def test_pareto_front_to_records():
    front = _front_from([[0.0, 2.0], [1.0, 1.0]])
    records = front.to_records()
    assert len(records) == 2
    assert records[0]["p"] == 0.0
    assert records[1]["f2"] == 1.0


def test_pareto_front_sorted_by():
    front = _front_from([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    ordered = front.sorted_by("f1")
    assert list(ordered.raw_objective("f1")) == [0.0, 1.0, 2.0]


def test_pareto_front_non_dominated_filter():
    front = _front_from([[0.0, 2.0], [1.0, 1.0], [3.0, 3.0]])
    filtered = front.non_dominated()
    assert len(filtered) == 2


def test_pareto_front_empty():
    front = ParetoFront([], ["p"], ["f1", "f2"])
    assert len(front) == 0
    assert front.parameters.shape == (0, 1)
    assert front.objectives.shape == (0, 2)


def test_pareto_front_skips_unevaluated_individuals():
    evaluated = Individual(parameters=np.array([0.0]))
    evaluated.objectives = np.array([1.0, 1.0])
    unevaluated = Individual(parameters=np.array([1.0]))
    front = ParetoFront([evaluated, unevaluated], ["p"], ["f1", "f2"])
    assert len(front) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(0, 10_000))
def test_property_pareto_filter_result_is_mutually_non_dominated(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 3))
    keep = pareto_filter(points)
    assert keep.size >= 1
    for i in keep:
        for j in keep:
            if i != j:
                assert not dominates(points[j], points[i])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["uniform", "integer", "nonfinite", "duplicated"]),
    st.integers(0, 10_000),
)
def test_pareto_filter_matches_loop_oracle(n, m, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        # Few distinct values: exact ties and long domination chains.
        points = rng.integers(0, 4, size=(n, m)).astype(float)
    else:
        points = rng.uniform(0.0, 1.0, size=(n, m))
    if kind == "nonfinite":
        mask = rng.random((n, m)) < 0.15
        points[mask] = rng.choice([np.nan, np.inf, -np.inf], size=mask.sum())
    if kind == "duplicated" and n:
        points = points[rng.integers(0, n, size=n)]
    assert np.array_equal(pareto_filter(points), reference_pareto_filter(points))
    expected = [[dominates(a, b) for b in points] for a in points]
    assert np.array_equal(pareto_matrix(points), np.array(expected, dtype=bool).reshape(n, n))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=15), st.integers(0, 10_000))
def test_property_hypervolume_never_exceeds_reference_box(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    volume = hypervolume(points, [1.0, 1.0])
    assert 0.0 <= volume <= 1.0 + 1e-12
