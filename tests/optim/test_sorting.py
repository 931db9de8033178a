"""Tests for fast non-dominated sorting and crowding distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.individual import Individual
from repro.optim.sorting import (
    crowding_distance,
    domination_matrix,
    fast_non_dominated_sort,
    sort_population,
)


def reference_fast_non_dominated_sort(population):
    """The original per-pair loop implementation, kept as the test oracle."""
    n = len(population)
    if n == 0:
        return []
    dominated_sets = [[] for _ in range(n)]
    domination_counts = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if population[i].constrained_dominates(population[j]):
                dominated_sets[i].append(j)
                domination_counts[j] += 1
            elif population[j].constrained_dominates(population[i]):
                dominated_sets[j].append(i)
                domination_counts[i] += 1
    fronts = []
    current = [i for i in range(n) if domination_counts[i] == 0]
    while current:
        fronts.append(current)
        next_front = []
        for index in current:
            for dominated in dominated_sets[index]:
                domination_counts[dominated] -= 1
                if domination_counts[dominated] == 0:
                    next_front.append(dominated)
        current = next_front
    return fronts


def reference_crowding_distance(population, front):
    """The original per-point crowding loop, kept as the test oracle."""
    size = len(front)
    if size == 0:
        return np.array([])
    distances = np.zeros(size)
    if size <= 2:
        distances[:] = np.inf
        return distances
    objectives = np.vstack([population[i].objectives for i in front])
    for m in range(objectives.shape[1]):
        order = np.argsort(objectives[:, m], kind="stable")
        spread = objectives[order[-1], m] - objectives[order[0], m]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        if spread <= 0.0:
            continue
        for k in range(1, size - 1):
            gap = objectives[order[k + 1], m] - objectives[order[k - 1], m]
            distances[order[k]] += gap / spread
    return distances


def make_population(objective_rows, constraint_rows=None):
    population = []
    for index, row in enumerate(objective_rows):
        individual = Individual(parameters=np.array([float(index)]))
        individual.objectives = np.asarray(row, dtype=float)
        if constraint_rows is not None:
            constraint_row = constraint_rows[index]
            individual.constraints = (
                None if constraint_row is None else np.asarray(constraint_row, dtype=float)
            )
        else:
            individual.constraints = np.array([])
        population.append(individual)
    return population


def test_single_front_when_all_non_dominated():
    population = make_population([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    fronts = fast_non_dominated_sort(population)
    assert len(fronts) == 1
    assert sorted(fronts[0]) == [0, 1, 2, 3]
    assert all(ind.rank == 0 for ind in population)


def test_two_fronts_with_dominated_points():
    population = make_population([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    fronts = fast_non_dominated_sort(population)
    assert len(fronts) == 3
    assert fronts[0] == [0]
    assert population[2].rank == 2


def test_mixed_fronts():
    population = make_population(
        [[1.0, 5.0], [2.0, 3.0], [4.0, 1.0], [3.0, 4.0], [5.0, 5.0]]
    )
    fronts = fast_non_dominated_sort(population)
    assert sorted(fronts[0]) == [0, 1, 2]
    assert 4 in fronts[-1] or population[4].rank > 0


def test_empty_population():
    assert fast_non_dominated_sort([]) == []


def test_constraint_domination_pushes_infeasible_back():
    population = make_population(
        [[0.0, 0.0], [5.0, 5.0]], constraint_rows=[[-1.0], [0.0]]
    )
    fronts = fast_non_dominated_sort(population)
    # The feasible (but worse-objective) individual must come first.
    assert fronts[0] == [1]
    assert population[0].rank == 1


def test_every_individual_appears_exactly_once():
    rng = np.random.default_rng(5)
    population = make_population(rng.uniform(0.0, 1.0, size=(30, 3)))
    fronts = fast_non_dominated_sort(population)
    flat = [i for front in fronts for i in front]
    assert sorted(flat) == list(range(30))


def test_crowding_boundary_points_are_infinite():
    population = make_population([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    front = [0, 1, 2, 3]
    distances = crowding_distance(population, front)
    assert np.isinf(distances[0])
    assert np.isinf(distances[-1])
    assert np.isfinite(distances[1])
    assert np.isfinite(distances[2])


def test_crowding_small_front_all_infinite():
    population = make_population([[0.0, 1.0], [1.0, 0.0]])
    distances = crowding_distance(population, [0, 1])
    assert np.all(np.isinf(distances))


def test_crowding_empty_front():
    assert crowding_distance([], []).size == 0


def test_crowding_updates_individuals_in_place():
    population = make_population([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    crowding_distance(population, [0, 1, 2])
    assert population[0].crowding == np.inf
    assert population[1].crowding > 0.0


def test_crowding_denser_regions_get_smaller_distance():
    # Points 1 and 2 are close together, point 3 is isolated.
    population = make_population(
        [[0.0, 10.0], [1.0, 9.0], [1.2, 8.8], [5.0, 5.0], [10.0, 0.0]]
    )
    front = [0, 1, 2, 3, 4]
    crowding_distance(population, front)
    assert population[3].crowding > population[1].crowding


def test_crowding_identical_objectives_no_nan():
    population = make_population([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    distances = crowding_distance(population, [0, 1, 2])
    assert not np.any(np.isnan(distances))


def test_sort_population_orders_by_rank_then_crowding():
    population = make_population(
        [[0.0, 3.0], [3.0, 0.0], [1.0, 1.0], [5.0, 5.0]]
    )
    ordered = sort_population(population)
    ranks = [ind.rank for ind in ordered]
    assert ranks == sorted(ranks)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=25),
    st.integers(min_value=2, max_value=4),
    st.integers(0, 10_000),
)
def test_property_first_front_is_mutually_non_dominated(n, m, seed):
    rng = np.random.default_rng(seed)
    population = make_population(rng.uniform(0.0, 1.0, size=(n, m)))
    fronts = fast_non_dominated_sort(population)
    first = fronts[0]
    for i in first:
        for j in first:
            if i != j:
                assert not population[i].dominates(population[j])


# -- vectorised implementation vs the original loop oracle ---------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_vectorised_sort_matches_loop_implementation(n, m, constrained, seed):
    rng = np.random.default_rng(seed)
    objective_rows = rng.uniform(0.0, 1.0, size=(n, m))
    # Duplicate some rows so exact ties are exercised too.
    if n >= 4:
        objective_rows[n // 2] = objective_rows[0]
    constraint_rows = (
        rng.uniform(-0.5, 0.5, size=(n, 2)) if constrained else None
    )
    population = make_population(objective_rows, constraint_rows)
    reference = reference_fast_non_dominated_sort(
        make_population(objective_rows, constraint_rows)
    )
    fronts = fast_non_dominated_sort(population)
    # Exact equality including index order inside every front: seeded runs
    # depend on it.
    assert fronts == reference


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=4),
    st.integers(0, 10_000),
)
def test_vectorised_crowding_matches_loop_implementation(n, m, seed):
    rng = np.random.default_rng(seed)
    objective_rows = rng.uniform(0.0, 1.0, size=(n, m))
    if n >= 3:
        objective_rows[-1] = objective_rows[0]
    population = make_population(objective_rows)
    front = list(range(n))
    reference = reference_crowding_distance(make_population(objective_rows), front)
    distances = crowding_distance(population, front)
    assert np.array_equal(distances, reference)


def reference_domination_matrix(population):
    """Deb's rule pair by pair through :meth:`Individual.constrained_dominates`."""
    n = len(population)
    return np.array(
        [
            [i != j and population[i].constrained_dominates(population[j]) for j in range(n)]
            for i in range(n)
        ],
        dtype=bool,
    )


def fuzz_rows(rng, n, m, objectives, constraints):
    """Objective and constraint rows of one oracle-fuzz population.

    ``objectives``: ``"uniform"``; ``"integer"`` (few distinct values, so
    long domination chains and exact ties); ``"nonfinite"`` (some NaN and
    +-inf entries).  ``constraints``: ``"none"`` (empty vectors);
    ``"uniform"``; ``"equal"`` (values from a small set, so many
    infeasible individuals share one total violation); ``"mixed"`` (empty,
    ``None`` and two-element vectors in one population).
    """
    if objectives == "integer":
        objective_rows = rng.integers(0, 6, size=(n, m)).astype(float)
    else:
        objective_rows = rng.uniform(0.0, 1.0, size=(n, m))
    if objectives == "nonfinite":
        mask = rng.random((n, m)) < 0.15
        objective_rows[mask] = rng.choice([np.nan, np.inf, -np.inf], size=mask.sum())
    if n >= 4:
        objective_rows[n // 2] = objective_rows[0]
    if constraints == "none":
        return objective_rows, None
    if constraints == "equal":
        return objective_rows, rng.choice([-1.0, -0.5, 0.0, 0.5], size=(n, 2))
    constraint_rows = list(rng.uniform(-0.5, 0.5, size=(n, 2)))
    if constraints == "mixed":
        for index in np.flatnonzero(rng.random(n) < 0.4):
            constraint_rows[index] = None if index % 2 else []
    return objective_rows, constraint_rows


def assert_sort_matches_oracle(objective_rows, constraint_rows):
    """Fronts (in-front order too), ranks and the domination matrix equal
    the per-pair loops'."""
    population = make_population(objective_rows, constraint_rows)
    oracle = make_population(objective_rows, constraint_rows)
    reference = reference_fast_non_dominated_sort(oracle)
    assert fast_non_dominated_sort(population) == reference
    ranks = np.empty(len(population), dtype=int)
    for rank, front in enumerate(reference):
        ranks[front] = rank
    assert [ind.rank for ind in population] == ranks.tolist()
    assert np.array_equal(domination_matrix(population), reference_domination_matrix(oracle))


OBJECTIVE_KINDS = ["uniform", "integer", "nonfinite"]
CONSTRAINT_KINDS = ["none", "uniform", "equal", "mixed"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from(CONSTRAINT_KINDS),
    st.integers(0, 10_000),
)
def test_sort_matches_loop_oracle_on_ties_nonfinite_and_mixed_constraints(
    n, m, objectives, constraints, seed
):
    rng = np.random.default_rng(seed)
    assert_sort_matches_oracle(*fuzz_rows(rng, n, m, objectives, constraints))


@pytest.mark.parametrize(
    "objectives, constraints",
    [("uniform", "uniform"), ("integer", "equal"), ("nonfinite", "mixed")],
)
def test_sort_matches_loop_oracle_on_a_table2_sized_merge(objectives, constraints):
    # Survival sorts parents plus offspring: 2 x 100 at the paper's scale.
    rng = np.random.default_rng(200)
    assert_sort_matches_oracle(*fuzz_rows(rng, 200, 5, objectives, constraints))


def test_domination_matrix_matches_pairwise_method():
    rng = np.random.default_rng(17)
    population = make_population(
        rng.uniform(0.0, 1.0, size=(20, 3)),
        constraint_rows=rng.uniform(-0.4, 0.6, size=(20, 2)),
    )
    matrix = domination_matrix(population)
    for i in range(20):
        for j in range(20):
            expected = i != j and population[i].constrained_dominates(population[j])
            assert matrix[i, j] == expected


def test_sort_raises_on_unevaluated_individuals():
    population = [Individual(parameters=np.array([0.0]))]
    with pytest.raises(ValueError):
        fast_non_dominated_sort(population)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=25), st.integers(0, 10_000))
def test_property_later_fronts_are_dominated_by_someone_earlier(n, seed):
    rng = np.random.default_rng(seed)
    population = make_population(rng.uniform(0.0, 1.0, size=(n, 2)))
    fronts = fast_non_dominated_sort(population)
    for level in range(1, len(fronts)):
        for index in fronts[level]:
            dominated = any(
                population[previous].dominates(population[index])
                for previous in fronts[level - 1]
            )
            assert dominated
