"""Tests for the NSGA-II driver on analytic benchmark problems."""

import numpy as np
import pytest

from repro.optim import NSGA2, NSGA2Config, Objective, Parameter, Problem, hypervolume
from repro.optim.problem import Evaluation


class ZDT1(Problem):
    """Classic two-objective benchmark with a known convex Pareto front."""

    def __init__(self, n_vars=6):
        parameters = [Parameter(f"x{i}", 0.0, 1.0) for i in range(n_vars)]
        objectives = [Objective("f1", "min"), Objective("f2", "min")]
        super().__init__(parameters, objectives, name="zdt1")

    def evaluate(self, values):
        x = np.array([values[f"x{i}"] for i in range(self.n_parameters)])
        f1 = x[0]
        g = 1.0 + 9.0 * np.sum(x[1:]) / (self.n_parameters - 1)
        f2 = g * (1.0 - np.sqrt(f1 / g))
        return Evaluation(objectives={"f1": float(f1), "f2": float(f2)})


class ConstrainedProblem(Problem):
    """Single-objective quadratic with a binding constraint x >= 0.5."""

    def __init__(self):
        super().__init__(
            [Parameter("x", 0.0, 1.0)],
            [Objective("f", "min")],
            ["g"],
            name="constrained",
        )

    def evaluate(self, values):
        x = values["x"]
        return Evaluation(objectives={"f": x**2}, constraints={"g": x - 0.5})


class MaximisationProblem(Problem):
    """Single maximisation objective to exercise sense conversion."""

    def __init__(self):
        super().__init__([Parameter("x", 0.0, 1.0)], [Objective("f", "max")])

    def evaluate(self, values):
        x = values["x"]
        return Evaluation(objectives={"f": -(x - 0.7) ** 2})


def test_config_validation():
    with pytest.raises(ValueError):
        NSGA2Config(population_size=3)
    with pytest.raises(ValueError):
        NSGA2Config(population_size=11)
    with pytest.raises(ValueError):
        NSGA2Config(generations=0)


def test_nsga2_runs_and_returns_front():
    result = NSGA2(ZDT1(), NSGA2Config(population_size=20, generations=10, seed=1)).run()
    assert len(result.front) > 0
    assert result.evaluations == 20 * (10 + 1)
    assert len(result.population) == 20


def test_nsga2_front_is_mutually_non_dominated():
    result = NSGA2(ZDT1(), NSGA2Config(population_size=16, generations=8, seed=2)).run()
    objectives = result.front.objectives
    for i in range(objectives.shape[0]):
        for j in range(objectives.shape[0]):
            if i == j:
                continue
            assert not (
                np.all(objectives[j] <= objectives[i]) and np.any(objectives[j] < objectives[i])
            )


def test_nsga2_improves_hypervolume_over_generations():
    problem = ZDT1()
    history_fronts = {}

    def callback(generation, population):
        points = np.vstack([ind.objectives for ind in population if ind.rank == 0])
        history_fronts[generation] = hypervolume(points, [2.0, 11.0])

    NSGA2(problem, NSGA2Config(population_size=24, generations=12, seed=3)).run(callback)
    assert history_fronts[12] >= history_fronts[0]


def test_nsga2_approaches_zdt1_front():
    result = NSGA2(ZDT1(), NSGA2Config(population_size=40, generations=40, seed=4)).run()
    # On the true front f2 = 1 - sqrt(f1); check the population is close.
    objectives = result.front.objectives
    errors = objectives[:, 1] - (1.0 - np.sqrt(np.clip(objectives[:, 0], 0.0, 1.0)))
    assert np.median(errors) < 0.6


def test_nsga2_reproducible_with_seed():
    config = NSGA2Config(population_size=16, generations=5, seed=42)
    result_a = NSGA2(ZDT1(), config).run()
    result_b = NSGA2(ZDT1(), NSGA2Config(population_size=16, generations=5, seed=42)).run()
    assert np.allclose(result_a.front.objectives, result_b.front.objectives)


def test_nsga2_different_seeds_differ():
    result_a = NSGA2(ZDT1(), NSGA2Config(population_size=16, generations=5, seed=1)).run()
    result_b = NSGA2(ZDT1(), NSGA2Config(population_size=16, generations=5, seed=2)).run()
    a = np.sort(result_a.front.objectives[:, 0])
    b = np.sort(result_b.front.objectives[:, 0])
    assert a.shape != b.shape or not np.allclose(a, b)


def test_nsga2_respects_constraints():
    result = NSGA2(
        ConstrainedProblem(), NSGA2Config(population_size=20, generations=15, seed=5)
    ).run()
    assert len(result.front) > 0
    for individual in result.front:
        x = individual.parameters[0]
        assert x >= 0.5 - 1e-6
    # The constrained optimum is at x = 0.5.
    best = min(ind.raw_objectives["f"] for ind in result.front)
    assert best == pytest.approx(0.25, abs=0.05)


def test_nsga2_handles_maximisation_objectives():
    result = NSGA2(
        MaximisationProblem(), NSGA2Config(population_size=16, generations=15, seed=6)
    ).run()
    best_x = result.front[0].parameters[0]
    assert best_x == pytest.approx(0.7, abs=0.1)
    # Raw objective is reported in its natural (maximisation) sense.
    assert result.front[0].raw_objectives["f"] <= 0.0


def test_nsga2_history_records_every_generation():
    config = NSGA2Config(population_size=12, generations=7, seed=7)
    result = NSGA2(ZDT1(), config).run()
    assert len(result.history) == 8  # initial population + 7 generations
    assert result.history[-1].evaluations == result.evaluations
    assert all(stats.front_size >= 1 for stats in result.history)


def test_nsga2_population_size_is_preserved():
    config = NSGA2Config(population_size=14, generations=4, seed=8)
    result = NSGA2(ZDT1(), config).run()
    assert len(result.population) == 14


def test_nsga2_callback_receives_population():
    seen = []

    def callback(generation, population):
        seen.append((generation, len(population)))

    NSGA2(ZDT1(), NSGA2Config(population_size=12, generations=3, seed=9)).run(callback)
    assert seen[0] == (0, 12)
    assert seen[-1][0] == 3


# -- generation checkpointing and cancellation --------------------------------------------


class MemoryCheckpoint:
    """In-memory load/store/clear with a pickle round trip per store.

    The round trip matters: it makes the unit test see exactly what a
    disk-backed checkpoint would hand back (fresh dtype/str objects), the
    situation the canonicalising restore path exists for.
    """

    def __init__(self):
        self.state = None
        self.stores = 0
        self.cleared = False

    def load(self):
        return self.state

    def store(self, state):
        import pickle

        self.state = pickle.loads(pickle.dumps(state))
        self.stores += 1

    def clear(self):
        self.state = None
        self.cleared = True


class InterruptingCheckpoint(MemoryCheckpoint):
    """Simulates a crash after ``fail_after`` persisted generations."""

    def __init__(self, fail_after):
        super().__init__()
        self.fail_after = fail_after

    def store(self, state):
        super().store(state)
        if self.stores >= self.fail_after:
            raise KeyboardInterrupt("simulated mid-optimisation crash")


CHECKPOINT_CONFIG = dict(population_size=16, generations=10, seed=3)


def test_interrupted_run_resumes_bit_identically():
    """Kill after generation 3; the resumed run must equal the cold run
    byte for byte (same RNG stream, exact arrays, identical history)."""
    import pickle

    base = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run()

    crashing = InterruptingCheckpoint(fail_after=4)  # initial + gens 1..3
    with pytest.raises(KeyboardInterrupt):
        NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(checkpoint=crashing)
    assert crashing.state["generation"] == 3

    resumed_checkpoint = MemoryCheckpoint()
    resumed_checkpoint.state = crashing.state
    resumed = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(
        checkpoint=resumed_checkpoint
    )
    # Genuinely resumed: only generations 4..10 ran.
    assert resumed_checkpoint.stores == 7
    # Byte-identical result object (arrays, history, memo structure): the
    # artefact a resumed circuit stage pickles must equal the cold run's.
    assert pickle.dumps(resumed, protocol=4) == pickle.dumps(base, protocol=4)
    assert np.array_equal(resumed.front.objectives, base.front.objectives)
    assert resumed.evaluations == base.evaluations


def test_resume_at_final_generation_skips_the_loop():
    """A state persisted after the last generation resumes to the same
    result without executing a single further generation (the crash-in-
    model-build scenario)."""
    import pickle

    base = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run()
    full = MemoryCheckpoint()
    NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(checkpoint=full)
    assert full.state["generation"] == 10  # final state left for the caller

    resumed_checkpoint = MemoryCheckpoint()
    resumed_checkpoint.state = full.state
    resumed = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(
        checkpoint=resumed_checkpoint
    )
    assert resumed_checkpoint.stores == 0
    assert pickle.dumps(resumed, protocol=4) == pickle.dumps(base, protocol=4)


def test_stale_checkpoint_fingerprint_is_discarded():
    """A state written by a different configuration must not be resumed."""
    stale = MemoryCheckpoint()
    NSGA2(ZDT1(), NSGA2Config(population_size=16, generations=3, seed=99)).run(
        checkpoint=stale
    )
    base = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run()
    checkpoint = MemoryCheckpoint()
    checkpoint.state = stale.state
    restarted = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(checkpoint=checkpoint)
    assert np.array_equal(restarted.front.objectives, base.front.objectives)
    assert checkpoint.stores == 11  # full restart: initial + 10 generations


def test_checkpoint_resumes_across_backends():
    """The evaluator is an execution detail: a serial run's state is
    resumable by a vectorised run (backends are bit-identical)."""
    crashing = InterruptingCheckpoint(fail_after=3)
    with pytest.raises(KeyboardInterrupt):
        NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG, evaluator="serial")).run(
            checkpoint=crashing
        )
    base = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run()
    checkpoint = MemoryCheckpoint()
    checkpoint.state = crashing.state
    resumed = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG, evaluator="vectorised")).run(
        checkpoint=checkpoint
    )
    assert checkpoint.stores == 8  # resumed from generation 2, not restarted
    assert np.array_equal(resumed.front.objectives, base.front.objectives)


def test_cancel_token_raises_at_generation_boundary():
    """Cancellation surfaces as JobCancelled right after a generation's
    state was persisted -- never mid-generation, never losing state."""
    from repro.cancel import CancelToken, JobCancelled

    cancelled_after = 3

    class CountingToken(CancelToken):
        def __init__(self, checkpoint):
            super().__init__(should_cancel=lambda: checkpoint.stores >= cancelled_after)

    checkpoint = MemoryCheckpoint()
    with pytest.raises(JobCancelled):
        NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(
            checkpoint=checkpoint, cancel=CountingToken(checkpoint)
        )
    assert checkpoint.stores == cancelled_after
    assert checkpoint.state["generation"] == cancelled_after - 1

    # Resuming after the cancel equals the uninterrupted run exactly.
    base = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run()
    resumed = NSGA2(ZDT1(), NSGA2Config(**CHECKPOINT_CONFIG)).run(checkpoint=checkpoint)
    assert np.array_equal(resumed.front.objectives, base.front.objectives)


def test_cancel_token_latches_and_throttles():
    from repro.cancel import CancelToken, JobCancelled

    polls = []

    def source():
        polls.append(1)
        return False

    token = CancelToken(should_cancel=source, poll_interval=3600.0)
    assert not token.is_cancelled()
    assert not token.is_cancelled()  # throttled: source polled only once
    assert len(polls) == 1

    token = CancelToken(should_cancel=lambda: True)
    assert token.is_cancelled()
    token._should_cancel = lambda: False  # latched: source no longer consulted
    assert token.is_cancelled()

    token = CancelToken()
    token.raise_if_cancelled()  # not cancelled: no raise
    token.cancel()
    with pytest.raises(JobCancelled):
        token.raise_if_cancelled()
    with pytest.raises(ValueError):
        CancelToken(poll_interval=-1.0)
