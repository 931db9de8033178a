"""The NSGA-II driver.

Implements the elitist generational loop outlined in section 2.1 of the
paper: an initial random population is evaluated, offspring are produced by
binary crowded tournament selection, SBX crossover and polynomial mutation,
parents and offspring are merged, and fast non-dominated sorting plus
crowding-distance truncation select the next generation.  The elitist merge
"makes sure that good design solutions found early in the optimisation will
be carried to the next generation".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.cancel import CancelToken
from repro.obs import trace as obs_trace
from repro.optim.evaluation import (
    DEFAULT_EVALUATION,
    EVALUATOR_CHOICES,
    BatchEvaluator,
    create_evaluator,
)
from repro.optim.individual import Individual, objectives_matrix, violations_vector
from repro.optim.operators import PolynomialMutation, SBXCrossover, binary_tournament
from repro.optim.pareto import ParetoFront
from repro.optim.problem import Problem
from repro.optim.sorting import crowding_distance, fast_non_dominated_sort

__all__ = ["NSGA2Config", "GenerationStats", "OptimisationResult", "NSGA2"]


@dataclass
class NSGA2Config:
    """Configuration of an NSGA-II run.

    The paper's circuit-level run used ``population_size=100`` and
    ``generations=30`` (3,000 evaluations, section 4.2).  Smaller defaults
    are used here so the test-suite stays fast; the benchmarks scale the
    settings back up.

    ``evaluator`` selects how a population reaches the problem
    (``"vectorised"``, the default: one ``evaluate_batch`` call; or
    ``"serial"``: one call per individual; see
    :mod:`repro.optim.evaluation`).  Both backends consume the same seeded
    RNG stream, so a correctly vectorised problem produces the same Pareto
    front on either.
    """

    population_size: int = 40
    generations: int = 20
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: Optional[float] = None
    mutation_eta: float = 20.0
    seed: Optional[int] = 2009
    evaluator: str = DEFAULT_EVALUATION

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.population_size % 2:
            raise ValueError("population_size must be even")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if (
            not np.isfinite(self.crossover_probability)
            or not 0.0 <= self.crossover_probability <= 1.0
        ):
            raise ValueError("crossover_probability must be finite and within [0, 1]")
        if not np.isfinite(self.crossover_eta) or self.crossover_eta <= 0.0:
            raise ValueError("crossover_eta must be finite and positive")
        if self.mutation_probability is not None and (
            not np.isfinite(self.mutation_probability)
            or not 0.0 <= self.mutation_probability <= 1.0
        ):
            raise ValueError("mutation_probability must be finite and within [0, 1]")
        if not np.isfinite(self.mutation_eta) or self.mutation_eta <= 0.0:
            raise ValueError("mutation_eta must be finite and positive")
        if (self.evaluator or DEFAULT_EVALUATION).lower() not in EVALUATOR_CHOICES:
            raise ValueError(
                f"evaluator must be one of {', '.join(EVALUATOR_CHOICES)}; "
                f"got {self.evaluator!r}"
            )

    def as_dict(self) -> dict:
        """Serialise the configuration to a plain JSON-compatible dict.

        Returns
        -------
        dict
            One entry per dataclass field; the scenario subsystem stores
            this next to cached artefacts so a cache entry records the
            exact optimiser settings that produced it.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "NSGA2Config":
        """Rebuild a configuration from :meth:`as_dict` output.

        Parameters
        ----------
        values:
            Mapping with one entry per dataclass field; unknown keys raise
            ``TypeError`` so stale cache metadata is detected instead of
            silently ignored.

        Returns
        -------
        NSGA2Config
            A validated configuration equal to the one serialised.
        """
        return cls(**values)


@dataclass
class GenerationStats:
    """Summary of one generation, recorded for convergence reporting."""

    generation: int
    evaluations: int
    front_size: int
    best_objectives: np.ndarray
    feasible_fraction: float


@dataclass
class OptimisationResult:
    """Outcome of an NSGA-II run."""

    front: ParetoFront
    population: List[Individual]
    history: List[GenerationStats] = field(default_factory=list)
    evaluations: int = 0

    @property
    def n_evaluations(self) -> int:
        """Total number of objective evaluations performed."""
        return self.evaluations


class NSGA2:
    """Non-dominated Sorting Genetic Algorithm II.

    Populations are evaluated through a pluggable
    :class:`~repro.optim.evaluation.BatchEvaluator`: the whole population
    (or offspring batch) is handed to the backend in one call instead of N
    separate Python calls, which is what makes vectorised evaluation
    possible.  Pass ``evaluator`` to inject a custom backend; otherwise one
    is built from ``config.evaluator``.
    """

    def __init__(
        self,
        problem: Problem,
        config: NSGA2Config | None = None,
        evaluator: BatchEvaluator | None = None,
    ) -> None:
        self.problem = problem
        self.config = config or NSGA2Config()
        self.crossover = SBXCrossover(
            probability=self.config.crossover_probability, eta=self.config.crossover_eta
        )
        self.mutation = PolynomialMutation(
            probability=self.config.mutation_probability, eta=self.config.mutation_eta
        )
        self.evaluator = evaluator or create_evaluator(self.config.evaluator)
        self._rng = np.random.default_rng(self.config.seed)

    # -- public API -----------------------------------------------------------

    def run(
        self,
        callback: Callable[[int, List[Individual]], None] | None = None,
        checkpoint: Optional[object] = None,
        cancel: Optional[CancelToken] = None,
    ) -> OptimisationResult:
        """Execute the full optimisation and return the final Pareto front.

        Parameters
        ----------
        callback:
            Optional ``callback(generation, population)`` hook invoked after
            every generation (used by the benchmarks to record convergence).
            On a resumed run it fires only for the generations actually
            executed, not for the restored ones.
        checkpoint:
            Optional mid-run checkpoint store with ``load()``, ``store(state)``
            and ``clear()`` (duck-typed; the experiment runner passes a
            cache-entry-backed one writing ``circuit.partial.pkl``).  After
            every generation the full optimiser state -- fingerprint,
            generation number, ranked population, RNG bit-state, evaluation
            count and history -- is persisted, and a rerun with the same
            configuration resumes from it instead of restarting.  Because
            the RNG stream is restored bit-exactly, a resumed run is
            bit-identical to an uninterrupted one.  The final generation's
            state is deliberately *left behind*: the caller clears it once
            the artefact built from this result is itself persisted, so a
            crash between the two never loses the optimisation.
        cancel:
            Optional :class:`~repro.cancel.CancelToken` polled right after
            each generation's checkpoint; raises
            :class:`~repro.cancel.JobCancelled` at that boundary, so a
            cancelled run always leaves a resumable state behind.
        """
        fingerprint = self._fingerprint()
        evaluations = 0
        history: List[GenerationStats] = []
        population: Optional[List[Individual]] = None
        next_generation = 1
        if checkpoint is not None:
            state = checkpoint.load()
            if self._state_matches(state, fingerprint):
                population, history = self._canonicalise_state(state)
                evaluations = int(state["evaluations"])
                self._rng.bit_generator.state = state["rng_state"]
                next_generation = int(state["generation"]) + 1
        if population is None:
            population = self._initial_population()
            evaluations += len(population)
            self._assign_ranks(population)
            history.append(self._stats(0, evaluations, population))
            if callback is not None:
                callback(0, population)
            self._store_state(checkpoint, fingerprint, 0, population, evaluations, history)
            if cancel is not None:
                cancel.raise_if_cancelled()
        for generation in range(next_generation, self.config.generations + 1):
            with obs_trace.span(
                "nsga2.generation",
                problem=self.problem.name,
                generation=generation,
            ):
                offspring = self._make_offspring(population)
                evaluations += len(offspring)
                population = self._survival(population + offspring)
                history.append(self._stats(generation, evaluations, population))
                if callback is not None:
                    callback(generation, population)
                self._store_state(
                    checkpoint, fingerprint, generation, population, evaluations, history
                )
            if cancel is not None:
                cancel.raise_if_cancelled()
        front = self.pareto_front(population)
        return OptimisationResult(
            front=front, population=population, history=history, evaluations=evaluations
        )

    def pareto_front(self, population: List[Individual]) -> ParetoFront:
        """Extract the first non-domination front of ``population``."""
        fronts = fast_non_dominated_sort(population)
        members = [population[i] for i in fronts[0]] if fronts else []
        # Keep only feasible members when any feasible solution exists.
        feasible = [ind for ind in members if ind.is_feasible]
        selected = feasible if feasible else members
        return ParetoFront(
            selected,
            self.problem.parameter_names,
            self.problem.objective_names,
            [objective.sense for objective in self.problem.objectives],
        )

    # -- generation checkpointing ----------------------------------------------

    def _fingerprint(self) -> Dict[str, Any]:
        """What a checkpointed state must have been produced by to be resumed.

        The execution-only ``evaluator`` setting is excluded for the same
        reason the scenario cache excludes it: both backends are
        bit-identical for a fixed seed, so a run may resume another
        backend's checkpoint.
        """
        settings = self.config.as_dict()
        settings.pop("evaluator")
        return {
            "problem": self.problem.name,
            "parameters": list(self.problem.parameter_names),
            "objectives": list(self.problem.objective_names),
            "config": settings,
        }

    def _state_matches(self, state: object, fingerprint: Dict[str, Any]) -> bool:
        """Whether a loaded checkpoint state is resumable for this run."""
        return (
            isinstance(state, dict)
            and state.get("fingerprint") == fingerprint
            and isinstance(state.get("generation"), int)
            and 0 <= state["generation"] <= self.config.generations
            and isinstance(state.get("population"), list)
            and len(state["population"]) == self.config.population_size
            and state.get("rng_state") is not None
        )

    def _canonicalise_state(
        self, state: Dict[str, Any]
    ) -> tuple[List[Individual], List[GenerationStats]]:
        """Rebuild a restored state from canonical Python/numpy objects.

        Unpickling preserves every bit of every value, but not object
        *identity*: restored arrays carry their own ``dtype`` instance
        instead of numpy's interned ``float64`` singleton, and restored
        dict keys are fresh string objects instead of the interned
        literals a live evaluation produces.  Value-wise that is
        invisible; byte-wise it changes the memo structure of any pickle
        containing the resumed population -- and the project's invariant
        is that a resumed run's *artefacts* are byte-identical to a cold
        run's.  Rebuilding every individual and stats record exactly the
        way a live evaluation builds them restores that identity
        structure.
        """
        def text(key: object) -> str:
            return sys.intern(str(key))

        def array(values: Optional[np.ndarray]) -> Optional[np.ndarray]:
            # .astype (unlike np.array(..., dtype=...)) always rebuilds
            # with the interned float64 dtype singleton, not the restored
            # array's private dtype instance.
            return None if values is None else np.asarray(values).astype(float)

        population = [
            Individual(
                parameters=array(ind.parameters),
                objectives=array(ind.objectives),
                constraints=array(ind.constraints),
                raw_objectives={text(k): float(v) for k, v in ind.raw_objectives.items()},
                metrics={text(k): float(v) for k, v in ind.metrics.items()},
                rank=int(ind.rank),
                crowding=float(ind.crowding),
            )
            for ind in state["population"]
        ]
        history = [
            GenerationStats(
                generation=int(stats.generation),
                evaluations=int(stats.evaluations),
                front_size=int(stats.front_size),
                best_objectives=np.asarray(stats.best_objectives).astype(float),
                feasible_fraction=float(stats.feasible_fraction),
            )
            for stats in state["history"]
        ]
        return population, history

    def _store_state(
        self,
        checkpoint: Optional[object],
        fingerprint: Dict[str, Any],
        generation: int,
        population: List[Individual],
        evaluations: int,
        history: List[GenerationStats],
    ) -> None:
        if checkpoint is None:
            return
        checkpoint.store(
            {
                "fingerprint": fingerprint,
                "generation": generation,
                "population": population,
                # The bit-exact generator state: restoring it replays the
                # remaining generations on the identical RNG stream.
                "rng_state": self._rng.bit_generator.state,
                "evaluations": evaluations,
                "history": history,
            }
        )

    # -- internals -------------------------------------------------------------

    def _evaluate_batch(self, vectors: List[np.ndarray]) -> List[Individual]:
        """Evaluate a whole batch of vectors through the configured backend."""
        return self.evaluator.evaluate(self.problem, vectors)

    def _initial_population(self) -> List[Individual]:
        # Sampling stays one vector at a time so the seeded RNG stream is
        # identical across all evaluation backends (and to historical runs).
        vectors = [
            self.problem.sample(self._rng) for _ in range(self.config.population_size)
        ]
        return self._evaluate_batch(vectors)

    def _assign_ranks(self, population: List[Individual]) -> None:
        fronts = fast_non_dominated_sort(population)
        for front in fronts:
            crowding_distance(population, front)

    def _make_offspring(self, population: List[Individual]) -> List[Individual]:
        lower = self.problem.lower_bounds
        upper = self.problem.upper_bounds
        # All variation operators run first (consuming the RNG in the same
        # order as the historical interleaved loop -- evaluation never
        # touches the RNG), then the whole offspring batch is evaluated in
        # one backend call.
        vectors: List[np.ndarray] = []
        while len(vectors) < self.config.population_size:
            parent_a = binary_tournament(population, self._rng)
            parent_b = binary_tournament(population, self._rng)
            child_a, child_b = self.crossover(
                parent_a.parameters, parent_b.parameters, lower, upper, self._rng
            )
            child_a = self.mutation(child_a, lower, upper, self._rng)
            child_b = self.mutation(child_b, lower, upper, self._rng)
            vectors.append(child_a)
            if len(vectors) < self.config.population_size:
                vectors.append(child_b)
        return self._evaluate_batch(vectors)

    def _survival(self, merged: List[Individual]) -> List[Individual]:
        fronts = fast_non_dominated_sort(merged)
        survivors: List[Individual] = []
        for front in fronts:
            crowding_distance(merged, front)
            if len(survivors) + len(front) <= self.config.population_size:
                survivors.extend(merged[i] for i in front)
            else:
                remaining = self.config.population_size - len(survivors)
                ordered = sorted(front, key=lambda i: -merged[i].crowding)
                survivors.extend(merged[i] for i in ordered[:remaining])
                break
        return survivors

    def _stats(
        self, generation: int, evaluations: int, population: List[Individual]
    ) -> GenerationStats:
        feasible = int(np.count_nonzero(violations_vector(population) == 0.0))
        return GenerationStats(
            generation=generation,
            evaluations=evaluations,
            front_size=sum(1 for ind in population if ind.rank == 0),
            best_objectives=objectives_matrix(population).min(axis=0),
            feasible_fraction=feasible / len(population),
        )
