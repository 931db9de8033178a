"""Circuit-level optimisation stage (steps 1-3 of figure 4).

Defines the VCO sizing problem exactly as section 4.1/4.2 of the paper --
seven designable W/L parameters bounded by the design rules, five
performance functions (maximise gain and maximum frequency, minimise
jitter, current and minimum frequency), tuning-range constraints derived
from the PLL output-frequency specification -- runs NSGA-II on it, and
turns the resulting Pareto front plus per-point Monte Carlo runs into a
:class:`~repro.core.combined_model.CombinedPerformanceVariationModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

import numpy as np

from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.performance import VcoPerformance
from repro.circuits.topology import CircuitTopology, topology_for_evaluator
from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.core.performance_model import PerformanceModel
from repro.core.specification import SpecificationSet, VCO_RANGE_SPECIFICATIONS
from repro.core.variation_model import VariationModel
from repro.optim import NSGA2, NSGA2Config, Objective, OptimisationResult, Problem
from repro.optim.problem import Evaluation
from repro.process.technology import TECH_012UM, Technology

__all__ = ["VcoSizingProblem", "CircuitStageResult", "CircuitLevelOptimisation"]


class VcoSizingProblem(Problem):
    """The paper's circuit-level multi-objective VCO sizing problem.

    The design space, bounds and default evaluator all come from the
    circuit's registered :class:`~repro.circuits.topology.CircuitTopology`
    (resolved from the evaluator when not given explicitly), so the same
    problem class serves every topology.  The ring keeps its historical
    problem name ``vco_sizing`` -- NSGA-II checkpoint fingerprints include
    it, and pre-seam checkpoints must stay resumable.
    """

    def __init__(
        self,
        evaluator: Optional[VcoEvaluator] = None,
        technology: Technology = TECH_012UM,
        range_specifications: SpecificationSet = VCO_RANGE_SPECIFICATIONS,
        topology: Optional[CircuitTopology] = None,
    ) -> None:
        if topology is None:
            topology = topology_for_evaluator(evaluator)
        self.topology = topology
        self.evaluator = evaluator or topology.analytical_evaluator(technology)
        self.range_specifications = range_specifications
        parameters = topology.optimisation_parameters(technology)
        senses = VcoPerformance.objective_senses()
        objectives = [
            Objective("jitter", senses["jitter"], unit="s"),
            Objective("current", senses["current"], unit="A"),
            Objective("kvco", senses["kvco"], unit="Hz/V"),
            Objective("fmin", senses["fmin"], unit="Hz"),
            Objective("fmax", senses["fmax"], unit="Hz"),
        ]
        constraint_names = [f"range_{spec.name}" for spec in range_specifications]
        name = (
            "vco_sizing"
            if topology.name == "ring-vco"
            else f"vco_sizing[{topology.name}]"
        )
        super().__init__(parameters, objectives, constraint_names, name=name)

    def evaluate(self, values: Mapping[str, float]) -> Evaluation:
        """Evaluate one sizing candidate with the configured evaluator."""
        design = self.topology.design_from_mapping(values)
        performance = self.evaluator.evaluate(design)
        return self._to_evaluation(performance)

    def evaluate_batch(self, vectors) -> List[Evaluation]:
        """Evaluate a whole population of sizing candidates in one call.

        Routes through the evaluator's ``evaluate_batch`` so the
        analytical evaluator can run its numpy kernel over the batch axis;
        evaluators without a native batch path (e.g. the SPICE test bench)
        inherit the generic loop and still work.
        """
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_parameters:
            raise ValueError(
                f"expected a (n, {self.n_parameters}) batch matrix, got shape "
                f"{matrix.shape}"
            )
        self.evaluation_count += matrix.shape[0]
        clipped = self.clip(matrix)
        designs = [
            self.topology.design_from_mapping(dict(zip(self.parameter_names, row)))
            for row in clipped
        ]
        performances = self.evaluator.evaluate_batch(designs)
        return [self._to_evaluation(performance) for performance in performances]

    def _to_evaluation(self, performance: VcoPerformance) -> Evaluation:
        objectives = performance.as_dict()
        constraints = {}
        for spec in self.range_specifications:
            value = objectives[spec.name]
            # g(x) >= 0 convention: the margin to the violated side.
            constraints[f"range_{spec.name}"] = spec.margin(value)
        return Evaluation(objectives=objectives, constraints=constraints)


@dataclass
class CircuitStageResult:
    """Everything produced by the circuit-level stage."""

    optimisation: OptimisationResult
    model: CombinedPerformanceVariationModel
    designs: List[object] = field(default_factory=list)

    @property
    def front_size(self) -> int:
        """Number of Pareto-optimal design points."""
        return len(self.optimisation.front)

    @property
    def evaluations(self) -> int:
        """Total circuit evaluations spent by the optimiser."""
        return self.optimisation.evaluations


class CircuitLevelOptimisation:
    """Run NSGA-II on the VCO and build the combined model.

    Parameters
    ----------
    evaluator:
        VCO evaluator used both by the optimiser and by the Monte Carlo
        runs (the calibrated analytical evaluator by default).
    config:
        NSGA-II settings.  The paper used 100 individuals for 30
        generations; the default here is smaller so tests stay fast --
        benchmarks pass the paper's numbers explicitly.
    mc_samples:
        Monte Carlo samples per Pareto point (100 in the paper).
    max_model_points:
        Upper bound on the number of Pareto points carried into the model
        (the densest-crowding points are kept); ``None`` keeps all.
    topology:
        The :class:`~repro.circuits.topology.CircuitTopology` optimised;
        resolved from the evaluator (or the default ring) when omitted.
    """

    def __init__(
        self,
        evaluator: Optional[VcoEvaluator] = None,
        technology: Technology = TECH_012UM,
        config: Optional[NSGA2Config] = None,
        mc_samples: int = 100,
        mc_seed: int = 2009,
        max_model_points: Optional[int] = 24,
        vctrl_min: float = 0.5,
        vctrl_max: Optional[float] = None,
        topology: Optional[CircuitTopology] = None,
    ) -> None:
        self.technology = technology
        self.topology = topology or topology_for_evaluator(evaluator)
        self.evaluator = evaluator or self.topology.analytical_evaluator(technology)
        self.config = config or NSGA2Config(population_size=40, generations=15)
        self.mc_samples = mc_samples
        self.mc_seed = mc_seed
        self.max_model_points = max_model_points
        self.vctrl_min = vctrl_min
        self.vctrl_max = technology.vdd if vctrl_max is None else vctrl_max

    # -- pieces -------------------------------------------------------------------------

    def optimise(
        self,
        callback: Optional[Callable[[int, list], None]] = None,
        checkpoint: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> OptimisationResult:
        """Run the multi-objective optimisation (steps 1-2 of figure 4).

        ``checkpoint`` / ``cancel`` are forwarded to
        :meth:`repro.optim.nsga2.NSGA2.run`: the optimiser state is
        persisted per generation and cancellation is observed at those
        generation boundaries.
        """
        problem = VcoSizingProblem(self.evaluator, self.technology, topology=self.topology)
        return NSGA2(problem, self.config).run(
            callback=callback, checkpoint=checkpoint, cancel=cancel
        )

    def build_model(
        self,
        optimisation: OptimisationResult,
        progress: Optional[Callable[[int, int], None]] = None,
        checkpoint: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> CombinedPerformanceVariationModel:
        """Monte Carlo every Pareto point and assemble the combined model.

        ``checkpoint`` is a duck-typed ``load()/store(state)/clear()``
        store persisting the per-Pareto-point Monte Carlo rows (forwarded
        to :meth:`VariationModel.from_monte_carlo`); each point draws its
        own seeded RNG stream, so a resumed build is bit-identical to an
        uninterrupted one.  ``cancel`` is observed at point boundaries.
        """
        front = optimisation.front.non_dominated()
        if len(front) == 0:
            raise ValueError("the optimisation produced an empty Pareto front")
        individuals = list(front)
        if self.max_model_points is not None and len(individuals) > self.max_model_points:
            # Keep a diverse subset: order by crowding distance (descending).
            individuals = sorted(individuals, key=lambda ind: -ind.crowding)[
                : self.max_model_points
            ]
        designs = [
            self.topology.design_from_mapping(
                dict(zip(front.parameter_names, individual.parameters))
            )
            for individual in individuals
        ]
        nominals = [individual.raw_objectives for individual in individuals]
        performance_model = PerformanceModel(
            parameters=np.vstack([ind.parameters for ind in individuals]),
            performances=np.column_stack(
                [
                    [ind.raw_objectives[name] for ind in individuals]
                    for name in ("kvco", "jitter", "current", "fmin", "fmax")
                ]
            ),
            parameter_names=front.parameter_names,
        )
        variation_model = VariationModel.from_monte_carlo(
            designs=designs,
            nominal_performances=nominals,
            evaluator=self.evaluator,
            n_samples=self.mc_samples,
            seed=self.mc_seed,
            progress=progress,
            checkpoint=checkpoint,
            cancel=cancel,
        )
        return CombinedPerformanceVariationModel(
            performance=performance_model,
            variation=variation_model,
            vctrl_min=self.vctrl_min,
            vctrl_max=self.vctrl_max,
        )

    # -- one-shot ------------------------------------------------------------------------

    def run(
        self,
        callback: Optional[Callable[[int, list], None]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        checkpoint: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> CircuitStageResult:
        """Optimise, Monte Carlo and assemble the model in one call.

        With a ``checkpoint``, the NSGA-II loop persists its state per
        generation (and resumes from it); with a ``cancel`` token,
        cancellation is observed at generation boundaries and between the
        optimisation and the Monte Carlo model build.
        """
        optimisation = self.optimise(callback=callback, checkpoint=checkpoint, cancel=cancel)
        if cancel is not None:
            cancel.raise_if_cancelled()
        mc_checkpoint = (
            _ModelBuildCheckpoint(checkpoint) if checkpoint is not None else None
        )
        model = self.build_model(
            optimisation, progress=progress, checkpoint=mc_checkpoint, cancel=cancel
        )
        front = optimisation.front
        designs = [
            self.topology.design_from_mapping(
                dict(zip(front.parameter_names, individual.parameters))
            )
            for individual in front
        ]
        return CircuitStageResult(optimisation=optimisation, model=model, designs=designs)


class _ModelBuildCheckpoint:
    """Sub-key view of the circuit stage's partial checkpoint.

    The NSGA-II loop owns the ``circuit.partial.pkl`` slot; the model
    build's Monte Carlo progress piggybacks on the *same* state dict under
    an ``"mc"`` key (``NSGA2._state_matches`` ignores extra keys, and a
    finished optimiser state is never re-stored on resume, so the two
    never fight).  A crash during the model build therefore loses neither
    the optimisation nor the Monte Carlo points already evaluated.

    The job's holder is the only writer of the slot, so the state is read
    once and then kept: each ``store`` writes the kept state with its
    ``"mc"`` key replaced, without reading the slot back (over HTTP, a
    download of the whole partial per point).  ``clear`` writes nothing:
    the runner deletes the whole slot once the stage artefact is stored,
    and a run killed before that resumes from the kept rows, recomputing
    only the last point (each point has its own seeded stream, so the
    result is bit-identical).
    """

    def __init__(self, partial: object) -> None:
        self._partial = partial
        self._state: Optional[dict] = None

    def _base(self) -> dict:
        if self._state is None:
            state = self._partial.load()
            self._state = state if isinstance(state, dict) else {}
        return self._state

    def load(self) -> Optional[object]:
        return self._base().get("mc")

    def store(self, mc_state: object) -> None:
        state = dict(self._base())
        state["mc"] = mc_state
        self._partial.store(state)
        self._state = state

    def clear(self) -> None:
        pass
