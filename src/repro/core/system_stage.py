"""System-level (hierarchical) optimisation stage.

Section 4.5 of the paper: the behavioural PLL built around the combined
VCO model is optimised with NSGA-II over the designable parameters gain
(Kvco), current (Ivco), and the loop-filter components C1, C2 and R1.
"During the optimisation, the variation model of VCO is used to
interpolate the minimum and maximum VCO gain and VCO current for each of
their nominal values generated by GA ... the optimised system level will
have their nominal as well as minimum and maximum performances."

The optimiser therefore sees, for every candidate, the nominal lock time /
jitter / current plus their min/max variants, and the specification
constraints are applied to the *worst case* variant so that the selected
design is yield-aware by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavioural.pll import BehaviouralPll, PllDesign, PllPerformance
from repro.behavioural.vco import describe_lanes
from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.core.specification import PLL_SPECIFICATIONS, SpecificationSet
from repro.optim import NSGA2, NSGA2Config, Objective, OptimisationResult, Parameter, Problem
from repro.optim.individual import Individual
from repro.optim.pareto import knee_point
from repro.optim.problem import Evaluation

__all__ = ["PllSystemProblem", "SystemStageResult", "SystemLevelOptimisation"]


class PllSystemProblem(Problem):
    """The paper's PLL system-level optimisation problem."""

    def __init__(
        self,
        model: CombinedPerformanceVariationModel,
        specifications: SpecificationSet = PLL_SPECIFICATIONS,
        base_design: Optional[PllDesign] = None,
        c1_bounds: tuple = (1.0e-12, 6.0e-12),
        c2_bounds: tuple = (0.2e-12, 3.0e-12),
        r1_bounds: tuple = (0.5e3, 5.0e3),
        simulation_time: float = 3.0e-6,
        realisability_threshold: float = 0.2,
    ) -> None:
        self.model = model
        self.specifications = specifications
        self.base_design = base_design or PllDesign()
        self.simulation_time = simulation_time
        self.realisability_threshold = realisability_threshold
        kvco_lo, kvco_hi = model.kvco_range()
        ivco_lo, ivco_hi = model.ivco_range()
        if kvco_hi <= kvco_lo:
            kvco_hi = kvco_lo * 1.01
        if ivco_hi <= ivco_lo:
            ivco_hi = ivco_lo * 1.01
        parameters = [
            Parameter("kvco", kvco_lo, kvco_hi, unit="Hz/V"),
            Parameter("ivco", ivco_lo, ivco_hi, unit="A"),
            Parameter("c1", *c1_bounds, unit="F"),
            Parameter("c2", *c2_bounds, unit="F"),
            Parameter("r1", *r1_bounds, unit="ohm"),
        ]
        objectives = [
            Objective("lock_time", "min", unit="s"),
            Objective("jitter", "min", unit="s"),
            Objective("current", "min", unit="A"),
        ]
        constraint_names = [f"spec_{spec.name}" for spec in specifications]
        # The (Kvco, Ivco) pair must stay close to the sampled Pareto front,
        # otherwise the interpolated block model is meaningless and the
        # bottom-up mapping to transistor sizes would not realise it.
        constraint_names.append("realisable")
        super().__init__(parameters, objectives, constraint_names, name="pll_system")

    # -- evaluation --------------------------------------------------------------------------

    def _candidate_design(self, values: Mapping[str, float]) -> PllDesign:
        """The candidate's loop-filter components on the fixed base design."""
        return PllDesign(
            c1=float(values["c1"]),
            c2=float(values["c2"]),
            r1=float(values["r1"]),
            charge_pump_current=self.base_design.charge_pump_current,
            divide_ratio=self.base_design.divide_ratio,
            reference_frequency=self.base_design.reference_frequency,
            peripheral_current=self.base_design.peripheral_current,
        )

    def evaluate(self, values: Mapping[str, float]) -> Evaluation:
        """Evaluate nominal / min / max system performances of a candidate.

        A batch of one through the same lane-parallel transient as
        :meth:`evaluate_batch`, so the ``serial`` and ``vectorised``
        NSGA-II backends run one kernel.
        """
        return self._evaluate_decoded([values])[0]

    def evaluate_batch(self, vectors) -> List[Evaluation]:
        """Evaluate a whole population through the lane-parallel transient.

        All candidates (times the three variants) advance through a single
        batched cycle loop via
        :meth:`~repro.behavioural.pll.BehaviouralPll.evaluate_all_variants_batch`.
        A lane's result does not depend on the batch it runs in, so the
        ``vectorised`` NSGA-II backend reproduces the serial Pareto front
        exactly, only faster.
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
        return self._evaluate_decoded([self.decode(self.clip(row)) for row in matrix])

    def _evaluate_decoded(self, decoded: Sequence[Mapping[str, float]]) -> List[Evaluation]:
        """Evaluate decoded candidates in one lane-parallel batch."""
        # One batched table interpolation for the whole population, and
        # every block shares the model's variation-table adapter, which
        # lets the lane engine evaluate each table as one array call.
        vcos = self.model.behavioural_vco_batch(
            np.array([values["kvco"] for values in decoded]),
            np.array([values["ivco"] for values in decoded]),
        )
        plls = [
            BehaviouralPll(vco, self._candidate_design(values))
            for vco, values in zip(vcos, decoded)
        ]
        variant_maps = BehaviouralPll.evaluate_all_variants_batch(
            plls, max_time=self.simulation_time
        )
        summaries = describe_lanes(vcos)
        return [
            self._assemble_evaluation(values, variants, summary)
            for values, variants, summary in zip(decoded, variant_maps, summaries)
        ]

    def _assemble_evaluation(
        self,
        values: Mapping[str, float],
        variants: Mapping[str, PllPerformance],
        vco_summary: Dict[str, float],
    ) -> Evaluation:
        """Turn the three variant performances and the VCO block summary
        into one :class:`Evaluation`."""
        nominal = variants["nominal"]
        lock_time = nominal.lock_time
        if not np.isfinite(lock_time):
            lock_time = 10.0 * self.simulation_time
        objectives = {
            "lock_time": lock_time,
            "jitter": nominal.jitter,
            "current": nominal.current,
        }
        # Worst case across the three variants for each specified performance.
        worst: Dict[str, float] = {}
        for name in ("lock_time", "jitter", "current"):
            candidates = [getattr(variants[v], name) for v in ("nominal", "min", "max")]
            finite = [c if np.isfinite(c) else 10.0 * self.simulation_time for c in candidates]
            worst[name] = max(finite)
        worst["final_frequency"] = min(
            variants[v].final_frequency for v in ("nominal", "min", "max")
        )
        constraints = {}
        for spec in self.specifications:
            value = worst.get(spec.name, objectives.get(spec.name))
            if value is None:
                continue
            constraints[f"spec_{spec.name}"] = spec.margin(float(value))
        distance = self.model.performance.consistency_distance(
            float(values["kvco"]), float(values["ivco"])
        )
        constraints["realisable"] = self.realisability_threshold - distance
        metrics: Dict[str, float] = {}
        for variant_name, performance in variants.items():
            suffix = "" if variant_name == "nominal" else f"_{variant_name}"
            metrics[f"lock_time{suffix}"] = performance.lock_time
            metrics[f"jitter{suffix}"] = performance.jitter
            metrics[f"current{suffix}"] = performance.current
            metrics[f"final_frequency{suffix}"] = performance.final_frequency
        # Block-level nominal/min/max values of the VCO designables (the
        # Kv_min/Kv_max, Iv_min/Iv_max columns of Table 2).
        metrics.update(vco_summary)
        return Evaluation(objectives=objectives, constraints=constraints, metrics=metrics)


@dataclass
class SystemStageResult:
    """Outcome of the system-level stage."""

    optimisation: OptimisationResult
    selected: Optional[Individual]
    selected_values: Dict[str, float] = field(default_factory=dict)

    @property
    def front_size(self) -> int:
        """Number of system-level Pareto solutions."""
        return len(self.optimisation.front)

    def table2_records(self, max_rows: Optional[int] = None) -> List[Dict[str, float]]:
        """Rows in the format of the paper's Table 2."""
        rows: List[Dict[str, float]] = []
        front = self.optimisation.front
        for index, individual in enumerate(front):
            if max_rows is not None and index >= max_rows:
                break
            values = dict(zip(front.parameter_names, individual.parameters))
            metrics = individual.metrics
            rows.append(
                {
                    "kv_mhz_per_v": values["kvco"] / 1e6,
                    "kv_min_mhz_per_v": metrics.get("kvco_min", values["kvco"]) / 1e6,
                    "kv_max_mhz_per_v": metrics.get("kvco_max", values["kvco"]) / 1e6,
                    "iv_ma": values["ivco"] * 1e3,
                    "iv_min_ma": metrics.get("ivco_min", values["ivco"]) * 1e3,
                    "iv_max_ma": metrics.get("ivco_max", values["ivco"]) * 1e3,
                    "c1_pf": values["c1"] * 1e12,
                    "c2_pf": values["c2"] * 1e12,
                    "r1_kohm": values["r1"] / 1e3,
                    "lock_time_us": individual.raw_objectives["lock_time"] * 1e6,
                    "jitter_ps": individual.raw_objectives["jitter"] * 1e12,
                    "jitter_min_ps": metrics.get("jitter_min", float("nan")) * 1e12,
                    "jitter_max_ps": metrics.get("jitter_max", float("nan")) * 1e12,
                    "current_ma": individual.raw_objectives["current"] * 1e3,
                    "current_min_ma": metrics.get("current_min", float("nan")) * 1e3,
                    "current_max_ma": metrics.get("current_max", float("nan")) * 1e3,
                }
            )
        return rows


class SystemLevelOptimisation:
    """Run the system-level NSGA-II and select the design solution.

    ``config.evaluator`` selects how the population reaches the problem:
    ``"vectorised"`` (the default) advances the whole population (all
    three variants at once) through the lane-parallel PLL transient
    engine, and ``"serial"`` runs the same engine one candidate at a time
    (a batch of one).  Both produce bit-identical results for a fixed
    seed.
    """

    def __init__(
        self,
        model: CombinedPerformanceVariationModel,
        specifications: SpecificationSet = PLL_SPECIFICATIONS,
        base_design: Optional[PllDesign] = None,
        config: Optional[NSGA2Config] = None,
        simulation_time: float = 3.0e-6,
    ) -> None:
        self.model = model
        self.specifications = specifications
        self.base_design = base_design or PllDesign()
        self.config = config or NSGA2Config(population_size=24, generations=10)
        self.simulation_time = simulation_time

    def problem(self) -> PllSystemProblem:
        """Build the optimisation problem bound to the combined model."""
        return PllSystemProblem(
            self.model,
            specifications=self.specifications,
            base_design=self.base_design,
            simulation_time=self.simulation_time,
        )

    def run(self, cancel: Optional[object] = None) -> SystemStageResult:
        """Optimise and select the spec-meeting knee-point solution.

        ``cancel`` (a :class:`~repro.cancel.CancelToken`) is observed at
        the optimiser's generation boundaries; the system stage is short
        enough that it carries no mid-stage checkpoint.
        """
        problem = self.problem()
        optimisation = NSGA2(problem, self.config).run(cancel=cancel)
        selected = self.select_solution(optimisation)
        values: Dict[str, float] = {}
        if selected is not None:
            values = dict(zip(problem.parameter_names, selected.parameters))
        return SystemStageResult(
            optimisation=optimisation, selected=selected, selected_values=values
        )

    def select_solution(self, optimisation: OptimisationResult) -> Optional[Individual]:
        """Pick the design solution from the Pareto front.

        Feasible (spec-meeting under worst-case variation) solutions are
        preferred; among them the knee point of the (lock time, jitter,
        current) front is selected, mirroring the paper's "a solution that
        meets the specifications and variations will be selected".
        """
        front = optimisation.front
        if len(front) == 0:
            return None
        feasible = [ind for ind in front if ind.is_feasible]
        pool = feasible if feasible else list(front)
        objectives = np.vstack([ind.objectives for ind in pool])
        return pool[knee_point(objectives)]
