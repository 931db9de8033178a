"""The end-to-end hierarchical optimisation flow (figure 4 of the paper).

:class:`HierarchicalFlow` chains the circuit-level stage, the model
extraction, the system-level stage, the yield verification and (optionally)
the bottom-up verification into one call and collects every intermediate
artefact in a :class:`FlowReport` so examples and benchmarks can reproduce
the paper's tables from a single object.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.behavioural.pll import PllDesign
from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.topology import (
    DEFAULT_TOPOLOGY,
    CircuitTopology,
    get_topology,
    topology_for_evaluator,
)
from repro.core.circuit_stage import CircuitLevelOptimisation, CircuitStageResult
from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.core.corner_sweep import CornerSweepAnalysis, CornerSweepReport
from repro.core.datafile import write_model_directory
from repro.core.codegen import write_verilog_a
from repro.core.specification import PLL_SPECIFICATIONS, SpecificationSet
from repro.core.system_stage import SystemLevelOptimisation, SystemStageResult
from repro.core.verification import BottomUpVerification, VerificationReport
from repro.core.yield_analysis import YieldAnalysis, YieldReport
from repro.optim import NSGA2Config
from repro.optim.evaluation import DEFAULT_EVALUATION
from repro.process.corners import corner_set
from repro.process.technology import TECH_012UM, Technology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.config import ScenarioConfig

__all__ = [
    "FlowReport",
    "HierarchicalFlow",
    "StageHook",
    "summarise_stage",
    "summarise_generation",
    "summarise_yield_partial",
]

#: Signature of the per-stage checkpoint hook accepted by
#: :meth:`HierarchicalFlow.run`: ``hook(stage_name, artefact)`` is invoked
#: right after each stage completes with one of the stage names
#: ``"circuit"``, ``"corners"``, ``"system"``, ``"yield"`` or
#: ``"verification"`` and the artefact that stage produced.
StageHook = Callable[[str, object], None]

#: Unit scalings of the selected design's headline objectives, shared by
#: :meth:`FlowReport.summary` and :func:`summarise_stage` so both report
#: the same quantities under the same keys.
_SELECTED_OBJECTIVES = (
    ("lock_time", 1e6, "us"),
    ("jitter", 1e12, "ps"),
    ("current", 1e3, "ma"),
)


def summarise_stage(stage: str, artefact: object) -> Dict[str, float]:
    """Small JSON-compatible progress payload for one stage artefact.

    ``stage_hook`` consumers that persist or transmit progress (the
    experiment service records one event per completed stage) need a flat
    numbers-only view of the artefact rather than the pickled object; this
    is the one place that knows how to produce it for every stage.  Unknown
    stages and artefacts without the expected attributes yield an empty
    payload instead of raising -- progress reporting must never break a run.
    """
    payload: Dict[str, float] = {}

    def put(key: str, value: object) -> None:
        if value is not None:
            payload[key] = float(value)

    if stage == "circuit":
        put("front_size", getattr(artefact, "front_size", None))
        put("evaluations", getattr(artefact, "evaluations", None))
    elif stage == "system":
        put("front_size", getattr(artefact, "front_size", None))
        selected = getattr(artefact, "selected", None)
        if selected is not None:
            put("selected_feasible", selected.is_feasible)
            for objective, scale, suffix in _SELECTED_OBJECTIVES:
                value = selected.raw_objectives.get(objective)
                if value is not None:
                    put(f"selected_{objective}_{suffix}", value * scale)
    elif stage == "corners":
        summary = getattr(artefact, "summary", None)
        if callable(summary):
            for key, value in summary().items():
                put(key, value)
    elif stage == "yield":
        put("yield_percent", getattr(artefact, "yield_percent", None))
        put("n_samples", getattr(artefact, "n_samples", None))
    elif stage == "verification":
        worst = getattr(artefact, "worst_error", None)
        if callable(worst):
            put("worst_error", worst())
    return payload


#: Pareto-front points included in one generation's progress payload; live
#: dashboards need the shape of the front, not every individual of a huge
#: population, and SSE payloads should stay small.
_MAX_FRONT_POINTS = 64


def summarise_generation(state: Dict[str, object]) -> Dict[str, object]:
    """Progress payload for one persisted NSGA-II generation checkpoint.

    Built from the optimiser's checkpoint state (generation number,
    ranked population, evaluation count -- see :meth:`NSGA2.run`), this is
    what the experiment service streams to live subscribers after every
    generation: enough to draw the current Pareto front without shipping
    the population.  ``front`` holds the rank-0 individuals' raw
    objectives (natural units and sense), feasible ones first, capped at
    ``_MAX_FRONT_POINTS``.  Defensive like :func:`summarise_stage`:
    malformed state yields a minimal payload instead of raising.
    """
    payload: Dict[str, object] = {
        "generation": int(state.get("generation", 0)),
        "evaluations": int(state.get("evaluations", 0)),
    }
    population = state.get("population") or []
    front = [ind for ind in population if getattr(ind, "rank", None) == 0]
    front.sort(key=lambda ind: not ind.is_feasible)  # stable: feasible first
    payload["front_size"] = len(front)
    payload["feasible"] = sum(1 for ind in front if ind.is_feasible)
    payload["front"] = [
        {name: float(value) for name, value in ind.raw_objectives.items()}
        for ind in front[:_MAX_FRONT_POINTS]
    ]
    return payload


def summarise_yield_partial(
    state: Dict[str, object],
    n_samples: int,
    specifications: SpecificationSet,
) -> Dict[str, object]:
    """Progress payload for one persisted Monte Carlo batch checkpoint.

    The yield stage's checkpoint state carries the performance samples
    drawn so far (see :meth:`YieldAnalysis.run`); the running yield
    estimate over those samples is what the dashboard's convergence plot
    streams.  ``yield_percent_so_far`` is ``None`` until the first sample
    lands.
    """
    samples = state.get("samples") or []
    passed = sum(1 for sample in samples if not specifications.violations(sample))
    done = len(samples)
    return {
        "samples_done": done,
        "n_samples": int(n_samples),
        "yield_percent_so_far": (100.0 * passed / done) if done else None,
    }


@dataclass
class FlowReport:
    """All artefacts produced by one hierarchical flow run."""

    circuit_stage: CircuitStageResult
    system_stage: SystemStageResult
    yield_report: Optional[YieldReport] = None
    verification: Optional[VerificationReport] = None
    model_directory: Optional[str] = None
    generated_files: List[str] = field(default_factory=list)
    corner_report: Optional[CornerSweepReport] = None

    @property
    def model(self) -> CombinedPerformanceVariationModel:
        """The combined performance + variation model of the VCO."""
        return self.circuit_stage.model

    @property
    def selected_values(self) -> Dict[str, float]:
        """The selected system-level design parameters."""
        return self.system_stage.selected_values

    def summary(self) -> Dict[str, float]:
        """Headline numbers of the run (front sizes, yield, spec status)."""
        summary: Dict[str, float] = {
            "circuit_front_size": float(self.circuit_stage.front_size),
            "circuit_evaluations": float(self.circuit_stage.evaluations),
            "system_front_size": float(self.system_stage.front_size),
        }
        selected = self.system_stage.selected
        if selected is not None:
            for objective, scale, suffix in _SELECTED_OBJECTIVES:
                summary[f"selected_{objective}_{suffix}"] = (
                    selected.raw_objectives[objective] * scale
                )
            summary["selected_feasible"] = float(selected.is_feasible)
        if self.yield_report is not None:
            summary["yield_percent"] = self.yield_report.yield_percent
            summary["yield_samples"] = float(self.yield_report.n_samples)
        if self.verification is not None:
            summary["verification_worst_error"] = self.verification.worst_error()
        if self.corner_report is not None:
            for key, value in self.corner_report.summary().items():
                summary[f"corners_{key}"] = value
        return summary


class HierarchicalFlow:
    """Top-down, yield-aware hierarchical optimisation of the PLL.

    ``evaluation`` selects how both NSGA-II stages hand a population to
    their problem (``"vectorised"``, the default, or ``"serial"``, see
    :mod:`repro.optim.evaluation`); explicitly passed stage configs keep
    their own setting.  Both backends give bit-identical results.  The
    per-Pareto-point Monte Carlo analyses, the corner sweep and the final
    yield verification always evaluate their samples as one batch
    (``MonteCarloEngine.run_batch`` / ``evaluate_batch``).  ``n_workers``
    sizes the batch pool of a :class:`RingVcoSpiceEvaluator` driving the
    flow when that evaluator has no explicit worker count.

    ``n_stages`` selects the ring length of the VCO (odd, >= 3; the paper
    uses five stages) when no explicit evaluator is passed; an explicitly
    passed evaluator carries its own stage count and wins.  The configured
    ring length also sizes the mismatch-geometry lists used by every Monte
    Carlo analysis in the flow.

    Instead of assembling the constructor arguments by hand, a flow can be
    built from a declarative :class:`~repro.experiments.config.ScenarioConfig`
    via :meth:`from_scenario` -- that is how the ``repro`` experiment runner
    constructs flows.
    """

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        evaluator: Optional[VcoEvaluator] = None,
        circuit_config: Optional[NSGA2Config] = None,
        system_config: Optional[NSGA2Config] = None,
        specifications: SpecificationSet = PLL_SPECIFICATIONS,
        base_pll_design: Optional[PllDesign] = None,
        mc_samples_per_point: int = 100,
        yield_samples: int = 500,
        max_model_points: Optional[int] = 24,
        seed: int = 2009,
        evaluation: str = DEFAULT_EVALUATION,
        n_workers: Optional[int] = None,
        n_stages: Optional[int] = None,
        spice_engine: str = "reference",
        topology: str = DEFAULT_TOPOLOGY,
        corners: str = "",
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        from repro.spice.plan import ENGINES

        if spice_engine not in ENGINES:
            raise ValueError(f"unknown spice_engine {spice_engine!r}; choose from {ENGINES}")
        self.spice_engine = spice_engine
        self.technology = technology
        # An explicitly passed evaluator wins the topology resolution (it
        # carries its registry key as a class attribute); otherwise the
        # ``topology`` name selects the circuit family and its evaluator.
        if evaluator is not None:
            self.topology: CircuitTopology = topology_for_evaluator(evaluator)
        else:
            self.topology = get_topology(topology)
        self.evaluator = evaluator or self.topology.analytical_evaluator(
            technology, n_stages=n_stages
        )
        # An explicitly passed evaluator carries its own ring length.
        self.n_stages = getattr(
            self.evaluator, "n_stages", self.topology.resolve_n_stages(n_stages)
        )
        self.evaluation = evaluation
        self.n_workers = n_workers
        # The worker count sizes the SPICE evaluator's batch pool.  The flow
        # works on a configured copy so the caller's evaluator (possibly
        # shared between flows with different worker counts) is never
        # mutated.
        if (
            n_workers is not None
            and getattr(self.evaluator, "n_workers", False) is None
        ):
            self.evaluator = copy.copy(self.evaluator)
            self.evaluator.n_workers = n_workers
        self.circuit_config = circuit_config or NSGA2Config(
            population_size=40, generations=15, evaluator=evaluation
        )
        # Both stages honour the selected backend: since the behavioural
        # PLL transient gained a lane-parallel batch engine, "vectorised"
        # accelerates the system stage too (bit-identical fronts).
        self.system_config = system_config or NSGA2Config(
            population_size=24, generations=10, evaluator=evaluation
        )
        self.specifications = specifications
        self.base_pll_design = base_pll_design or PllDesign()
        self.mc_samples_per_point = mc_samples_per_point
        self.yield_samples = yield_samples
        self.max_model_points = max_model_points
        self.seed = seed
        #: Name of the corner set swept after the circuit stage ("" skips
        #: the sweep entirely -- the historical behaviour).
        self.corners = corners
        #: Defaults applied when :meth:`run` is called without explicit
        #: ``run_yield`` / ``run_verification`` arguments; overwritten by
        #: :meth:`from_scenario` so a scenario's stage selection is honoured.
        self.default_run_yield = True
        self.default_run_verification = False

    @classmethod
    def from_scenario(
        cls, scenario: "ScenarioConfig", evaluator: Optional[VcoEvaluator] = None
    ) -> "HierarchicalFlow":
        """Build a flow from a declarative scenario configuration.

        Parameters
        ----------
        scenario:
            A frozen :class:`~repro.experiments.config.ScenarioConfig`;
            its registry keys (technology, specification set) are resolved
            here and its NSGA-II / Monte Carlo budgets become the stage
            configurations.
        evaluator:
            Optional evaluator override (e.g. a
            :class:`~repro.circuits.evaluators.RingVcoSpiceEvaluator` for a
            ground-truth run).  Defaults to the calibrated analytical
            evaluator built for the scenario's technology and ring length.

        Returns
        -------
        HierarchicalFlow
            A ready-to-run flow; two flows built from equal scenarios
            produce bit-identical artefacts.  The scenario's ``run_yield``
            / ``run_verification`` selections become :meth:`run`'s
            defaults, so ``from_scenario(s).run()`` executes exactly the
            stages the scenario declares.
        """
        technology = scenario.resolve_technology()
        flow = cls(
            technology=technology,
            evaluator=evaluator,
            circuit_config=scenario.circuit_nsga2_config(),
            system_config=scenario.system_nsga2_config(),
            specifications=scenario.resolve_specifications(),
            mc_samples_per_point=scenario.mc_samples_per_point,
            yield_samples=scenario.yield_samples,
            max_model_points=scenario.max_model_points,
            seed=scenario.seed,
            evaluation=scenario.evaluation,
            n_workers=scenario.n_workers,
            n_stages=scenario.n_stages,
            spice_engine=scenario.spice_engine,
            topology=scenario.topology,
            corners=scenario.corners,
        )
        flow.default_run_yield = scenario.run_yield
        flow.default_run_verification = scenario.run_verification
        return flow

    # -- stages --------------------------------------------------------------------------

    def circuit_stage(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        checkpoint: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> CircuitStageResult:
        """Circuit-level optimisation and combined-model extraction.

        ``checkpoint`` (duck-typed ``load()/store(state)/clear()``) makes
        the NSGA-II loop persist its state per generation and resume from
        it; ``cancel`` (a :class:`~repro.cancel.CancelToken`) is observed
        at those generation boundaries.
        """
        stage = CircuitLevelOptimisation(
            evaluator=self.evaluator,
            technology=self.technology,
            config=self.circuit_config,
            mc_samples=self.mc_samples_per_point,
            mc_seed=self.seed,
            max_model_points=self.max_model_points,
            topology=self.topology,
        )
        return stage.run(progress=progress, checkpoint=checkpoint, cancel=cancel)

    def system_stage(
        self,
        model: CombinedPerformanceVariationModel,
        cancel: Optional[object] = None,
    ) -> SystemStageResult:
        """System-level optimisation on the behavioural PLL."""
        stage = SystemLevelOptimisation(
            model,
            specifications=self.specifications,
            base_design=self.base_pll_design,
            config=self.system_config,
        )
        return stage.run(cancel=cancel)

    def verify_yield(
        self,
        model: CombinedPerformanceVariationModel,
        selected_values: Dict[str, float],
        checkpoint: Optional[object] = None,
        batch_size: Optional[int] = None,
        cancel: Optional[object] = None,
    ) -> YieldReport:
        """Monte Carlo yield verification of the selected design.

        ``checkpoint`` / ``batch_size`` enable mid-stage checkpointing of
        the Monte Carlo batches (see :meth:`YieldAnalysis.run`); the batch
        size never changes the result, only how often progress persists.
        ``cancel`` is observed at those batch boundaries.
        """
        analysis = YieldAnalysis(
            model,
            evaluator=self.evaluator,
            specifications=self.specifications,
            n_samples=self.yield_samples,
            seed=self.seed + 1,
        )
        return analysis.run(
            selected_values, checkpoint=checkpoint, batch_size=batch_size, cancel=cancel
        )

    def spice_evaluator(self) -> VcoEvaluator:
        """A transistor-level evaluator matching this flow's configuration.

        Carries the flow's topology, technology, ring length, worker count
        and the configured :attr:`spice_engine` -- pass it to
        :meth:`verification_stage` (or :meth:`run`) as the
        ``verification_evaluator`` to verify against the MNA test bench
        instead of the analytical evaluator.  Kept out of the default
        verification path so existing artefacts stay byte-identical.
        """
        return self.topology.spice_evaluator(
            self.technology,
            n_stages=self.n_stages,
            n_workers=self.n_workers,
            engine=self.spice_engine,
        )

    def corner_stage(
        self,
        circuit: CircuitStageResult,
        corners: str,
        cancel: Optional[object] = None,
    ) -> CornerSweepReport:
        """Re-evaluate the circuit-stage Pareto designs across a corner set.

        ``corners`` names a registered corner set (see
        :func:`repro.process.corners.corner_set`); the report carries one
        re-evaluated front per corner plus the worst-case-corner front.
        """
        analysis = CornerSweepAnalysis(
            evaluator=self.evaluator,
            technology=self.technology,
            corners=corner_set(corners),
        )
        return analysis.run(circuit, cancel=cancel)

    def verification_stage(
        self,
        model: CombinedPerformanceVariationModel,
        verification_evaluator: Optional[VcoEvaluator] = None,
        max_points: int = 3,
    ) -> VerificationReport:
        """Bottom-up verification of the combined model (optional stage)."""
        verifier = BottomUpVerification(
            model, reference_evaluator=verification_evaluator or self.evaluator
        )
        return verifier.verify_model_points(max_points=max_points)

    def export_model(
        self, model: CombinedPerformanceVariationModel, output_directory: str
    ) -> tuple[str, List[str]]:
        """Write the model's ``.tbl`` files and Verilog-A under ``output_directory``.

        Returns the model directory and the list of generated files.
        """
        model_directory = os.path.join(output_directory, "vco_model")
        generated = list(write_model_directory(model, model_directory))
        generated.extend(
            write_verilog_a(
                model,
                model_directory,
                divide_ratio=self.base_pll_design.divide_ratio,
            )
        )
        return model_directory, generated

    # -- one-shot -------------------------------------------------------------------------

    def run(
        self,
        output_directory: Optional[str] = None,
        run_yield: Optional[bool] = None,
        run_verification: Optional[bool] = None,
        verification_evaluator: Optional[VcoEvaluator] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        stage_hook: Optional[StageHook] = None,
        cancel: Optional[object] = None,
    ) -> FlowReport:
        """Execute the full flow and optionally export the model artefacts.

        ``run_yield`` / ``run_verification`` select the optional stages;
        ``None`` (the default) falls back to :attr:`default_run_yield` /
        :attr:`default_run_verification` (yield on, verification off --
        or whatever the scenario declared when the flow was built via
        :meth:`from_scenario`).

        ``stage_hook(stage_name, artefact)`` -- when given -- is invoked
        right after each stage completes (``"circuit"``, ``"corners"``,
        ``"system"``, ``"yield"``, ``"verification"``), letting callers
        checkpoint or inspect intermediate artefacts without the flow
        knowing anything about caching.

        ``cancel`` -- a :class:`~repro.cancel.CancelToken` -- is observed
        before every stage and at optimiser-generation boundaries and
        raises :class:`~repro.cancel.JobCancelled` there.
        """
        return self._run(
            _ComputedStages(),
            output_directory=output_directory,
            run_yield=run_yield,
            run_verification=run_verification,
            verification_evaluator=verification_evaluator,
            progress=progress,
            stage_hook=stage_hook,
            cancel=cancel,
        )

    def _run(
        self,
        stages: "_ComputedStages",
        output_directory: Optional[str] = None,
        run_yield: Optional[bool] = None,
        run_verification: Optional[bool] = None,
        verification_evaluator: Optional[VcoEvaluator] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        stage_hook: Optional[StageHook] = None,
        cancel: Optional[object] = None,
    ) -> FlowReport:
        """The stage sequence behind :meth:`run`, satisfied through ``stages``.

        ``stages.stage(name, compute)`` returns the artefact of every stage
        that runs, where ``compute(checkpoint)`` computes it with an
        optional mid-stage checkpoint, and ``stages.yield_batch_size``
        sets the yield stage's Monte Carlo batch.  This method alone owns
        the stage order, the skip rules, the cancellation checks, the
        ``stage_hook`` calls, the model export and the
        :class:`FlowReport`; the experiment runner passes a cache-backed
        source so completed stages load instead of recomputing.
        """
        run_yield = self.default_run_yield if run_yield is None else run_yield
        if run_verification is None:
            run_verification = self.default_run_verification

        def satisfy(stage: str, compute: Callable[[Optional[object]], object]) -> Any:
            if cancel is not None:
                cancel.raise_if_cancelled()
            artefact = stages.stage(stage, compute)
            if stage_hook is not None:
                stage_hook(stage, artefact)
            return artefact

        circuit = satisfy(
            "circuit",
            lambda checkpoint: self.circuit_stage(
                progress=progress, checkpoint=checkpoint, cancel=cancel
            ),
        )
        corner_report = None
        if self.corners:
            corner_report = satisfy(
                "corners", lambda _: self.corner_stage(circuit, self.corners, cancel=cancel)
            )
        system = satisfy("system", lambda _: self.system_stage(circuit.model, cancel=cancel))
        yield_report = None
        if run_yield and system.selected is not None:
            yield_report = satisfy(
                "yield",
                lambda checkpoint: self.verify_yield(
                    circuit.model,
                    system.selected_values,
                    checkpoint=checkpoint,
                    batch_size=stages.yield_batch_size,
                    cancel=cancel,
                ),
            )
        verification = None
        if run_verification:
            verification = satisfy(
                "verification",
                lambda _: self.verification_stage(
                    circuit.model, verification_evaluator=verification_evaluator
                ),
            )
        generated: List[str] = []
        model_directory = None
        if output_directory is not None:
            model_directory, generated = self.export_model(circuit.model, output_directory)
        return FlowReport(
            circuit_stage=circuit,
            system_stage=system,
            yield_report=yield_report,
            verification=verification,
            model_directory=model_directory,
            generated_files=generated,
            corner_report=corner_report,
        )


class _ComputedStages:
    """Stage source of a plain :meth:`HierarchicalFlow.run`: compute every
    stage in one piece, checkpoint nothing.  Every stage source (the
    experiment runner's cache-backed one too) has this interface."""

    yield_batch_size: Optional[int] = None

    def stage(self, stage: str, compute: Callable[[Optional[object]], object]) -> Any:
        return compute(None)
