"""Yield verification of the selected design (section 4.5).

"To verify the predicted yield given by the proposed approach, a Monte
Carlo analysis with 500 samples was run on the final design.  This
analysis confirmed a yield of 100%."

The analysis here reproduces that check: the selected system-level
operating point (Kvco, Ivco) is mapped back to transistor sizes through
the performance model, the VCO is Monte Carlo simulated with global
variation and mismatch, each sampled VCO is inserted into the behavioural
PLL, and the fraction of samples meeting every system specification is the
parametric yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.behavioural.pll import BehaviouralPll, PllDesign, PllPerformance
from repro.behavioural.vco import BehaviouralVco, VcoVariationTables
from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.topology import DEFAULT_TOPOLOGY, get_topology, topology_for_evaluator
from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.process.technology import TECH_012UM
from repro.core.specification import PLL_SPECIFICATIONS, SpecificationSet
from repro.obs import trace as obs_trace
from repro.process.montecarlo import MonteCarloEngine, SampleBatch
from repro.process.statistics import summarise_samples

__all__ = ["YieldReport", "YieldAnalysis"]


@dataclass
class YieldReport:
    """Result of the final Monte Carlo yield verification."""

    yield_fraction: float
    n_samples: int
    vco_design: Any
    system_samples: List[Dict[str, float]] = field(default_factory=list)
    violations: Dict[str, int] = field(default_factory=dict)

    @property
    def yield_percent(self) -> float:
        """Yield in percent (the paper reports 100%)."""
        return 100.0 * self.yield_fraction

    def spread_summary(self) -> Dict[str, float]:
        """Relative spread (percent) of every system performance."""
        if not self.system_samples:
            return {}
        arrays = {
            name: [sample[name] for sample in self.system_samples]
            for name in self.system_samples[0]
        }
        return {name: spread.spread_percent for name, spread in summarise_samples(arrays).items()}


class YieldAnalysis:
    """Monte Carlo yield verification of a selected PLL design."""

    def __init__(
        self,
        model: CombinedPerformanceVariationModel,
        evaluator: Optional[VcoEvaluator] = None,
        specifications: SpecificationSet = PLL_SPECIFICATIONS,
        n_samples: int = 500,
        seed: int = 2009,
        simulation_time: float = 3.0e-6,
        use_batch: bool = False,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.model = model
        self.evaluator = evaluator or get_topology(DEFAULT_TOPOLOGY).analytical_evaluator(
            TECH_012UM
        )
        self.specifications = specifications
        self.n_samples = n_samples
        self.seed = seed
        self.simulation_time = simulation_time
        #: Evaluate the VCO Monte Carlo samples through the evaluator's
        #: vectorised batch path and propagate them through the behavioural
        #: PLL as one lane-parallel transient (identical results, two array
        #: calls instead of ``2 n_samples`` Python calls).
        self.use_batch = use_batch

    def run(
        self,
        selected_values: Mapping[str, float],
        checkpoint: Optional[object] = None,
        batch_size: Optional[int] = None,
        cancel: Optional[object] = None,
    ) -> YieldReport:
        """Verify the yield of the selected system-level solution.

        ``selected_values`` must contain the system designables ``kvco``,
        ``ivco``, ``c1``, ``c2`` and ``r1`` (the output of the system
        stage's selection step).

        Parameters
        ----------
        selected_values:
            The selected system-level operating point.
        checkpoint:
            Optional mid-stage checkpoint store with ``load()``,
            ``store(state)`` and ``clear()`` (duck-typed; the experiment
            runner passes a cache-entry-backed one).  After every evaluated
            batch the samples completed so far are persisted, and a rerun
            resumes from them instead of restarting the stage.  Because the
            Monte Carlo samples are drawn in one deterministic bulk RNG
            call and evaluated independently, a resumed run is
            bit-identical to an uninterrupted one.
        batch_size:
            Samples evaluated (and checkpointed) per batch.  ``None`` runs
            the whole analysis as a single batch.  Both paths evaluate
            sample-independent math, so the batch size never changes the
            result -- only how often progress is persisted.
        cancel:
            Optional :class:`~repro.cancel.CancelToken` observed at the
            batch boundaries (right after the previous batch's checkpoint
            was persisted), so a cancelled analysis always resumes from
            the samples already evaluated.
        """
        kvco = float(selected_values["kvco"])
        ivco = float(selected_values["ivco"])
        vco_design = self.model.design_parameters_for(kvco, ivco)
        pll_design = PllDesign(
            c1=float(selected_values["c1"]),
            c2=float(selected_values["c2"]),
            r1=float(selected_values["r1"]),
        )
        engine = MonteCarloEngine(
            self.evaluator.technology, n_samples=self.n_samples, seed=self.seed
        )
        # Mismatch geometries must cover exactly the evaluator's ring length
        # (the scenario subsystem runs 3/7/9-stage rings, not just 5).
        topology = topology_for_evaluator(self.evaluator)
        n_stages = getattr(self.evaluator, "n_stages", topology.default_n_stages)
        devices = topology.device_geometries(vco_design, n_stages=n_stages)
        process_samples = engine.sample_batch(devices)

        fingerprint = {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "selected": {key: float(selected_values[key]) for key in sorted(selected_values)},
        }
        samples: List[Dict[str, float]] = []
        if checkpoint is not None:
            state = checkpoint.load()
            if (
                isinstance(state, dict)
                and state.get("fingerprint") == fingerprint
                and len(state.get("samples", ())) <= self.n_samples
            ):
                samples = list(state["samples"])

        chunk = self.n_samples if batch_size is None else max(1, int(batch_size))
        while len(samples) < self.n_samples:
            if cancel is not None:
                cancel.raise_if_cancelled()
            batch = process_samples[len(samples):len(samples) + chunk]
            with obs_trace.span(
                "yield.mc_batch",
                first_sample=len(samples),
                batch_size=len(batch),
                total=self.n_samples,
            ):
                samples.extend(self._evaluate_batch(batch, vco_design, pll_design))
                if checkpoint is not None and len(samples) < self.n_samples:
                    checkpoint.store({"fingerprint": fingerprint, "samples": samples})
        if checkpoint is not None:
            checkpoint.clear()

        passing = 0
        violation_counts: Dict[str, int] = {}
        for system in samples:
            failures = self.specifications.violations(system)
            if failures:
                for name in failures:
                    violation_counts[name] = violation_counts.get(name, 0) + 1
            else:
                passing += 1
        return YieldReport(
            yield_fraction=passing / len(samples),
            n_samples=len(samples),
            vco_design=vco_design,
            system_samples=samples,
            violations=violation_counts,
        )

    # -- helpers ------------------------------------------------------------------------

    def _evaluate_batch(
        self,
        process_samples: SampleBatch,
        vco_design: Any,
        pll_design: PllDesign,
    ) -> List[Dict[str, float]]:
        """System performances of one batch of drawn process samples.

        Every sample is independent (its own technology shift, mismatch
        draw and behavioural-PLL lane), so evaluating in batches is
        bit-identical to evaluating all samples at once.
        """
        if self.use_batch:
            # Lane-parallel propagation: every sampled VCO becomes one lane
            # of a single batched transient (bit-identical to the loop).
            vco_results = self.evaluator.monte_carlo_batch_evaluator(vco_design)(
                process_samples
            )
            if len(vco_results) != len(process_samples):
                raise ValueError(
                    f"batch evaluator returned {len(vco_results)} result(s) for "
                    f"{len(process_samples)} sample(s)"
                )
            if any(not result for result in vco_results):
                raise ValueError("evaluator returned an empty performance dictionary")
            plls = [
                self._sample_pll(vco_sample, pll_design) for vco_sample in vco_results
            ]
            performances = BehaviouralPll.evaluate_batch(plls, max_time=self.simulation_time)
            return [self._finalise(performance) for performance in performances]
        evaluator = self.evaluator.monte_carlo_evaluator(vco_design)
        results = []
        for sample in process_samples:
            vco_sample = evaluator(sample.technology, sample.mismatch)
            if not vco_sample:
                raise ValueError("evaluator returned an empty performance dictionary")
            results.append(self._system_performance(vco_sample, pll_design))
        return results

    def _sample_pll(
        self, vco_sample: Mapping[str, float], pll_design: PllDesign
    ) -> BehaviouralPll:
        """Behavioural PLL carrying one sampled VCO (variation disabled)."""
        fmin = float(vco_sample["fmin"])
        fmax = float(vco_sample["fmax"])
        kvco = max(float(vco_sample["kvco"]), 1e6)
        if fmax <= fmin:
            fmax = fmin * 1.05
        vco = BehaviouralVco(
            kvco=kvco,
            ivco=max(float(vco_sample["current"]), 1e-6),
            jvco=max(float(vco_sample["jitter"]), 0.0),
            fmin=fmin,
            fmax=fmax,
            variation=VcoVariationTables.constant(0.0, 0.0, 0.0, 0.0, 0.0),
            vctrl_min=self.model.vctrl_min,
            vctrl_max=self.model.vctrl_max,
        )
        return BehaviouralPll(vco, pll_design)

    def _finalise(self, performance: PllPerformance) -> Dict[str, float]:
        """Performance record with unlocked lanes capped like the optimiser."""
        result = performance.as_dict()
        if not np.isfinite(result["lock_time"]):
            result["lock_time"] = 10.0 * self.simulation_time
        return result

    def _system_performance(
        self, vco_sample: Mapping[str, float], pll_design: PllDesign
    ) -> Dict[str, float]:
        """Propagate one sampled VCO through the behavioural PLL."""
        pll = self._sample_pll(vco_sample, pll_design)
        return self._finalise(pll.evaluate(max_time=self.simulation_time))
