"""The resumable experiment runner.

:class:`ExperimentRunner` executes a
:class:`~repro.experiments.config.ScenarioConfig` through the hierarchical
flow with per-stage checkpointing: after each stage the artefact is
pickled into the content-addressed :class:`~repro.experiments.cache
.ArtefactCache` under the scenario's config hash, and a rerun with the
same hash *loads* completed stages instead of recomputing them.

Because every stage is a deterministic function of (scenario, upstream
artefacts) and pickling round-trips floats bit-exactly, a resumed run is
bit-identical to a cold run of the same scenario -- the test suite
enforces this, and it holds across evaluation backends (the backends are
bit-identical by the project's batch-evaluation invariant, which is why
the backend is not part of the config hash).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.cancel import CancelToken
from repro.obs import trace as obs_trace
from repro.core.flow import (
    FlowReport,
    HierarchicalFlow,
    StageHook,
    summarise_generation,
    summarise_yield_partial,
)
from repro.experiments.cache import STAGES, ArtefactCache, CacheEntry
from repro.experiments.config import ScenarioConfig

__all__ = ["StageOutcome", "ExperimentResult", "ExperimentRunner", "DEFAULT_YIELD_BATCH"]

#: Monte Carlo samples per mid-stage yield checkpoint (see
#: :meth:`~repro.core.yield_analysis.YieldAnalysis.run`; the batch size
#: never changes the result, only how often progress is persisted).
DEFAULT_YIELD_BATCH = 64

#: Stage sources reported by :class:`StageOutcome`.
COMPUTED, CACHED, SKIPPED = "computed", "cached", "skipped"


@dataclass(frozen=True)
class StageOutcome:
    """How one stage of a run was satisfied."""

    #: Stage name (``circuit`` / ``system`` / ``yield`` / ``verification``).
    stage: str
    #: ``"computed"``, ``"cached"`` or ``"skipped"``.
    source: str
    #: Wall-clock seconds spent (loading or computing).
    seconds: float = 0.0


@dataclass
class ExperimentResult:
    """Everything one :meth:`ExperimentRunner.run` call produced."""

    scenario: ScenarioConfig
    config_hash: str
    report: FlowReport
    outcomes: List[StageOutcome] = field(default_factory=list)
    cache_dir: Optional[Path] = None
    elapsed: float = 0.0

    @property
    def stage_sources(self) -> Dict[str, str]:
        """Mapping of stage name to ``computed`` / ``cached`` / ``skipped``."""
        return {outcome.stage: outcome.source for outcome in self.outcomes}

    @property
    def resumed(self) -> bool:
        """Whether at least one stage was satisfied from the cache."""
        return any(outcome.source == CACHED for outcome in self.outcomes)

    def summary(self) -> Dict[str, Any]:
        """Headline numbers plus run metadata (JSON-compatible)."""
        summary: Dict[str, Any] = {
            "scenario": self.scenario.name,
            "config_hash": self.config_hash,
            "elapsed_seconds": self.elapsed,
            "stages": self.stage_sources,
        }
        summary.update(self.report.summary())
        return summary


class ExperimentRunner:
    """Run scenarios through the flow with content-addressed resume.

    Parameters
    ----------
    scenario:
        The scenario to execute.
    cache_dir:
        Cache root (defaults to ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
    force:
        Recompute every stage even when a checkpoint exists (checkpoints
        are overwritten with the freshly computed artefacts).
    yield_batch_size:
        Monte Carlo samples per mid-stage yield checkpoint.  A yield stage
        interrupted between batches resumes from the persisted partial
        instead of restarting; the batch size never changes the result.
        ``None`` disables mid-stage checkpointing (single batch).
    circuit_checkpoint:
        Persist the circuit stage's NSGA-II state per generation
        (``circuit.partial.pkl``), so an interrupted or cancelled circuit
        stage resumes at generation granularity.  Checkpointing never
        changes the result (the overhead benchmark keeps it < 5 %);
        ``False`` disables it.
    artifacts:
        Optional :class:`~repro.experiments.artifacts.ArtifactStore`
        overriding the local disk cache -- the distributed seam.  A
        remote worker passes an
        :class:`~repro.experiments.artifacts.HttpArtifactStore` here so
        stage checkpoints are read through from (and published to) the
        coordinator; the checkpoint protocol is identical, so the run
        stays bit-identical to a local one.  When given, ``cache_dir``
        is ignored.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        cache_dir: Optional[Path] = None,
        force: bool = False,
        yield_batch_size: Optional[int] = DEFAULT_YIELD_BATCH,
        circuit_checkpoint: bool = True,
        artifacts: Optional[Any] = None,
    ) -> None:
        self.scenario = scenario
        #: Computed once: it keys the cache entry, the trace and the result.
        self.config_hash = scenario.config_hash()
        self.cache = artifacts if artifacts is not None else ArtefactCache(cache_dir)
        self.force = force
        self.yield_batch_size = yield_batch_size
        self.circuit_checkpoint = circuit_checkpoint

    # -- public API ----------------------------------------------------------------------

    def run(
        self,
        output_directory: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        stage_hook: Optional[StageHook] = None,
        cancel: Optional[CancelToken] = None,
        progress_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> ExperimentResult:
        """Execute (or resume) the scenario and return all artefacts.

        Parameters
        ----------
        output_directory:
            When given, the combined model's ``.tbl`` files and generated
            Verilog-A are exported there (like ``HierarchicalFlow.run``).
        progress:
            Optional ``progress(done, total)`` callback forwarded to the
            circuit stage's Monte Carlo loop.
        stage_hook:
            Optional ``hook(stage_name, artefact)`` invoked right after
            each stage is satisfied -- computed *or* loaded from the cache
            (skipped stages fire no hook).  The same seam as
            :meth:`HierarchicalFlow.run`; the experiment service's workers
            use it to record per-stage progress events.
        cancel:
            Optional :class:`~repro.cancel.CancelToken` observed at every
            checkpoint boundary (stage transitions, NSGA-II generations,
            yield Monte Carlo batches).  A cancelled run raises
            :class:`~repro.cancel.JobCancelled` right after the current
            partial was persisted, so rerunning the same scenario resumes
            from it bit-identically.
        progress_hook:
            Optional ``hook(stage_name, payload)`` invoked at every
            *mid-stage* checkpoint: once per NSGA-II generation of the
            circuit stage (payload from
            :func:`~repro.core.flow.summarise_generation`, with the
            current Pareto front) and once per yield Monte Carlo batch
            (:func:`~repro.core.flow.summarise_yield_partial`, with the
            running yield estimate).  The service workers feed these to
            the job store's event log for live SSE streaming.  The circuit
            payloads need ``circuit_checkpoint``; neither fires for a
            stage satisfied from the cache, and hook failures are
            swallowed -- progress must never break a run.

        Returns
        -------
        ExperimentResult
            The assembled :class:`~repro.core.flow.FlowReport` plus, for
            every stage, whether it was computed, loaded from cache or
            skipped.
        """
        scenario = self.scenario
        entry = self.cache.entry(self.config_hash)
        # Tracing wraps the run but never feeds back into it: spans only
        # read clocks, so artefact bytes are identical with or without
        # observability (asserted by tests and the overhead benchmark).
        # When a worker already activated the job's trace, start_trace
        # yields None and our spans join the outer trace (which the
        # owner persists); otherwise this runner owns trace + persist.
        with obs_trace.start_trace(self.config_hash) as trace:
            with obs_trace.span(
                "runner.run", scenario=scenario.name, config_hash=self.config_hash
            ):
                result = self._execute(
                    entry,
                    output_directory=output_directory,
                    progress=progress,
                    stage_hook=stage_hook,
                    cancel=cancel,
                    progress_hook=progress_hook,
                )
            if trace is not None:
                entry.write_trace(trace.spans)
        return result

    def _execute(
        self,
        entry: CacheEntry,
        output_directory: Optional[str],
        progress: Optional[Callable[[int, int], None]],
        stage_hook: Optional[StageHook],
        cancel: Optional[CancelToken],
        progress_hook: Optional[Callable[[str, Dict[str, Any]], None]],
    ) -> ExperimentResult:
        started = time.perf_counter()
        scenario = self.scenario
        flow = HierarchicalFlow.from_scenario(scenario)
        entry.write_scenario(scenario)

        def observe(stage: str, summarise: Callable[[Any], Dict[str, Any]]):
            if progress_hook is not None:
                return lambda state: progress_hook(stage, summarise(state))
            return None

        partials = {
            "yield": _StagePartial(
                entry,
                "yield",
                observe(
                    "yield",
                    lambda state: summarise_yield_partial(
                        state, scenario.yield_samples, flow.specifications
                    ),
                ),
            )
        }
        if self.circuit_checkpoint:
            generation = observe("circuit", summarise_generation)
            partials["circuit"] = _StagePartial(
                entry,
                "circuit",
                # Only a new NSGA-II generation is progress: the model
                # build's Monte Carlo rows ride the same slot under "mc",
                # beside the unchanged final generation.
                generation and (lambda state: "mc" in state or generation(state)),
            )
        stages = _CachedStages(entry, self.force, partials, self.yield_batch_size)
        report = flow._run(
            stages,
            output_directory=output_directory,
            progress=progress,
            stage_hook=stage_hook,
            cancel=cancel,
        )
        result = ExperimentResult(
            scenario=scenario,
            config_hash=self.config_hash,
            report=report,
            outcomes=[
                stages.outcomes.get(stage, StageOutcome(stage, SKIPPED)) for stage in STAGES
            ],
            cache_dir=entry.directory,
            elapsed=time.perf_counter() - started,
        )
        entry.write_report_summary(result.summary())
        return result


@dataclass
class _CachedStages:
    """Cache-backed stage source for :meth:`HierarchicalFlow._run`.

    Loads a stage's checkpointed artefact from the cache entry, or computes
    it (resuming from the stage's mid-stage partial, if it has one) and
    stores it, recording a :class:`StageOutcome` for every stage that ran.
    """

    entry: CacheEntry
    force: bool
    partials: Dict[str, "_StagePartial"]
    yield_batch_size: Optional[int]
    outcomes: Dict[str, StageOutcome] = field(default_factory=dict)

    def stage(self, stage: str, compute: Callable[[Optional[Any]], Any]) -> Any:
        """Satisfy one stage from the cache or by computing it."""
        if self.force and stage in self.partials:
            # --force promises a full recompute: a mid-stage partial left
            # by an interrupted run must not be resumed from.
            self.entry.clear_partial(stage)
        with obs_trace.span(f"stage.{stage}") as attrs:
            started = time.perf_counter()
            if not self.force and self.entry.has(stage):
                artefact = self.entry.load(stage)
                source = CACHED
            else:
                artefact = compute(self.partials.get(stage))
                with obs_trace.span("checkpoint.store", stage=stage, kind="stage"):
                    self.entry.store(stage, artefact)
                source = COMPUTED
            if attrs is not None:
                attrs["source"] = source
            seconds = time.perf_counter() - started
        if stage == "circuit":
            # The stage artefact now owns the work: the per-generation
            # NSGA-II partial (kept through the model build so a crash
            # there never loses the optimisation) is obsolete.
            self.entry.clear_partial("circuit")
        self.outcomes[stage] = StageOutcome(stage, source, seconds)
        return artefact


class _StagePartial:
    """Cache-entry-backed mid-stage checkpoint handed to stage computations.

    Adapts one stage's partial-checkpoint slot of a
    :class:`~repro.experiments.cache.CacheEntry` to the duck-typed
    ``load() / store(state) / clear()`` interface
    :meth:`~repro.core.yield_analysis.YieldAnalysis.run` expects.

    ``observe(state)``, when given, runs after each successful ``store``
    -- the seam that turns mid-stage checkpoints (NSGA-II generations,
    yield Monte Carlo batches) into live progress events.  It runs *after*
    the persist (the checkpoint is the source of truth) and its failures
    are swallowed: progress reporting must never corrupt or abort a run.
    """

    def __init__(
        self,
        entry: CacheEntry,
        stage: str,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.entry = entry
        self.stage = stage
        self.observe = observe

    def load(self) -> Optional[Any]:
        return self.entry.load_partial(self.stage)

    def store(self, state: Any) -> None:
        with obs_trace.span("checkpoint.store", stage=self.stage, kind="partial"):
            self.entry.store_partial(self.stage, state)
        if self.observe is not None:
            try:
                self.observe(state)
            except Exception:  # noqa: BLE001 - progress must never break a run
                pass

    def clear(self) -> None:
        self.entry.clear_partial(self.stage)
