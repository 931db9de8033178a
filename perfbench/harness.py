"""Span tracer that wraps the library's public entry points from outside.

The benchmark never edits the program to measure it.  A :class:`Tracer`
replaces each listed function or method with a thin wrapper for the
duration of a traced run and puts the originals back afterwards.  Every
wrapped call becomes one span (name, start, end, parent) kept in memory;
the spans are written out when the run ends.

Each entry point feeds one time metric and optional count metrics.  A
time metric accumulates *self* seconds -- the span's duration minus the
time of wrapped calls made beneath it -- unless the entry point is marked
``inclusive`` (the per-stage timers of ``repro.core``, which give the
stage split).  A call that re-enters an entry point feeding the same time
metric (a subclass override calling ``super()``, a batch method looping
over its scalar twin) is passed through without a span, so nothing is
counted twice.

Functions are patched where they are looked up: every loaded ``repro``
module that imported the function by name gets the wrapper too, so a call
through ``from repro.optim.sorting import fast_non_dominated_sort`` is
measured like a call through the defining module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from checks import is_penalty


def one(args: tuple, kwargs: dict, result: Any) -> int:
    """Count one item per call."""
    return 1


def result_len(args: tuple, kwargs: dict, result: Any) -> int:
    """Count the items the call returned."""
    return len(result)


def written_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Size of the file a checkpoint call wrote (it returns the path)."""
    return result.stat().st_size


def arg_len(position: int, factor: int = 1) -> Callable[[tuple, dict, Any], int]:
    """Count ``factor * len(args[position])`` items per call."""

    def count(args: tuple, kwargs: dict, result: Any) -> int:
        return factor * len(args[position])

    return count


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``; a
    method is wrapped on the class and on every loaded subclass that
    overrides it.
    """

    target: str
    seconds: str
    counts: Tuple[Tuple[str, Callable[[tuple, dict, Any], int]], ...] = ()
    inclusive: bool = False


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    thread: int
    end: float = 0.0
    child_seconds: float = 0.0


class Tracer:
    """Wrap entry points, record spans and accumulate per-layer metrics.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original, even when the traced code raised.
    """

    def __init__(
        self, entry_points: Sequence[EntryPoint], clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.entry_points = list(entry_points)
        self.clock = clock
        self.spans: List[Span] = []
        self.metrics: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def install(self) -> None:
        for entry in self.entry_points:
            module_name, _, qualname = entry.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                self._patch_method(getattr(module, class_name), method, entry)
            else:
                self._patch_function(module, qualname, entry)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_function(self, module: Any, name: str, entry: EntryPoint) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, entry)
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and loaded.__dict__.get(name) is original
            ):
                self._set(loaded, name, wrapper)

    def _patch_method(self, cls: type, method: str, entry: EntryPoint) -> None:
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, entry))
            else:
                wrapped = self._wrap(raw, entry)
            self._set(klass, method, wrapped)

    # -- recording -----------------------------------------------------------------------

    def _stack(self) -> List[Tuple[int, Span, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, entry: EntryPoint) -> Callable:
        tracer = self
        name = entry.target.partition(":")[2]

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if any(key == entry.seconds for _, _, key in stack):
                return function(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span = Span(name, tracer.clock(), parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append((index, span, entry.seconds))
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                duration = span.end - span.start
                if stack:
                    stack[-1][1].child_seconds += duration
                busy = duration if entry.inclusive else duration - span.child_seconds
                with tracer._lock:
                    tracer.metrics[entry.seconds] += busy
            with tracer._lock:
                for metric, items in entry.counts:
                    tracer.metrics[metric] += items(args, kwargs, result)
            return result

        return wrapper

    # -- output --------------------------------------------------------------------------

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "thread": span.thread,
            }
            for span in self.spans
        ]


def penalty_count(args: tuple, kwargs: dict, result: Any) -> int:
    """SPICE lanes behind failure-penalty performances (two lanes per task)."""
    return 2 * sum(1 for performance in result if is_penalty(performance.as_dict()))


#: Two SPICE lanes per design or task, and the lanes behind penalties.
SPICE_LANE_COUNTS = (
    ("circuits.spice_lanes", arg_len(1, factor=2)),
    ("circuits.spice_failed", penalty_count),
)

#: Every entry point the traced run wraps, grouped by ``repro`` layer.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # optim
    EntryPoint("repro.optim.nsga2:NSGA2.run", "optim.nsga2_s"),
    EntryPoint(
        "repro.optim.evaluation:BatchEvaluator.evaluate",
        "optim.evaluate_s",
        (("optim.candidates", arg_len(2)),),
    ),
    EntryPoint(
        "repro.optim.sorting:fast_non_dominated_sort", "optim.sort_s", (("optim.sort_calls", one),)
    ),
    EntryPoint("repro.optim.sorting:crowding_distance", "optim.crowding_s"),
    # process
    EntryPoint(
        "repro.process.montecarlo:MonteCarloEngine.sample_batch",
        "process.mc_sample_s",
        (("process.mc_samples", result_len),),
    ),
    EntryPoint(
        "repro.process.mismatch:MismatchModel.sample_from_draws",
        "process.mismatch_s",
        (("process.mismatch_calls", one),),
    ),
    EntryPoint("repro.process.montecarlo:MonteCarloEngine.run", "process.mc_run_s"),
    EntryPoint("repro.process.montecarlo:MonteCarloEngine.run_batch", "process.mc_run_s"),
    # circuits
    EntryPoint(
        "repro.circuits.evaluators:RingVcoAnalyticalEvaluator.evaluate",
        "circuits.analytical_s",
        (("circuits.analytical_designs", one),),
    ),
    EntryPoint(
        "repro.circuits.evaluators:RingVcoAnalyticalEvaluator.evaluate_batch",
        "circuits.analytical_s",
        (("circuits.analytical_designs", arg_len(1)),),
    ),
    EntryPoint(
        "repro.circuits.evaluators:RingVcoSpiceEvaluator.evaluate_batch",
        "circuits.spice_s",
        SPICE_LANE_COUNTS,
    ),
    EntryPoint(
        "repro.circuits.testbench:VcoTestbench.run_batch", "circuits.spice_s", SPICE_LANE_COUNTS
    ),
    # behavioural
    EntryPoint(
        "repro.behavioural.pll:BehaviouralPll.simulate",
        "behavioural.simulate_s",
        (("behavioural.simulate_calls", one),),
    ),
    EntryPoint(
        "repro.behavioural.pll:BehaviouralPll.simulate_batch",
        "behavioural.batch_s",
        (("behavioural.lanes", arg_len(1)),),
    ),
    EntryPoint(
        "repro.behavioural.pll:BehaviouralPll.evaluate_all_variants_batch",
        "behavioural.batch_s",
        (("behavioural.lanes", arg_len(1, factor=3)),),
    ),
    # core: stage timers are inclusive, so they give the stage split
    EntryPoint(
        "repro.core.circuit_stage:CircuitLevelOptimisation.optimise",
        "core.optimise_s",
        inclusive=True,
    ),
    EntryPoint(
        "repro.core.circuit_stage:CircuitLevelOptimisation.build_model",
        "core.model_build_s",
        inclusive=True,
    ),
    EntryPoint("repro.core.flow:HierarchicalFlow.system_stage", "core.system_s", inclusive=True),
    EntryPoint("repro.core.flow:HierarchicalFlow.verify_yield", "core.yield_s", inclusive=True),
    EntryPoint(
        "repro.core.flow:HierarchicalFlow.verification_stage",
        "core.verification_s",
        inclusive=True,
    ),
    EntryPoint(
        "repro.core.performance_model:PerformanceModel.interpolate_batch",
        "core.interpolate_s",
        (("core.interpolate_calls", one),),
    ),
    # spice
    EntryPoint(
        "repro.spice.transient:LaneTransientAnalysis.run",
        "spice.transient_s",
        (("spice.transients", one),),
    ),
    EntryPoint(
        "repro.spice.plan:LaneSystem.assemble", "spice.assemble_s", (("spice.assemble_calls", one),)
    ),
    EntryPoint(
        "repro.spice.mosfet:MOSFETArrays.drain_current",
        "spice.device_eval_s",
        (("spice.device_eval_calls", one),),
    ),
    EntryPoint("repro.spice.plan:lane_dc_solve", "spice.dc_s"),
    # experiments
    EntryPoint(
        "repro.experiments.cache:CacheEntry.store",
        "experiments.checkpoint_s",
        (("experiments.checkpoints", one), ("experiments.checkpoint_bytes", written_bytes)),
    ),
    EntryPoint(
        "repro.experiments.cache:CacheEntry.store_partial",
        "experiments.checkpoint_s",
        (("experiments.checkpoints", one), ("experiments.checkpoint_bytes", written_bytes)),
    ),
)


def store_entry_points() -> Tuple[EntryPoint, ...]:
    """Every public method of the coordinator's SQLite job store."""
    from repro.service.store import SqliteJobStore

    return tuple(
        EntryPoint(
            f"repro.service.store:SqliteJobStore.{name}",
            "service.store_s",
            (("service.store_calls", one),),
        )
        for name, value in vars(SqliteJobStore).items()
        if not name.startswith("_") and callable(value)
    )
