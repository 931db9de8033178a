"""Monte Carlo analysis engine.

Section 3.3 of the paper: "a MC analysis is run for each of the parameter
solution sets that lies on the Pareto-front.  From this simulation, a set
of performance spreads is obtained."  The engine here provides exactly
that service for any evaluator with the signature

    evaluator(technology, mismatch_sample) -> {performance_name: value}

It draws global-variation and mismatch samples with a seeded random
generator (fully reproducible), evaluates each sample and returns a
:class:`MonteCarloResult` holding per-sample values, nominal values and the
spread summaries used to build the paper's variation model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import trace as obs_trace
from repro.process.mismatch import DeviceGeometry, MismatchModel, MismatchSample
from repro.process.statistics import (
    PerformanceSpread,
    parametric_yield,
    summarise_samples,
)
from repro.process.technology import Technology, shifted_parameter
from repro.process.variation import GlobalVariationModel

__all__ = ["ProcessSample", "SampleBatch", "MonteCarloResult", "MonteCarloEngine"]

Evaluator = Callable[[Technology, MismatchSample], Mapping[str, float]]
BatchEvaluator = Callable[["SampleBatch"], Sequence[Mapping[str, float]]]


@dataclass(frozen=True)
class ProcessSample:
    """One drawn combination of global variation and local mismatch."""

    index: int
    technology: Technology
    mismatch: MismatchSample


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo draws as structure-of-arrays columns.

    Sample ``i`` is the nominal ``technology`` with every model-card
    parameter shifted by ``global_deltas[polarity][parameter][i]`` (an
    empty mapping when global variation is off), plus the mismatch
    deltas in row ``i`` of ``mismatch_vth0`` / ``mismatch_u0_rel``, whose
    ``(n_samples, n_devices)`` columns follow ``device_names``.

    Array consumers read whole columns (:meth:`card_columns`,
    :meth:`mismatch_columns`).  Indexing and iteration build
    :class:`ProcessSample` objects on demand, for consumers that evaluate
    one sample at a time; slicing returns a smaller batch that keeps the
    original sample indices.
    """

    technology: Technology
    global_deltas: Mapping[str, Mapping[str, np.ndarray]]
    device_names: Tuple[str, ...]
    mismatch_vth0: np.ndarray
    mismatch_u0_rel: np.ndarray
    indices: range

    @classmethod
    def nominal(cls, technology: Technology) -> "SampleBatch":
        """A one-sample batch holding the unperturbed technology."""
        empty = np.zeros((1, 0))
        return cls(technology, {}, (), empty, empty, range(1))

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key: Union[int, slice]) -> Union[ProcessSample, "SampleBatch"]:
        if isinstance(key, slice):
            return SampleBatch(
                technology=self.technology,
                global_deltas={
                    polarity: {name: column[key] for name, column in params.items()}
                    for polarity, params in self.global_deltas.items()
                },
                device_names=self.device_names,
                mismatch_vth0=self.mismatch_vth0[key],
                mismatch_u0_rel=self.mismatch_u0_rel[key],
                indices=self.indices[key],
            )
        row = range(len(self))[key]
        technology = self.technology
        if self.global_deltas:
            deltas = {
                polarity: {name: float(column[row]) for name, column in params.items()}
                for polarity, params in self.global_deltas.items()
            }
            technology = technology.with_deltas(deltas.get("nmos"), deltas.get("pmos"))
        return ProcessSample(
            index=self.indices[row],
            technology=technology,
            mismatch=MismatchSample.from_arrays(
                self.device_names, self.mismatch_vth0[row], self.mismatch_u0_rel[row]
            ),
        )

    def __iter__(self) -> Iterator[ProcessSample]:
        return (self[row] for row in range(len(self)))

    def card_columns(self, polarity: str) -> Dict[str, np.ndarray]:
        """Shifted ``(n_samples,)`` values of every varied parameter of one card.

        This is :meth:`Technology.with_deltas` on whole columns: the same
        add and physical floor, elementwise.
        """
        model = self.technology.model(polarity)
        return {
            name: shifted_parameter(model, name, column)
            for name, column in self.global_deltas.get(polarity, {}).items()
        }

    def mismatch_columns(self, device_name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(vth0, u0_rel)`` delta columns of one device, or ``None`` if it has none."""
        column = self._device_columns.get(device_name)
        if column is None:
            return None
        return self.mismatch_vth0[:, column], self.mismatch_u0_rel[:, column]

    @cached_property
    def _device_columns(self) -> Dict[str, int]:
        # A repeated name resolves to its last column, as in the mapping
        # of a materialised MismatchSample.
        return {name: column for column, name in enumerate(self.device_names)}


@dataclass
class MonteCarloResult:
    """Per-sample performances plus nominal values and spread summaries."""

    performances: List[Dict[str, float]]
    nominal: Dict[str, float] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of Monte Carlo samples evaluated."""
        return len(self.performances)

    @property
    def performance_names(self) -> List[str]:
        """Names of the recorded performances."""
        if not self.performances:
            return []
        return list(self.performances[0])

    def values(self, name: str) -> np.ndarray:
        """All sampled values of one performance."""
        return np.array([sample[name] for sample in self.performances])

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """All performances as name -> sample-array mapping."""
        return {name: self.values(name) for name in self.performance_names}

    def spreads(self) -> Dict[str, PerformanceSpread]:
        """Spread summary (mean, sigma, relative spread) per performance."""
        return summarise_samples(self.as_arrays(), self.nominal)

    def spread_percent(self, name: str) -> float:
        """Relative spread of one performance in percent."""
        return self.spreads()[name].spread_percent

    def yield_fraction(self, specifications: Mapping[str, tuple]) -> float:
        """Parametric yield against a specification window set."""
        return parametric_yield(self.as_arrays(), specifications)


class MonteCarloEngine:
    """Seeded Monte Carlo sampling over process variation and mismatch."""

    def __init__(
        self,
        technology: Technology,
        variation: GlobalVariationModel | None = None,
        mismatch: MismatchModel | None = None,
        n_samples: int = 100,
        seed: Optional[int] = 2009,
        include_global: bool = True,
        include_mismatch: bool = True,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.technology = technology
        self.variation = variation or GlobalVariationModel()
        self.mismatch = mismatch or MismatchModel()
        self.n_samples = n_samples
        self.seed = seed
        self.include_global = include_global
        self.include_mismatch = include_mismatch

    # -- sampling -----------------------------------------------------------------

    def sample_batch(self, devices: Sequence[DeviceGeometry] = ()) -> SampleBatch:
        """Draw all ``n_samples`` process samples as one structure-of-arrays batch.

        The standard normals of every sample are pulled from the generator
        as a single ``(n_samples, k)`` matrix -- numpy fills it from the
        same sequential stream as one-at-a-time scalar draws -- and the
        global-variation and mismatch models turn its columns into delta
        arrays with elementwise IEEE operations, so every sample is
        bit-identical to the historical per-sample drawing for any fixed
        seed.
        """
        use_mismatch = self.include_mismatch and bool(devices)
        names = tuple(device.name for device in devices) if use_mismatch else ()
        with obs_trace.span("mc.sample", n_samples=self.n_samples, n_devices=len(names)):
            rng = np.random.default_rng(self.seed)
            k_variation = self.variation.n_random_variables if self.include_global else 0
            k_mismatch = self.mismatch.draws_per_sample(devices) if use_mismatch else 0
            width = k_variation + k_mismatch
            draws = (
                rng.standard_normal((self.n_samples, width))
                if width
                else np.zeros((self.n_samples, 0))
            )
            global_deltas = (
                self.variation.deltas_from_draws(self.technology, draws[:, :k_variation])
                if self.include_global
                else {}
            )
            if use_mismatch:
                vth0, u0_rel = self.mismatch.sample_from_draws(devices, draws[:, k_variation:])
            else:
                vth0 = u0_rel = np.zeros((self.n_samples, 0))
        return SampleBatch(
            technology=self.technology,
            global_deltas=global_deltas,
            device_names=names,
            mismatch_vth0=vth0,
            mismatch_u0_rel=u0_rel,
            indices=range(self.n_samples),
        )

    def samples(self, devices: Sequence[DeviceGeometry] = ()) -> Iterator[ProcessSample]:
        """Yield ``n_samples`` process samples (reproducible for a fixed seed)."""
        yield from self.sample_batch(devices)

    # -- evaluation ----------------------------------------------------------------

    def run(
        self,
        evaluator: Evaluator,
        devices: Sequence[DeviceGeometry] = (),
        nominal: Mapping[str, float] | None = None,
    ) -> MonteCarloResult:
        """Evaluate ``evaluator`` on every drawn sample.

        Parameters
        ----------
        evaluator:
            Callable mapping ``(technology, mismatch_sample)`` to a
            dictionary of performance values.
        devices:
            Geometries of the matched devices; required for mismatch to be
            applied (an empty sequence disables mismatch).
        nominal:
            Optional nominal performances.  When omitted, the evaluator is
            called once with the unperturbed technology to obtain them.
        """
        if nominal is None:
            nominal = dict(evaluator(self.technology, MismatchSample()))
        performances: List[Dict[str, float]] = []
        for sample in self.samples(devices):
            result = dict(evaluator(sample.technology, sample.mismatch))
            if not result:
                raise ValueError("evaluator returned an empty performance dictionary")
            performances.append({k: float(v) for k, v in result.items()})
        return MonteCarloResult(performances=performances, nominal=dict(nominal))

    def run_batch(
        self,
        evaluator: BatchEvaluator,
        devices: Sequence[DeviceGeometry] = (),
        nominal: Mapping[str, float] | None = None,
    ) -> MonteCarloResult:
        """Evaluate a batch evaluator on all drawn samples in one call.

        ``evaluator`` receives the whole :class:`SampleBatch` and returns
        one performance dictionary per sample (see
        :meth:`~repro.circuits.evaluators.VcoEvaluator.monte_carlo_batch_evaluator`).
        Samples and results are index-aligned, so for a vectorised
        evaluator the outcome is identical to :meth:`run` -- only the
        evaluation happens as array math instead of ``n_samples`` Python
        calls.
        """
        if nominal is None:
            nominal_results = evaluator(SampleBatch.nominal(self.technology))
            if len(nominal_results) != 1:
                raise ValueError("batch evaluator returned no nominal result")
            nominal = dict(nominal_results[0])
        samples = self.sample_batch(devices)
        results = evaluator(samples)
        if len(results) != len(samples):
            raise ValueError(
                f"batch evaluator returned {len(results)} result(s) for "
                f"{len(samples)} sample(s)"
            )
        performances: List[Dict[str, float]] = []
        for result in results:
            result = dict(result)
            if not result:
                raise ValueError("evaluator returned an empty performance dictionary")
            performances.append({k: float(v) for k, v in result.items()})
        return MonteCarloResult(performances=performances, nominal=dict(nominal))
