"""The Monte-Carlo-derived variation model.

Section 3.3 of the paper: "during this step, a MC analysis is run for each
of the parameter solution sets that lies on the Pareto-front.  From this
simulation, a set of performance spreads is obtained.  The performance
spread information is stored together with the performance model in a
datafile."

A :class:`VariationModel` therefore stores, for every Pareto point, the
relative spread (in percent, exactly as Table 1 reports them) of each
performance, and builds the one-dimensional ``<perf>_delta`` look-up tables
of Listing 1 so that the behavioural VCO can interpolate the spread of any
intermediate operating point.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavioural.vco import VcoVariationTables
from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.topology import topology_for_evaluator
from repro.process.montecarlo import MonteCarloEngine
from repro.tablemodel import Table1D

__all__ = ["VariationModel"]

#: Performances carried by the variation model, in storage order.
_PERFORMANCE_NAMES = ("kvco", "jitter", "current", "fmin", "fmax")
_ALIASES = {"jvco": "jitter", "ivco": "current"}


class VariationModel:
    """Relative performance spreads across the Pareto front."""

    def __init__(
        self,
        nominal: np.ndarray,
        spreads_percent: np.ndarray,
        performance_names: Sequence[str] = _PERFORMANCE_NAMES,
        control: str = "3E",
        n_samples: int = 0,
    ) -> None:
        nominal = np.asarray(nominal, dtype=float)
        spreads_percent = np.asarray(spreads_percent, dtype=float)
        if nominal.shape != spreads_percent.shape or nominal.ndim != 2:
            raise ValueError("nominal and spread arrays must be 2-D and of identical shape")
        if nominal.shape[0] == 0:
            raise ValueError("a variation model needs at least one Pareto point")
        if len(performance_names) != nominal.shape[1]:
            raise ValueError("one name per performance column is required")
        self.nominal = nominal
        self.spreads_percent = spreads_percent
        self.performance_names = list(performance_names)
        self.control = control
        self.n_samples = n_samples
        self._tables: Dict[str, Table1D] = {}
        self._vco_tables: Optional[VcoVariationTables] = None
        self._build_tables()

    def __getstate__(self):
        # The cached VcoVariationTables adapter holds local lambdas, which
        # do not pickle; drop it so the model stays picklable (stage
        # artefacts pickle it; an unpickled model rebuilds the cache
        # lazily).
        state = self.__dict__.copy()
        state["_vco_tables"] = None
        return state

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_monte_carlo(
        cls,
        designs: Sequence[Any],
        nominal_performances: Sequence[Mapping[str, float]],
        evaluator: VcoEvaluator,
        mc_engine_factory: Callable[[], MonteCarloEngine] | None = None,
        n_samples: int = 100,
        seed: int = 2009,
        control: str = "3E",
        progress: Optional[Callable[[int, int], None]] = None,
        checkpoint: Optional[Any] = None,
        cancel: Optional[Any] = None,
    ) -> "VariationModel":
        """Run one Monte Carlo analysis per Pareto point and collect spreads.

        Parameters
        ----------
        designs:
            Transistor-level design points of the Pareto front.
        nominal_performances:
            Nominal performance dictionaries, one per design (from the
            optimisation itself, so they are not recomputed).
        evaluator:
            The VCO evaluator re-simulating each point's Monte Carlo
            samples, all of them in one ``evaluate_batch`` call
            (:meth:`~repro.process.montecarlo.MonteCarloEngine.run_batch`);
            the paper used 100 SpectreRF Monte Carlo samples per point.
        mc_engine_factory:
            Optional factory returning a configured
            :class:`~repro.process.montecarlo.MonteCarloEngine`; by default
            one is built from the evaluator's technology with ``n_samples``
            samples and the given ``seed``.
        n_samples / seed / control:
            Monte Carlo depth, seed and table-model control string.
        progress:
            Optional ``progress(done, total)`` callback.
        checkpoint:
            Optional duck-typed ``load()/store(state)/clear()`` store.  The
            completed per-point rows are persisted after every point, so an
            interrupted model build resumes at the first unfinished point.
            Each point seeds its own independent Monte Carlo engine
            (``seed + index``), so the resumed rows are bit-identical to an
            uninterrupted run's.
        cancel:
            Optional cancellation token (``raise_if_cancelled()``), observed
            at point boundaries.
        """
        if len(designs) != len(nominal_performances):
            raise ValueError("one nominal performance record per design is required")
        if not designs:
            raise ValueError("at least one Pareto design point is required")
        nominal_rows: List[List[float]] = []
        spread_rows: List[List[float]] = []
        total = len(designs)
        topology = topology_for_evaluator(evaluator)
        # Mismatch is injected per matched transistor, so the geometry list
        # must cover exactly the evaluator's ring length (3/5/7/9 stages).
        n_stages = getattr(evaluator, "n_stages", topology.default_n_stages)
        fingerprint = {
            "n_samples": int(n_samples),
            "seed": int(seed),
            "control": str(control),
            "designs": [design.as_dict() for design in designs],
        }
        if checkpoint is not None:
            state = checkpoint.load()
            if (
                isinstance(state, dict)
                and state.get("fingerprint") == fingerprint
                and len(state.get("nominal_rows", ())) == len(state.get("spread_rows", ()))
                and len(state.get("nominal_rows", ())) <= total
            ):
                nominal_rows = [list(row) for row in state["nominal_rows"]]
                spread_rows = [list(row) for row in state["spread_rows"]]
        start = len(nominal_rows)
        for index, (design, nominal) in enumerate(zip(designs, nominal_performances)):
            if index < start:
                continue
            if cancel is not None:
                cancel.raise_if_cancelled()
            if mc_engine_factory is not None:
                engine = mc_engine_factory()
            else:
                engine = MonteCarloEngine(
                    evaluator.technology, n_samples=n_samples, seed=seed + index
                )
            nominal_values = {name: float(nominal[name]) for name in _PERFORMANCE_NAMES}
            result = engine.run_batch(
                evaluator.monte_carlo_batch_evaluator(design),
                devices=topology.device_geometries(design, n_stages=n_stages),
                nominal=nominal_values,
            )
            spreads = result.spreads()
            nominal_rows.append([float(nominal[name]) for name in _PERFORMANCE_NAMES])
            spread_rows.append([spreads[name].spread_percent for name in _PERFORMANCE_NAMES])
            if checkpoint is not None and len(nominal_rows) < total:
                checkpoint.store(
                    {
                        "fingerprint": fingerprint,
                        "nominal_rows": nominal_rows,
                        "spread_rows": spread_rows,
                    }
                )
            if progress is not None:
                progress(index + 1, total)
        if checkpoint is not None:
            checkpoint.clear()
        return cls(
            nominal=np.asarray(nominal_rows),
            spreads_percent=np.asarray(spread_rows),
            control=control,
            n_samples=n_samples,
        )

    def _build_tables(self) -> None:
        for idx, name in enumerate(self.performance_names):
            self._tables[name] = Table1D(
                self.nominal[:, idx],
                self.spreads_percent[:, idx],
                control=self.control,
                name=f"{name}_delta",
            )

    # -- queries --------------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of Pareto points covered by the model."""
        return int(self.nominal.shape[0])

    def spread(self, name: str, value):
        """Interpolated relative spread (percent) of ``name`` at ``value``.

        The cubic-spline table can undershoot between samples, so the
        result is floored at zero (a spread is non-negative by definition).
        ``value`` may be a scalar or a lane array; the array form evaluates
        the table elementwise with results bit-identical to scalar calls.
        """
        name = _ALIASES.get(name, name)
        if name not in self._tables:
            raise KeyError(f"no variation table for performance {name!r}")
        result = self._tables[name](value)
        if np.ndim(value) == 0:
            return max(float(result), 0.0)
        return np.maximum(np.asarray(result, dtype=float), 0.0)

    def table(self, name: str) -> Table1D:
        """The underlying ``<name>_delta`` look-up table."""
        name = _ALIASES.get(name, name)
        return self._tables[name]

    def spread_column(self, name: str) -> np.ndarray:
        """Stored spreads (percent) of one performance across the front."""
        name = _ALIASES.get(name, name)
        return self.spreads_percent[:, self.performance_names.index(name)]

    def nominal_column(self, name: str) -> np.ndarray:
        """Stored nominal values of one performance across the front."""
        name = _ALIASES.get(name, name)
        return self.nominal[:, self.performance_names.index(name)]

    # -- behavioural-model integration ------------------------------------------------------

    def as_variation_tables(self) -> VcoVariationTables:
        """Adapt the model to the behavioural VCO's variation interface.

        The adapter is stateless, so one shared instance is cached and
        handed to every behavioural VCO built from this model -- which is
        what lets the lane-parallel engine recognise that all lanes share
        the same tables and evaluate them as one array call per table.
        """
        if self._vco_tables is None:
            self._vco_tables = VcoVariationTables(
                kvco_delta=lambda value: self.spread("kvco", value),
                ivco_delta=lambda value: self.spread("current", value),
                jvco_delta=lambda value: self.spread("jitter", value),
                fmin_delta=lambda value: self.spread("fmin", value),
                fmax_delta=lambda value: self.spread("fmax", value),
            )
        return self._vco_tables

    def records(self) -> List[Dict[str, float]]:
        """Per-point nominal values and spreads (Table-1 style rows)."""
        rows: List[Dict[str, float]] = []
        for i in range(self.n_points):
            row: Dict[str, float] = {}
            for j, name in enumerate(self.performance_names):
                row[name] = float(self.nominal[i, j])
                row[f"{name}_delta_pct"] = float(self.spreads_percent[i, j])
            rows.append(row)
        return rows
