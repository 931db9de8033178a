"""The Pareto-front performance model.

Section 3.3: "Having obtained the Pareto-points, all the optimal solutions
and their parameters are stored in a data file which defines the optimal
performance model for the design."

A :class:`PerformanceModel` stores the Pareto-optimal performance points
and their design parameters and provides two interpolation services:

* ``interpolate(kvco, ivco)`` -- the remaining performances (``jvco``,
  ``fmin``, ``fmax``) at a system-level operating point, used by the
  behavioural VCO model;
* ``design_parameters_for(kvco, ivco, ...)`` -- the transistor sizes that
  realise a performance point (the ``p1 ... p7`` table models of
  Listing 1), used for top-down specification propagation and bottom-up
  verification.

Both services use the N-dimensional table models of
:mod:`repro.tablemodel`, with cubic-spline control strings by default.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.circuits.performance import VcoPerformance
from repro.circuits.topology import design_from_parameters
from repro.tablemodel import TableND

__all__ = ["PerformanceModel"]

_PERFORMANCE_NAMES = ("kvco", "jitter", "current", "fmin", "fmax")
#: Aliases between the behavioural-model names and the evaluator names.
_ALIASES = {"jvco": "jitter", "ivco": "current"}


class PerformanceModel:
    """Interpolated model of the circuit-level Pareto front."""

    def __init__(
        self,
        parameters: np.ndarray,
        performances: np.ndarray,
        parameter_names: Sequence[str],
        performance_names: Sequence[str] = _PERFORMANCE_NAMES,
        control: str = "3E",
    ) -> None:
        parameters = np.asarray(parameters, dtype=float)
        performances = np.asarray(performances, dtype=float)
        if parameters.ndim != 2 or performances.ndim != 2:
            raise ValueError("parameters and performances must be 2-D arrays")
        if parameters.shape[0] != performances.shape[0]:
            raise ValueError("parameters and performances must have the same number of rows")
        if parameters.shape[0] == 0:
            raise ValueError("a performance model needs at least one Pareto point")
        if len(parameter_names) != parameters.shape[1]:
            raise ValueError("one name per parameter column is required")
        if len(performance_names) != performances.shape[1]:
            raise ValueError("one name per performance column is required")
        self.parameters = parameters
        self.performances = performances
        self.parameter_names = list(parameter_names)
        self.performance_names = list(performance_names)
        self.control = control
        self._tables: Dict[str, TableND] = {}
        self._parameter_tables: Dict[str, TableND] = {}
        self._build_tables()

    # -- construction ------------------------------------------------------------------

    def _build_tables(self) -> None:
        # (kvco, current) are the system-level designables; every other
        # performance and every design parameter is tabulated against them.
        key_columns = [
            self.performance_names.index("kvco"),
            self.performance_names.index("current"),
        ]
        keys = self.performances[:, key_columns]
        for idx, name in enumerate(self.performance_names):
            if idx in key_columns:
                continue
            self._tables[name] = TableND(
                keys, self.performances[:, idx], control=self.control, name=f"{name}_data"
            )
        for idx, name in enumerate(self.parameter_names):
            self._parameter_tables[name] = TableND(
                keys, self.parameters[:, idx], control=self.control, name=f"{name}_data"
            )

    # -- sizes and ranges ----------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of Pareto points stored in the model."""
        return int(self.performances.shape[0])

    def performance_column(self, name: str) -> np.ndarray:
        """All Pareto values of one performance."""
        name = _ALIASES.get(name, name)
        return self.performances[:, self.performance_names.index(name)]

    def performance_range(self, name: str) -> tuple:
        """``(min, max)`` of one performance across the Pareto front."""
        column = self.performance_column(name)
        return float(np.min(column)), float(np.max(column))

    # -- interpolation ------------------------------------------------------------------------

    def interpolate(self, kvco: float, ivco: float) -> Dict[str, float]:
        """Remaining performances at a (gain, current) operating point.

        Returns a dictionary with both the evaluator names (``jitter``,
        ``fmin``, ``fmax``) and the behavioural-model aliases (``jvco``).
        """
        result: Dict[str, float] = {
            "kvco": float(kvco),
            "current": float(ivco),
            "ivco": float(ivco),
        }
        for name, table in self._tables.items():
            result[name] = float(table(kvco, ivco))
        result["jvco"] = result["jitter"]
        return result

    def interpolate_batch(self, kvcos, ivcos) -> List[Dict[str, float]]:
        """Batched :meth:`interpolate` over arrays of operating points.

        Each table is evaluated once with the whole ``(n, 2)`` query matrix
        instead of once per point; the table evaluation is row-wise
        identical to the scalar calls, so every returned record matches
        :meth:`interpolate` bit-for-bit.
        """
        kvcos = np.atleast_1d(np.asarray(kvcos, dtype=float))
        ivcos = np.atleast_1d(np.asarray(ivcos, dtype=float))
        if kvcos.shape != ivcos.shape or kvcos.ndim != 1:
            raise ValueError("kvcos and ivcos must be 1-D arrays of equal length")
        query = np.column_stack([kvcos, ivcos])
        columns = {
            name: np.atleast_1d(table(query)) for name, table in self._tables.items()
        }
        records: List[Dict[str, float]] = []
        for index in range(kvcos.size):
            record: Dict[str, float] = {
                "kvco": float(kvcos[index]),
                "current": float(ivcos[index]),
                "ivco": float(ivcos[index]),
            }
            for name, column in columns.items():
                record[name] = float(column[index])
            record["jvco"] = record["jitter"]
            records.append(record)
        return records

    def design_parameters_for(self, kvco: float, ivco: float) -> Any:
        """Transistor sizes realising a (gain, current) operating point.

        This is the Listing-1 lookup ``p1 ... p7 = $table_model(kvco, ivco,
        ...)`` reduced to the two system-level designables.  The design
        class is recovered from the stored parameter-name set through the
        topology registry, so models pickled before the topology seam
        still reconstruct ring designs.
        """
        values = {
            name: float(table(kvco, ivco)) for name, table in self._parameter_tables.items()
        }
        return design_from_parameters(self.parameter_names, values)

    def consistency_distance(self, kvco: float, ivco: float) -> float:
        """Normalised distance from a (gain, current) query to the Pareto front.

        Both coordinates are normalised by the front's span, so a distance
        of 0 means the query coincides with a stored Pareto point and a
        distance of 1 means it is one full front-span away.  The system
        stage uses this to keep candidate operating points realisable
        (interpolation far away from the sampled front is meaningless).
        """
        kvco_column = self.performance_column("kvco")
        current_column = self.performance_column("current")
        kvco_span = max(np.ptp(kvco_column), 1e-30)
        current_span = max(np.ptp(current_column), 1e-30)
        distance = ((kvco_column - kvco) / kvco_span) ** 2
        distance += ((current_column - ivco) / current_span) ** 2
        return float(np.sqrt(np.min(distance)))

    def nearest_point(self, kvco: float, ivco: float) -> Dict[str, float]:
        """The stored Pareto point closest to a (gain, current) query."""
        kvco_column = self.performance_column("kvco")
        current_column = self.performance_column("current")
        kvco_span = max(np.ptp(kvco_column), 1e-30)
        current_span = max(np.ptp(current_column), 1e-30)
        distance = ((kvco_column - kvco) / kvco_span) ** 2
        distance += ((current_column - ivco) / current_span) ** 2
        index = int(np.argmin(distance))
        return self.point(index)

    def point(self, index: int) -> Dict[str, float]:
        """One stored Pareto point as a flat dictionary."""
        record: Dict[str, float] = {}
        for i, name in enumerate(self.performance_names):
            record[name] = float(self.performances[index, i])
        for i, name in enumerate(self.parameter_names):
            record[name] = float(self.parameters[index, i])
        return record

    def records(self) -> List[Dict[str, float]]:
        """All Pareto points as flat dictionaries (tabular export)."""
        return [self.point(i) for i in range(self.n_points)]

    def performance_records(self) -> List[VcoPerformance]:
        """All Pareto points as :class:`VcoPerformance` records."""
        return [
            VcoPerformance(
                kvco=float(row[self.performance_names.index("kvco")]),
                jitter=float(row[self.performance_names.index("jitter")]),
                current=float(row[self.performance_names.index("current")]),
                fmin=float(row[self.performance_names.index("fmin")]),
                fmax=float(row[self.performance_names.index("fmax")]),
            )
            for row in self.performances
        ]
