"""Global (inter-die) process variation model.

Foundry statistical models describe lot/wafer/die level shifts of the
electrical parameters as (approximately) independent normal distributions.
:class:`GlobalVariationModel` captures that structure: each varied model
parameter has a :class:`VariationSpec` giving its standard deviation
(absolute or relative to the nominal value) and optional truncation, and a
single draw produces the additive deltas to apply to both the NMOS and the
PMOS model cards of a :class:`~repro.process.technology.Technology`.

The default numbers are representative of a 0.12 um CMOS process:
``sigma(Vth) = 15 mV``, ``sigma(tox)/tox = 1.5%``, ``sigma(u0)/u0 = 3%``,
``sigma(dL) = 4 nm``, ``sigma(dW) = 10 nm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.process.technology import Technology

__all__ = ["VariationSpec", "GlobalVariationModel", "truncate"]


@dataclass(frozen=True)
class VariationSpec:
    """Statistical description of one varied process parameter."""

    #: MOSFET model-card attribute the variation applies to.
    parameter: str
    #: Standard deviation; absolute when ``relative`` is False, otherwise a
    #: fraction of the nominal parameter value.
    sigma: float
    relative: bool = False
    #: Truncation of the normal distribution in units of sigma (0 = none).
    truncation: float = 4.0
    #: Correlation group: parameters sharing a group name use the same
    #: standard-normal draw (e.g. NMOS and PMOS oxide thickness).
    correlation_group: Optional[str] = None

    def delta(self, nominal: float, standard_normal):
        """Convert standard-normal draws (a scalar or an array) into additive deltas."""
        sigma_abs = self.sigma * abs(nominal) if self.relative else self.sigma
        return truncate(standard_normal, self.truncation) * sigma_abs


def truncate(z, limit: float):
    """Clip standard normals to ``[-limit, limit]``; ``limit <= 0`` means none.

    Clipping is exact, so one call on a draw matrix gives the same bits
    as clipping each draw on its own.
    """
    if limit > 0.0:
        return np.clip(z, -limit, limit)
    return z


def _default_specs() -> Dict[str, List[VariationSpec]]:
    return {
        "nmos": [
            VariationSpec("vth0", sigma=0.015),
            VariationSpec("tox", sigma=0.015, relative=True, correlation_group="tox"),
            VariationSpec("u0", sigma=0.03, relative=True),
            VariationSpec("ld", sigma=2.0e-9, correlation_group="geometry"),
            VariationSpec("lambda_", sigma=0.05, relative=True),
        ],
        "pmos": [
            VariationSpec("vth0", sigma=0.015),
            VariationSpec("tox", sigma=0.015, relative=True, correlation_group="tox"),
            VariationSpec("u0", sigma=0.03, relative=True),
            VariationSpec("ld", sigma=2.0e-9, correlation_group="geometry"),
            VariationSpec("lambda_", sigma=0.05, relative=True),
        ],
    }


class GlobalVariationModel:
    """Die-level statistical variation of the technology model cards."""

    def __init__(self, specs: Mapping[str, List[VariationSpec]] | None = None) -> None:
        self.specs: Dict[str, List[VariationSpec]] = (
            {key: list(value) for key, value in specs.items()} if specs else _default_specs()
        )
        for polarity in self.specs:
            if polarity not in ("nmos", "pmos"):
                raise ValueError(f"unknown polarity key {polarity!r} in variation specs")

    @property
    def n_random_variables(self) -> int:
        """Number of independent standard-normal draws per sample."""
        groups = set()
        count = 0
        for spec_list in self.specs.values():
            for spec in spec_list:
                if spec.correlation_group is None:
                    count += 1
                else:
                    groups.add(spec.correlation_group)
        return count + len(groups)

    def sample_deltas(
        self, technology: Technology, rng: np.random.Generator
    ) -> Dict[str, Dict[str, float]]:
        """Draw one set of additive model-card deltas.

        Returns ``{"nmos": {param: delta, ...}, "pmos": {...}}``.
        """
        draws = rng.standard_normal((1, self.n_random_variables))
        return {
            polarity: {name: float(column[0]) for name, column in params.items()}
            for polarity, params in self.deltas_from_draws(technology, draws).items()
        }

    def deltas_from_draws(
        self, technology: Technology, draws: np.ndarray
    ) -> Dict[str, Dict[str, np.ndarray]]:
        """Convert an ``(n_samples, k)`` standard-normal matrix into delta columns.

        Column ``j`` of ``draws`` is the ``j``-th random variable in the
        spec-declaration consumption order (each correlation group consumes
        one column at its first occurrence), so the Monte Carlo engine can
        pull every sample from the generator in one bulk ``standard_normal``
        call.  Returns ``{"nmos": {param: (n_samples,) deltas}, "pmos":
        {...}}``; the clip, multiply and accumulation are elementwise IEEE
        operations, so each entry has the bits of a per-sample scalar
        conversion.
        """
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != self.n_random_variables:
            raise ValueError(
                f"expected an (n_samples, {self.n_random_variables}) draw matrix, "
                f"got shape {draws.shape}"
            )
        cursor = 0
        group_columns: Dict[str, int] = {}
        deltas: Dict[str, Dict[str, np.ndarray]] = {"nmos": {}, "pmos": {}}
        for polarity, spec_list in self.specs.items():
            model = technology.model(polarity)
            for spec in spec_list:
                group = spec.correlation_group
                if group is not None and group in group_columns:
                    column = group_columns[group]
                else:
                    column = cursor
                    cursor += 1
                    if group is not None:
                        group_columns[group] = column
                nominal = getattr(model, spec.parameter)
                deltas[polarity][spec.parameter] = deltas[polarity].get(
                    spec.parameter, 0.0
                ) + spec.delta(nominal, draws[:, column])
        return deltas

    def apply_sample(
        self, technology: Technology, rng: np.random.Generator
    ) -> Technology:
        """Draw one sample and return the shifted technology."""
        deltas = self.sample_deltas(technology, rng)
        return technology.with_deltas(deltas.get("nmos"), deltas.get("pmos"))

    def sigma_summary(self, technology: Technology) -> Dict[str, float]:
        """Absolute 1-sigma values for reporting, keyed ``polarity.parameter``."""
        summary: Dict[str, float] = {}
        for polarity, spec_list in self.specs.items():
            model = technology.model(polarity)
            for spec in spec_list:
                nominal = getattr(model, spec.parameter)
                sigma_abs = spec.sigma * abs(nominal) if spec.relative else spec.sigma
                summary[f"{polarity}.{spec.parameter}"] = sigma_abs
        return summary
