"""Behavioural VCO with the combined performance and variation model.

This is the Python equivalent of Listing 2 in the paper: a VCO block whose
behaviour is driven by the table models extracted from the circuit-level
Pareto front.

* The design parameters are the VCO gain ``kvco`` and current ``ivco``
  (the system-level designables of section 4.5).
* A *performance model* maps ``(kvco, ivco)`` to the remaining circuit
  performances (``jvco``, ``fmin``, ``fmax``) -- in the flow this is the
  interpolated Pareto-front table; standalone values can be given directly.
* A *variation model* supplies the relative spreads (``kvco_delta`` etc. in
  percent, exactly as in Table 1) from which the minimum and maximum
  variants of every quantity are derived:

      kvco_min = kvco - (kvco_delta / 100) * kvco
      kvco_max = kvco + (kvco_delta / 100) * kvco

* Output-edge jitter follows ``delta = jvco * sqrt(2 * ratio)``, injected
  as a Gaussian timing error per edge during time-domain simulation.

All three variants (nominal / min / max), corresponding to the ``out``,
``outmin`` and ``outmax`` ports of Listing 2, are exposed so the PLL
simulator can evaluate the system performance under worst-case block
variation -- the paper's key idea for yield-aware system optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.behavioural.jitter import jitter_sum, jitter_sum_lanes

__all__ = [
    "VcoVariationTables",
    "BehaviouralVco",
    "VcoLanes",
    "VARIANTS",
    "bounds_lanes",
    "describe_lanes",
]

#: The three evaluation variants of every block quantity.
VARIANTS = ("nominal", "min", "max")

#: Type of a performance model: (kvco, ivco) -> {"jvco": ..., "fmin": ..., "fmax": ...}.
PerformanceModel = Callable[[float, float], Mapping[str, float]]

#: Type of a variation model: performance name, nominal value -> spread in percent.
VariationModel = Callable[[str, float], float]


@dataclass
class VcoVariationTables:
    """Relative spreads (percent) of each VCO performance.

    Each entry is a callable ``value -> spread_percent`` (typically a
    :class:`~repro.tablemodel.Table1D` built from the Monte Carlo results,
    as in Listing 1 of the paper).  Constant spreads can be given with
    :meth:`constant`.
    """

    kvco_delta: Callable[[float], float]
    ivco_delta: Callable[[float], float]
    jvco_delta: Callable[[float], float]
    fmin_delta: Callable[[float], float]
    fmax_delta: Callable[[float], float]

    @classmethod
    def constant(
        cls,
        kvco: float = 0.5,
        ivco: float = 3.0,
        jvco: float = 25.0,
        fmin: float = 2.0,
        fmax: float = 2.0,
    ) -> "VcoVariationTables":
        """Variation tables with constant spreads (percent)."""
        return cls(
            kvco_delta=lambda _v, s=kvco: s,
            ivco_delta=lambda _v, s=ivco: s,
            jvco_delta=lambda _v, s=jvco: s,
            fmin_delta=lambda _v, s=fmin: s,
            fmax_delta=lambda _v, s=fmax: s,
        )

    def spread(self, name: str, value):
        """Spread in percent of the named performance at ``value``.

        ``value`` may be a scalar or a lane array.  Array evaluation goes
        through the same table callable (elementwise, bit-identical to the
        scalar calls); constant tables broadcast to the lane shape.
        """
        table = getattr(self, f"{name}_delta", None)
        if table is None:
            raise KeyError(f"no variation table for performance {name!r}")
        result = table(value)
        if np.ndim(value) == 0:
            return float(result)
        out = np.asarray(result, dtype=float)
        if out.ndim == 0:
            out = np.full(np.shape(value), float(out))
        return out


class BehaviouralVco:
    """Table-model driven behavioural VCO block (paper Listing 2).

    Holds the block's nominal performances and variation tables and
    derives the per-variant values; :class:`VcoLanes` stacks them and
    evaluates the tuning curve inside the PLL cycle loop.
    """

    def __init__(
        self,
        kvco: float,
        ivco: float,
        jvco: Optional[float] = None,
        fmin: Optional[float] = None,
        fmax: Optional[float] = None,
        performance_model: Optional[PerformanceModel] = None,
        variation: Optional[VcoVariationTables] = None,
        vctrl_min: float = 0.5,
        vctrl_max: float = 1.2,
    ) -> None:
        if kvco <= 0.0 or ivco <= 0.0:
            raise ValueError("kvco and ivco must be positive")
        if vctrl_max <= vctrl_min:
            raise ValueError("vctrl_max must exceed vctrl_min")
        self.kvco = float(kvco)
        self.ivco = float(ivco)
        self.vctrl_min = float(vctrl_min)
        self.vctrl_max = float(vctrl_max)
        self.variation = variation or VcoVariationTables.constant()
        if performance_model is not None:
            interpolated = performance_model(kvco, ivco)
            self.jvco = float(interpolated["jvco"]) if jvco is None else float(jvco)
            self.fmin = float(interpolated["fmin"]) if fmin is None else float(fmin)
            self.fmax = float(interpolated["fmax"]) if fmax is None else float(fmax)
        else:
            if jvco is None or fmin is None or fmax is None:
                raise ValueError(
                    "either a performance_model or explicit jvco/fmin/fmax values are required"
                )
            self.jvco = float(jvco)
            self.fmin = float(fmin)
            self.fmax = float(fmax)
        if self.fmax <= self.fmin:
            raise ValueError("fmax must exceed fmin")

    # -- variation-derived variants -------------------------------------------------------

    def _bounds(self, name: str, value: float) -> Dict[str, float]:
        spread = max(self.variation.spread(name, value), 0.0)
        delta = (spread / 100.0) * abs(value)
        # All modelled VCO quantities (gain, current, jitter, frequencies)
        # are physically non-negative, so the lower bound is floored at zero.
        return {"nominal": value, "min": max(value - delta, 0.0), "max": value + delta}

    def gain(self, variant: str = "nominal") -> float:
        """VCO gain in Hz/V for the requested variant."""
        return self._bounds("kvco", self.kvco)[_check_variant(variant)]

    def current(self, variant: str = "nominal") -> float:
        """VCO supply current in amperes for the requested variant."""
        return self._bounds("ivco", self.ivco)[_check_variant(variant)]

    def period_jitter(self, variant: str = "nominal") -> float:
        """Per-cycle RMS period jitter in seconds for the requested variant.

        Note the worst case for jitter is the *maximum*, so the ``max``
        variant returns the largest jitter.
        """
        return self._bounds("jvco", self.jvco)[_check_variant(variant)]

    def frequency_bounds(self, variant: str = "nominal") -> Dict[str, float]:
        """``fmin`` / ``fmax`` tuning limits for the requested variant."""
        variant = _check_variant(variant)
        return {
            "fmin": self._bounds("fmin", self.fmin)[variant],
            "fmax": self._bounds("fmax", self.fmax)[variant],
        }

    # -- large-signal behaviour --------------------------------------------------------------

    def control_voltage_for(self, frequency: float, variant: str = "nominal") -> float:
        """Control voltage that produces ``frequency`` (inverse tuning curve)."""
        variant = _check_variant(variant)
        bounds = self.frequency_bounds(variant)
        gain = self.gain(variant)
        if gain <= 0.0:
            raise ValueError("VCO gain must be positive to invert the tuning curve")
        vctrl = self.vctrl_min + (frequency - bounds["fmin"]) / gain
        return float(min(max(vctrl, self.vctrl_min), self.vctrl_max))

    def output_edge_jitter(self, divide_ratio: float, variant: str = "nominal") -> float:
        """Jitter of one divided output period (``jvco * sqrt(2 ratio)``)."""
        return jitter_sum(self.period_jitter(variant), divide_ratio)

    # -- reporting ------------------------------------------------------------------------------

    def describe(self) -> Dict[str, float]:
        """Flat summary of the block's nominal, minimum and maximum values."""
        summary: Dict[str, float] = {}
        for name, value in (
            ("kvco", self.kvco),
            ("ivco", self.ivco),
            ("jvco", self.jvco),
            ("fmin", self.fmin),
            ("fmax", self.fmax),
        ):
            bounds = self._bounds(name, value)
            summary[name] = bounds["nominal"]
            summary[f"{name}_min"] = bounds["min"]
            summary[f"{name}_max"] = bounds["max"]
        return summary


def bounds_lanes(
    vcos: Sequence["BehaviouralVco"], name: str
) -> Optional[Dict[str, np.ndarray]]:
    """Lane-array form of :meth:`BehaviouralVco._bounds` for one quantity.

    Returns the nominal / min / max arrays across all lanes in one table
    evaluation, or ``None`` when the lanes do not share one variation-table
    object (the caller then falls back to per-lane scalar calls).  The
    arithmetic mirrors the scalar ``_bounds`` exactly, so every entry is
    bit-identical to the per-lane evaluation.
    """
    if not vcos:
        return None
    variation = vcos[0].variation
    if any(vco.variation is not variation for vco in vcos):
        return None
    values = np.array([getattr(vco, name) for vco in vcos], dtype=float)
    try:
        spread = np.asarray(variation.spread(name, values), dtype=float)
    except Exception:
        # User-supplied tables may be scalar-only callables (e.g. a lambda
        # with a data-dependent branch); the caller falls back to the
        # per-lane scalar path, which is always valid.
        return None
    if spread.shape != values.shape:
        return None
    spread = np.maximum(spread, 0.0)
    delta = (spread / 100.0) * np.abs(values)
    return {
        "nominal": values,
        "min": np.maximum(values - delta, 0.0),
        "max": values + delta,
    }


def describe_lanes(vcos: Sequence["BehaviouralVco"]) -> List[Dict[str, float]]:
    """Per-lane :meth:`BehaviouralVco.describe` summaries, batched.

    When every lane shares one variation-table object the fifteen summary
    values per lane come from five array table calls; otherwise the scalar
    ``describe`` runs per lane.  Both paths return identical numbers.
    """
    vcos = list(vcos)
    names = ("kvco", "ivco", "jvco", "fmin", "fmax")
    all_bounds = {name: bounds_lanes(vcos, name) for name in names}
    if any(bounds is None for bounds in all_bounds.values()):
        return [vco.describe() for vco in vcos]
    summaries: List[Dict[str, float]] = []
    for index in range(len(vcos)):
        summary: Dict[str, float] = {}
        for name in names:
            bounds = all_bounds[name]
            summary[name] = float(bounds["nominal"][index])
            summary[f"{name}_min"] = float(bounds["min"][index])
            summary[f"{name}_max"] = float(bounds["max"][index])
        summaries.append(summary)
    return summaries


@dataclass(frozen=True)
class VcoLanes:
    """Lane-parallel view of N behavioural VCO blocks at fixed variants.

    The variant-derived constants (gain, tuning limits, period jitter,
    supply current) are resolved once per lane through the scalar block's
    own methods -- so they are bit-identical by construction -- and only
    the per-cycle tuning-curve evaluation runs as array math.  Each lane
    may use a different variant, which lets a batched transient advance
    the nominal, minimum and maximum populations in a single cycle loop.
    """

    gain: np.ndarray
    fmin: np.ndarray
    fmax: np.ndarray
    period_jitter: np.ndarray
    current: np.ndarray
    vctrl_min: np.ndarray
    vctrl_max: np.ndarray

    @classmethod
    def from_blocks(
        cls,
        vcos: Sequence[BehaviouralVco],
        variant: Union[str, Sequence[str]] = "nominal",
    ) -> "VcoLanes":
        """Stack N scalar VCO blocks, each at its (shared or per-lane) variant.

        Lanes sharing one variation-table object (the system-stage shape,
        where every candidate's tables come from the same combined model)
        resolve their variant constants through one array table call per
        quantity; otherwise each lane queries its own tables scalar-wise.
        Both paths yield bit-identical lane arrays.
        """
        vcos = list(vcos)
        if isinstance(variant, str):
            variants = [_check_variant(variant)] * len(vcos)
        else:
            variants = [_check_variant(v) for v in variant]
            if len(variants) != len(vcos):
                raise ValueError(
                    f"got {len(variants)} variant(s) for {len(vcos)} VCO lane(s)"
                )
        vctrl_min = np.array([vco.vctrl_min for vco in vcos], dtype=float)
        vctrl_max = np.array([vco.vctrl_max for vco in vcos], dtype=float)
        batched = {
            name: bounds_lanes(vcos, name)
            for name in ("kvco", "ivco", "jvco", "fmin", "fmax")
        }
        if all(bounds is not None for bounds in batched.values()):
            lane_index = np.arange(len(vcos))
            variant_index = np.array([VARIANTS.index(v) for v in variants])

            def select(name: str) -> np.ndarray:
                bounds = batched[name]
                stacked = np.stack([bounds[v] for v in VARIANTS])
                return stacked[variant_index, lane_index]

            return cls(
                gain=select("kvco"),
                fmin=select("fmin"),
                fmax=select("fmax"),
                period_jitter=select("jvco"),
                current=select("ivco"),
                vctrl_min=vctrl_min,
                vctrl_max=vctrl_max,
            )
        bounds = [vco.frequency_bounds(v) for vco, v in zip(vcos, variants)]
        return cls(
            gain=np.array([vco.gain(v) for vco, v in zip(vcos, variants)]),
            fmin=np.array([b["fmin"] for b in bounds]),
            fmax=np.array([b["fmax"] for b in bounds]),
            period_jitter=np.array(
                [vco.period_jitter(v) for vco, v in zip(vcos, variants)]
            ),
            current=np.array([vco.current(v) for vco, v in zip(vcos, variants)]),
            vctrl_min=vctrl_min,
            vctrl_max=vctrl_max,
        )

    @property
    def n_lanes(self) -> int:
        """Number of parallel lanes."""
        return self.gain.size

    def frequency(self, vctrl: np.ndarray) -> np.ndarray:
        """Per-lane oscillation frequency (clamped tuning curve).

        ``fmin + gain * (vctrl - vctrl_min)`` on the control voltage clamped
        into ``[vctrl_min, vctrl_max]``, then clamped into ``[fmin, fmax]``.

        Parameters
        ----------
        vctrl:
            Per-lane control voltages (V), shape ``(n_lanes,)``.

        Returns
        -------
        numpy.ndarray
            Oscillation frequency (Hz) per lane, clamped into each lane's
            ``[fmin, fmax]`` window.
        """
        vctrl_clamped = np.minimum(np.maximum(vctrl, self.vctrl_min), self.vctrl_max)
        return self.frequency_from_clamped(vctrl_clamped)

    def frequency_from_clamped(self, vctrl: np.ndarray) -> np.ndarray:
        """Tuning curve for control voltages already inside the lane bounds.

        Clamping is idempotent, so callers that have just clamped ``vctrl``
        (the batched cycle loop) skip the redundant re-clamp with an
        identical result.
        """
        frequency = self.fmin + self.gain * (vctrl - self.vctrl_min)
        return np.minimum(np.maximum(frequency, self.fmin), self.fmax)

    def output_edge_jitter(self, divide_ratios: np.ndarray) -> np.ndarray:
        """Per-lane jitter of one divided output period."""
        return jitter_sum_lanes(self.period_jitter, divide_ratios)


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant
