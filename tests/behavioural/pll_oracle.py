"""Independent scalar oracle of the behavioural PLL cycle loop.

The behavioural PLL has one kernel, the lane engine of
:meth:`repro.behavioural.pll.BehaviouralPll.simulate_batch`.  Comparing
that kernel with itself proves nothing, so the bitwise tests compare it
with this helper: the same reference-cycle loop and block rules written
one loop at a time with plain float arithmetic, reading only the
parameters of the scalar blocks.  Every expression keeps the kernel's
operation order, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.behavioural.charge_pump import ChargePump
from repro.behavioural.loop_filter import LoopFilter
from repro.behavioural.pfd import PhaseFrequencyDetector
from repro.behavioural.pll import BehaviouralPll, PllPerformance, PllTransient
from repro.behavioural.vco import VARIANTS, BehaviouralVco


@dataclass(frozen=True)
class PhaseError:
    """Result of one phase comparison."""

    timing_error: float
    up_width: float
    down_width: float


def pfd_compare(
    pfd: PhaseFrequencyDetector, reference_edge: float, feedback_edge: float
) -> PhaseError:
    """Tri-state comparison of one pair of edges."""
    error = feedback_edge - reference_edge
    magnitude = abs(error)
    if magnitude <= pfd.dead_zone:
        effective = 0.0
    else:
        effective = magnitude - pfd.dead_zone
    effective = min(effective, pfd.max_pulse)
    up = pfd.reset_pulse
    down = pfd.reset_pulse
    if error > 0.0:
        up += effective
    elif error < 0.0:
        down += effective
    return PhaseError(timing_error=error, up_width=up, down_width=down)


def pump_charge(pump: ChargePump, error: PhaseError, comparison_period: float) -> float:
    """Net charge (C) delivered to the loop filter in one comparison cycle."""
    delivered = pump.up_current * error.up_width
    delivered -= pump.down_current * error.down_width
    delivered -= pump.leakage * comparison_period
    return delivered


def filter_relaxation(loop_filter: LoopFilter, interval: float) -> float:
    """``exp(-interval / (R1 (C1 || C2)))``, or 0 without a ripple capacitor."""
    if loop_filter.c2 <= 0.0:
        return 0.0
    c1, c2 = loop_filter.c1, loop_filter.c2
    tau = loop_filter.r1 * (c1 * c2 / (c1 + c2))
    return math.exp(-interval / tau) if tau > 0.0 else 0.0


def filter_apply_charge(
    loop_filter: LoopFilter,
    state: Tuple[float, float],
    charge: float,
    interval: float,
) -> Tuple[float, float]:
    """Advance the ``(v_c1, v_c2)`` state by one comparison interval."""
    v_c1, v_c2 = state
    c1, c2 = loop_filter.c1, loop_filter.c2
    if c2 <= 0.0:
        return v_c1 + charge / c1, v_c2
    v_c2 += charge / c2
    settled_difference = (v_c2 - v_c1) * filter_relaxation(loop_filter, interval)
    total_charge = c1 * v_c1 + c2 * v_c2
    v_c2 = (total_charge + c1 * settled_difference) / (c1 + c2)
    return v_c2 - settled_difference, v_c2


def filter_output(loop_filter: LoopFilter, state: Tuple[float, float]) -> float:
    """Control voltage: C2's voltage, or C1's without a ripple capacitor."""
    return state[1] if loop_filter.c2 > 0.0 else state[0]


def vco_frequency(vco: BehaviouralVco, vctrl: float, variant: str = "nominal") -> float:
    """Clamped tuning curve of one VCO variant."""
    bounds = vco.frequency_bounds(variant)
    fmin, fmax = bounds["fmin"], bounds["fmax"]
    vctrl = min(max(vctrl, vco.vctrl_min), vco.vctrl_max)
    frequency = fmin + vco.gain(variant) * (vctrl - vco.vctrl_min)
    return min(max(frequency, fmin), fmax)


def simulate(
    pll: BehaviouralPll,
    variant: str = "nominal",
    max_time: float = 3e-6,
    seed: Optional[int] = None,
    initial_control_voltage: Optional[float] = None,
) -> PllTransient:
    """Run one loop cycle by cycle until ``max_time``."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    rng = np.random.default_rng(seed) if seed is not None else None
    vco, loop_filter = pll.vco, pll.design.loop_filter()
    t_ref = 1.0 / pll.design.reference_frequency
    vctrl0 = vco.vctrl_min if initial_control_voltage is None else initial_control_voltage
    state = (vctrl0, vctrl0)
    ratio = pll.divider.ratio
    sigma = vco.period_jitter(variant) * np.sqrt(ratio) if rng is not None else 0.0
    n_cycles = max(int(np.ceil(max_time / t_ref)), 2)
    times = np.empty(n_cycles)
    vctrls = np.empty(n_cycles)
    frequencies = np.empty(n_cycles)
    errors = np.empty(n_cycles)
    fb_edge = 0.0
    for cycle in range(n_cycles):
        ref_edge = cycle * t_ref
        error = pfd_compare(pll.pfd, ref_edge, fb_edge)
        charge = pump_charge(pll.charge_pump, error, t_ref)
        state = filter_apply_charge(loop_filter, state, charge, t_ref)
        vctrl = min(max(filter_output(loop_filter, state), vco.vctrl_min), vco.vctrl_max)
        frequency = vco_frequency(vco, vctrl, variant)
        # A stalled VCO (fmin floored at 0) never produces an edge.
        vco_period = 1.0 / frequency if frequency != 0.0 else math.copysign(math.inf, frequency)
        fb_period = ratio * vco_period
        if rng is not None:
            fb_period += float(rng.normal(0.0, sigma))
        fb_edge = max(fb_edge, ref_edge) + fb_period
        times[cycle] = ref_edge + t_ref
        vctrls[cycle] = vctrl
        frequencies[cycle] = frequency
        errors[cycle] = error.timing_error
    return PllTransient(
        time=times, control_voltage=vctrls, frequency=frequencies, phase_error=errors
    )


def lock_time(pll: BehaviouralPll, transient: PllTransient) -> float:
    """Time after which the output frequency stays within tolerance."""
    target = pll.design.target_frequency
    outside = np.abs(transient.frequency - target) > pll.lock_tolerance * target
    if not np.any(outside):
        return float(transient.time[0])
    if outside[-1]:
        return float("inf")
    return float(transient.time[int(np.max(np.flatnonzero(outside))) + 1])


def evaluate(
    pll: BehaviouralPll,
    variant: str = "nominal",
    max_time: float = 3e-6,
    seed: Optional[int] = None,
) -> PllPerformance:
    """System performances of one variant."""
    transient = simulate(pll, variant=variant, max_time=max_time, seed=seed)
    lock = lock_time(pll, transient)
    return PllPerformance(
        lock_time=lock,
        jitter=pll.vco.output_edge_jitter(pll.divider.ratio, variant),
        current=pll.vco.current(variant) + pll.design.peripheral_current,
        locked=bool(np.isfinite(lock)),
        final_frequency=float(transient.frequency[-1]),
    )


def evaluate_all_variants(
    pll: BehaviouralPll, max_time: float = 3e-6, seed: Optional[int] = None
) -> Dict[str, PllPerformance]:
    """Nominal, minimum and maximum system performances."""
    return {
        variant: evaluate(pll, variant=variant, max_time=max_time, seed=seed)
        for variant in VARIANTS
    }
