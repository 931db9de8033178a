"""Independent scalar oracle of the analytical VCO model.

The analytical evaluators have one kernel, the numpy batch evaluation.
Comparing that kernel with itself proves nothing, so the bitwise tests
compare it with this helper: the same first-order model written one
device at a time on :class:`repro.spice.mosfet.MOSFET`, with plain float
arithmetic.  Every expression keeps the kernel's operation order, so the
two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.circuits.evaluators import RingVcoAnalyticalEvaluator
from repro.circuits.performance import VcoPerformance
from repro.circuits.pseudodiff import PseudoDiffAnalyticalEvaluator, _keeper_capacitance
from repro.process.mismatch import MismatchSample
from repro.process.technology import Technology
from repro.spice.mosfet import MOSFET

_BOLTZMANN = 1.380649e-23


@dataclass
class _StageBias:
    """Starving current and effective load of one inverter stage."""

    current: float
    load_capacitance: float


class ScalarAnalyticalOracle:
    """Scalar evaluation of an analytical evaluator's model and settings."""

    def __init__(self, evaluator: RingVcoAnalyticalEvaluator) -> None:
        self.evaluator = evaluator
        self.n_stages = evaluator.n_stages
        self.vctrl_min = evaluator.vctrl_min
        self.vctrl_max = evaluator.vctrl_max
        self.frequency_scale = evaluator.frequency_scale
        self.current_scale = evaluator.current_scale
        self.jitter_scale = evaluator.jitter_scale

    def _device(self, name, polarity, width, length, technology, mismatch) -> MOSFET:
        model = technology.model(polarity)
        if mismatch is not None:
            deltas = mismatch.for_device(name)
            if deltas:
                updates = {}
                if "vth0" in deltas:
                    updates["vth0"] = model.vth0 + deltas["vth0"]
                if "u0_rel" in deltas:
                    updates["u0"] = model.u0 * (1.0 + deltas["u0_rel"])
                model = model.with_variation(**updates)
        return MOSFET(name, "d", "g", "s", "b", model, width, length)

    def _stage_bias(self, stage, design, vctrl, technology, mismatch) -> _StageBias:
        vdd = technology.vdd
        half = vdd / 2.0
        tail_n = self._device(
            f"mtn{stage}", "nmos", design.tail_nmos_width, design.tail_length, technology, mismatch
        )
        i_tail_n = tail_n.drain_current(half, vctrl, 0.0, 0.0)
        tail_p = self._device(
            f"mtp{stage}", "pmos", design.tail_pmos_width, design.tail_length, technology, mismatch
        )
        i_tail_p = abs(tail_p.drain_current(half, half - vdd + half, vdd, vdd))
        inv_n = self._device(
            f"mn{stage}", "nmos", design.nmos_width, design.nmos_length, technology, mismatch
        )
        i_inv_n = inv_n.drain_current(half, vdd, 0.0, 0.0)
        inv_p = self._device(
            f"mp{stage}", "pmos", design.pmos_width, design.pmos_length, technology, mismatch
        )
        i_inv_p = abs(inv_p.drain_current(half, 0.0 - 0.0, vdd, vdd))
        pull_down = min(i_tail_n, i_inv_n)
        pull_up = min(max(i_tail_p, 0.3 * i_tail_n), i_inv_p)
        current = 0.5 * (pull_down + pull_up)
        return _StageBias(
            current=max(current, 1e-9),
            load_capacitance=self._stage_capacitance(design, technology),
        )

    def _stage_capacitance(self, design, technology: Technology) -> float:
        nmos = technology.nmos
        pmos = technology.pmos
        gate = nmos.cox * design.nmos_width * design.nmos_length
        gate += pmos.cox * design.pmos_width * design.pmos_length
        overlap = nmos.cgso * design.nmos_width + pmos.cgso * design.pmos_width
        junction = nmos.cj * design.nmos_width * nmos.drain_extension
        junction += pmos.cj * design.pmos_width * pmos.drain_extension
        junction += nmos.cj * design.tail_nmos_width * nmos.drain_extension * 0.5
        junction += pmos.cj * design.tail_pmos_width * pmos.drain_extension * 0.5
        base = gate + overlap + junction + technology.stage_load_capacitance
        if isinstance(self.evaluator, PseudoDiffAnalyticalEvaluator):
            return base + _keeper_capacitance(design, technology)
        return base

    def _frequency(self, design, vctrl, technology, mismatch) -> float:
        delays = []
        for stage in range(self.n_stages):
            bias = self._stage_bias(stage, design, vctrl, technology, mismatch)
            delays.append(bias.load_capacitance * (technology.vdd / 2.0) / bias.current)
        period = 2.0 * sum(delays)
        if period <= 0.0:
            return 0.0
        return self.frequency_scale / period

    def _supply_current(self, design, vctrl, frequency, technology, mismatch) -> float:
        biases = [
            self._stage_bias(stage, design, vctrl, technology, mismatch)
            for stage in range(self.n_stages)
        ]
        mean_current = sum(b.current for b in biases) / len(biases)
        c_total = sum(b.load_capacitance for b in biases)
        dynamic = c_total * technology.vdd * frequency
        crowbar = 0.8 * mean_current
        bias_branch = mean_current
        return self.current_scale * (dynamic + crowbar + bias_branch)

    def _jitter(self, design, vctrl, technology, mismatch) -> float:
        biases = [
            self._stage_bias(stage, design, vctrl, technology, mismatch)
            for stage in range(self.n_stages)
        ]
        kT = _BOLTZMANN * technology.temperature
        sigma_edges = []
        delays = []
        for bias in biases:
            sigma_v = math.sqrt(2.0 * kT / bias.load_capacitance)
            slope = bias.current / bias.load_capacitance
            sigma_edges.append(sigma_v / slope)
            delays.append(bias.load_capacitance * (technology.vdd / 2.0) / bias.current)
        thermal = math.sqrt(2.0 * sum(s * s for s in sigma_edges))
        # Squares are products: a float ``** 2`` goes through libm ``pow``,
        # which is not always correctly rounded, whereas numpy's ``** 2`` is
        # one correctly rounded multiply.
        mean_delay = sum(delays) / len(delays)
        if len(delays) > 1:
            variance = sum((d - mean_delay) * (d - mean_delay) for d in delays) / (
                len(delays) - 1
            )
            deterministic = math.sqrt(variance)
        else:
            deterministic = 0.0
        return self.jitter_scale * math.sqrt(thermal * thermal + deterministic * deterministic)

    def evaluate(
        self,
        design,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """The five performances of one design point, one device at a time."""
        tech = technology or self.evaluator.technology
        design = design.clamped(tech)
        fmin = self._frequency(design, self.vctrl_min, tech, mismatch)
        fmax = self._frequency(design, self.vctrl_max, tech, mismatch)
        span = self.vctrl_max - self.vctrl_min
        kvco = max(fmax - fmin, 0.0) / span
        current = self._supply_current(design, self.vctrl_max, fmax, tech, mismatch)
        jitter = self._jitter(design, self.vctrl_max, tech, mismatch)
        return self.evaluator._finalise_performance(
            VcoPerformance(kvco=kvco, jitter=jitter, current=current, fmin=fmin, fmax=fmax)
        )
