"""Transistor-level VCO test bench.

The equivalent of the paper's SpectreRF test bench netlist: for a given
design point the VCO is simulated at the minimum and maximum control
voltages, the oscillation frequency and average supply current are measured
from the transient waveforms, and the VCO gain is the frequency difference
over the control-voltage span.  RMS period jitter is estimated from the
device thermal noise at the oscillation operating point (the engine does
not run transient noise analysis; the estimator is the standard
first-crossing approximation ``sigma_edge = sqrt(kT C_L) / I`` accumulated
over the ``2 N`` edges of one period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.performance import VcoPerformance
from repro.circuits.ring_vco import N_STAGES, VcoDesign, build_ring_vco
from repro.process.technology import TECH_012UM, Technology
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit
from repro.spice.transient import LaneTransientAnalysis, TransientResult

__all__ = ["VcoTestbench", "VcoMeasurement"]

#: One batch item for :meth:`VcoTestbench.run_batch`:
#: (design, technology or None, device overrides or None).
BatchTask = Tuple[VcoDesign, Optional[Technology], Optional[Dict[str, Dict[str, float]]]]

_BOLTZMANN = 1.380649e-23


@dataclass
class VcoMeasurement:
    """Raw measurements of one transient run at a fixed control voltage."""

    vctrl: float
    frequency: float
    supply_current: float
    oscillates: bool


class VcoTestbench:
    """Measure the five VCO performances with the MNA transient engine.

    Every measurement goes through :meth:`_transients`, which runs all
    transients of a call as one :class:`LaneTransientAnalysis`, so
    :meth:`run` and :meth:`measure_at` are one-task and one-circuit calls
    of the same path as :meth:`run_batch`.
    """

    #: Output node whose waveform is measured; topology subclasses override
    #: it together with :meth:`_build_circuit` (the netlist seam).
    measure_node = "n0"

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        vctrl_min: float = 0.5,
        vctrl_max: float | None = None,
        n_stages: int = N_STAGES,
        sim_cycles: float = 8.0,
        dt: float = 4e-12,
        max_sim_time: float = 30e-9,
    ) -> None:
        if vctrl_max is None:
            vctrl_max = technology.vdd
        if not 0.0 < vctrl_min < vctrl_max:
            raise ValueError("control-voltage window must satisfy 0 < vctrl_min < vctrl_max")
        self.technology = technology
        self.vctrl_min = vctrl_min
        self.vctrl_max = vctrl_max
        self.n_stages = n_stages
        self.sim_cycles = sim_cycles
        self.dt = dt
        self.max_sim_time = max_sim_time

    # -- shared transient set-up ------------------------------------------------------

    def _kick_conditions(self, vdd: float) -> Dict[str, float]:
        # Kick the ring with alternating initial conditions so oscillation
        # starts within a couple of stage delays.
        initial = {}
        for stage in range(self.n_stages):
            initial[f"n{stage}"] = vdd if stage % 2 == 0 else 0.0
        initial[f"n{self.n_stages - 1}"] = vdd / 2.0
        return initial

    def _t_stop(self) -> float:
        return min(self.max_sim_time, max(6e-9, self.sim_cycles * 2e-9))

    def _transients(
        self, circuits: Sequence[Circuit], initial_conditions: Sequence[Dict[str, float]]
    ) -> List[Optional[TransientResult]]:
        """Simulate the circuits as one lane batch; ``None`` marks a failure."""
        try:
            return LaneTransientAnalysis(
                circuits,
                t_stop=self._t_stop(),
                dt=self.dt,
                initial_conditions=initial_conditions,
                use_dc_start=False,
            ).run()
        except AnalysisError:
            return [None] * len(circuits)

    def _measure_result(
        self, result: Optional[TransientResult], vctrl: float, vdd: float
    ) -> VcoMeasurement:
        """Extract frequency and supply current from one transient result."""
        dead = VcoMeasurement(vctrl=vctrl, frequency=0.0, supply_current=0.0, oscillates=False)
        if result is None:
            return dead
        wave = result.voltage(self.measure_node)
        swing = wave.peak_to_peak()
        if swing < 0.3 * vdd:
            return dead
        try:
            frequency = wave.frequency(threshold=vdd / 2.0)
        except ValueError:
            return dead
        current = abs(result.source_current("vdd").average())
        return VcoMeasurement(
            vctrl=vctrl, frequency=frequency, supply_current=current, oscillates=True
        )

    # -- netlist seam ----------------------------------------------------------------

    def _build_circuit(
        self,
        design: VcoDesign,
        technology: Technology,
        vctrl: float,
        device_overrides: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> Circuit:
        """Netlist of one measurement -- the topology seam's override point."""
        return build_ring_vco(
            design,
            technology,
            vctrl=vctrl,
            n_stages=self.n_stages,
            device_overrides=device_overrides,
        )

    # -- single-point measurement ----------------------------------------------------

    def measure_at(
        self,
        design: VcoDesign,
        vctrl: float,
        device_overrides: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> VcoMeasurement:
        """Run one transient and measure frequency and supply current."""
        circuit = self._build_circuit(
            design, self.technology, vctrl, device_overrides=device_overrides
        )
        vdd = self.technology.vdd
        (result,) = self._transients([circuit], [self._kick_conditions(vdd)])
        return self._measure_result(result, vctrl, vdd)

    # -- jitter estimate ----------------------------------------------------------------

    def estimate_jitter(
        self,
        design: VcoDesign,
        frequency: float,
        supply_current: float,
        technology: Optional[Technology] = None,
    ) -> float:
        """Thermal-noise period jitter estimate at the measured operating point.

        Uses the first-crossing approximation: the voltage noise sampled on
        the stage load capacitance is ``sqrt(kT/C)``; divided by the slew
        rate ``I/C`` it gives a per-edge timing error ``sqrt(kT C)/I`` which
        accumulates over the ``2 N`` edges of one period.
        """
        tech = technology or self.technology
        if frequency <= 0.0 or supply_current <= 0.0:
            return float("inf")
        c_load = self._stage_capacitance(design, tech)
        stage_current = supply_current  # the starving current limits each edge
        noise_factor = 2.0  # accounts for the ~2/3 channel factor and both devices
        sigma_edge = (noise_factor * _BOLTZMANN * tech.temperature * c_load) ** 0.5
        sigma_edge /= max(stage_current / self.n_stages, 1e-9)
        return float((2.0 * self.n_stages) ** 0.5 * sigma_edge)

    def _stage_capacitance(
        self, design: VcoDesign, technology: Optional[Technology] = None
    ) -> float:
        tech = technology or self.technology
        nmos = tech.nmos
        pmos = tech.pmos
        gate_cap = (
            nmos.cox * design.nmos_width * design.nmos_length
            + pmos.cox * design.pmos_width * design.pmos_length
        )
        junction = nmos.cj * design.nmos_width * nmos.drain_extension
        junction += pmos.cj * design.pmos_width * pmos.drain_extension
        return gate_cap + junction + tech.stage_load_capacitance

    # -- full characterisation ------------------------------------------------------------

    def _combine(
        self,
        design: VcoDesign,
        low: VcoMeasurement,
        high: VcoMeasurement,
        technology: Optional[Technology] = None,
    ) -> VcoPerformance:
        """Turn the two control-voltage measurements into the performances."""
        if not high.oscillates:
            # Dead design point: return a heavily penalised performance.
            return VcoPerformance(kvco=0.0, jitter=1e-9, current=1.0, fmin=0.0, fmax=0.0)
        fmin = low.frequency if low.oscillates else 0.0
        fmax = high.frequency
        span = self.vctrl_max - self.vctrl_min
        kvco = max(fmax - fmin, 0.0) / span
        current = high.supply_current
        jitter = self.estimate_jitter(design, fmax, current, technology=technology)
        return VcoPerformance(kvco=kvco, jitter=jitter, current=current, fmin=fmin, fmax=fmax)

    def run(
        self,
        design: VcoDesign,
        device_overrides: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> VcoPerformance:
        """Measure the five performances of one design point."""
        return self.run_batch([(design, None, device_overrides)])[0]

    def run_batch(self, tasks: Sequence[BatchTask]) -> List[VcoPerformance]:
        """Measure many (design, technology, overrides) tasks in one go.

        Every task contributes two transients (one per control voltage) to
        one :meth:`_transients` call, so the whole batch advances through
        one time-marching loop with a batched Jacobian.  All tasks must
        share the ring topology (they do by construction: designs,
        technologies and mismatch overrides only change parameter values).
        """
        prepared = [
            (design, technology or self.technology, overrides)
            for design, technology, overrides in tasks
        ]
        circuits = []
        initial_conditions = []
        for design, tech, overrides in prepared:
            for vctrl in (self.vctrl_min, self.vctrl_max):
                circuits.append(
                    self._build_circuit(design, tech, vctrl, device_overrides=overrides)
                )
                initial_conditions.append(self._kick_conditions(tech.vdd))
        results = self._transients(circuits, initial_conditions)
        performances = []
        for index, (design, tech, overrides) in enumerate(prepared):
            low = self._measure_result(results[2 * index], self.vctrl_min, tech.vdd)
            high = self._measure_result(results[2 * index + 1], self.vctrl_max, tech.vdd)
            performances.append(self._combine(design, low, high, technology=tech))
        return performances
