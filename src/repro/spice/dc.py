"""DC operating-point analysis.

A plain damped Newton solve is attempted first; if it fails to converge the
two classic homotopies are applied in sequence:

* **gmin stepping** -- a large conductance from every node to ground is
  stepped down decade by decade, re-using the previous solution as the
  starting point;
* **source stepping** -- all independent sources are ramped from zero to
  their full value.

The result object provides node voltages by name, branch currents and the
total current drawn from every voltage source, which is how the test
benches measure supply current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.spice.elements import VoltageSource
from repro.spice.exceptions import ConvergenceError
from repro.spice.mna import NewtonOptions, NewtonSolver
from repro.spice.mosfet import MOSFET, OperatingPoint
from repro.spice.netlist import Circuit, GROUND

__all__ = ["DCResult", "DCOperatingPoint", "dc_operating_point"]


@dataclass
class DCResult:
    """Solved DC operating point of a circuit."""

    circuit: Circuit
    x: np.ndarray
    iterations: int

    def voltage(self, node: str) -> float:
        """Node voltage (0.0 for ground)."""
        if node == GROUND:
            return 0.0
        index = self.circuit.node_index()[node]
        return float(self.x[index])

    @property
    def voltages(self) -> Dict[str, float]:
        """All node voltages keyed by node name."""
        return {node: self.voltage(node) for node in self.circuit.nodes}

    def branch_current(self, element_name: str) -> float:
        """Branch current of a voltage source / inductor / VCVS."""
        index = self.circuit.branch_index()[element_name]
        return float(self.x[index])

    def source_current(self, source_name: str) -> float:
        """Current delivered by a voltage source (positive = sourcing)."""
        # The branch current is defined as flowing from node+ through the
        # source to node-, so the current delivered to the circuit is its
        # negative.
        return -self.branch_current(source_name)

    def supply_current(self) -> float:
        """Total current drawn from all DC voltage sources (absolute sum)."""
        total = 0.0
        for source in self.circuit.elements_of_type(VoltageSource):
            total += abs(self.branch_current(source.name))
        return total

    def device_operating_point(self, device_name: str) -> OperatingPoint:
        """Small-signal operating point of a named MOSFET."""
        device = self.circuit.element(device_name)
        if not isinstance(device, MOSFET):
            raise TypeError(f"{device_name!r} is not a MOSFET")
        vd, vg, vs, vb = (self.voltage(n) for n in device.nodes)
        return device.operating_point(vd, vg, vs, vb)


class DCOperatingPoint:
    """DC operating-point analysis with gmin and source stepping homotopies.

    This is the per-element reference engine; the lane engine's DC solve
    is :func:`repro.spice.plan.lane_dc_solve`.
    """

    def __init__(
        self,
        circuit: Circuit,
        options: NewtonOptions | None = None,
        gmin_steps: int = 8,
        source_steps: int = 10,
    ) -> None:
        self.circuit = circuit
        self.options = options or NewtonOptions()
        self.gmin_steps = gmin_steps
        self.source_steps = source_steps

    def run(self, x0: Optional[np.ndarray] = None) -> DCResult:
        """Solve for the DC operating point."""
        solver = NewtonSolver(self.circuit, self.options)
        try:
            result = solver.solve(x0, analysis="dc")
            return DCResult(self.circuit, result.x, result.iterations)
        except ConvergenceError:
            pass
        # gmin stepping: start with a heavy shunt conductance and relax it.
        x = np.zeros(self.circuit.n_unknowns) if x0 is None else np.array(x0, dtype=float)
        iterations = 0
        try:
            gmin_values = np.logspace(-3, np.log10(self.options.gmin), self.gmin_steps)
            for gmin in gmin_values:
                result = solver.solve(x, analysis="dc", gmin=float(gmin))
                x = result.x
                iterations += result.iterations
            result = solver.solve(x, analysis="dc")
            return DCResult(self.circuit, result.x, iterations + result.iterations)
        except ConvergenceError:
            pass
        # Source stepping: ramp all independent sources from zero.
        x = np.zeros(self.circuit.n_unknowns)
        iterations = 0
        scales = np.linspace(0.1, 1.0, self.source_steps)
        for scale in scales:
            result = solver.solve(x, analysis="dc", source_scale=float(scale))
            x = result.x
            iterations += result.iterations
        return DCResult(self.circuit, x, iterations)


def dc_operating_point(circuit: Circuit, options: NewtonOptions | None = None) -> DCResult:
    """Convenience wrapper: run a DC operating-point analysis."""
    return DCOperatingPoint(circuit, options).run()
