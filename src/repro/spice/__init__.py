"""A small SPICE-class circuit simulator.

This subpackage replaces the Cadence SpectreRF engine used by the paper
with a from-scratch modified-nodal-analysis (MNA) simulator that is good
enough to size and verify the 5-stage ring-oscillator VCO at transistor
level:

* :mod:`repro.spice.netlist` -- circuit and node data model,
* :mod:`repro.spice.elements` -- passive elements, independent and
  controlled sources, diode,
* :mod:`repro.spice.mosfet` -- a level-1/level-3-style MOSFET with body
  effect, channel-length modulation and Meyer-style capacitances,
* :mod:`repro.spice.plan` -- the stamp plan of the lane engine, which
  solves many same-topology circuits at once (one circuit is one lane):
  Newton-Raphson with gmin and source-stepping homotopies for the DC
  operating point,
* :mod:`repro.spice.transient` -- fixed/adaptive-step transient analysis
  with backward-Euler and trapezoidal integration, and
* :mod:`repro.spice.waveform` -- waveform measurement utilities (period,
  frequency, duty cycle, RMS, settling time).

There is one engine, :class:`LaneTransientAnalysis` over a
:class:`CircuitPlan`.  It is compact but genuinely solves the nonlinear
nodal equations, and it is used for bottom-up verification of results
obtained with the calibrated analytical evaluator in
:mod:`repro.circuits`.  Its test oracle, a per-element reference engine,
lives with the tests (``tests/spice/reference_engine.py``).
"""

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.spice.exceptions import (
    AnalysisError,
    ConvergenceError,
    NetlistError,
    SingularMatrixError,
)
from repro.spice.mosfet import MOSFET, MOSFETModel, NMOS_DEFAULT, PMOS_DEFAULT
from repro.spice.netlist import Circuit, GROUND
from repro.spice.plan import CircuitPlan, LaneSystem
from repro.spice.transient import LaneTransientAnalysis, TransientResult
from repro.spice.waveform import Waveform

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "MOSFET",
    "MOSFETModel",
    "NMOS_DEFAULT",
    "PMOS_DEFAULT",
    "TransientResult",
    "LaneTransientAnalysis",
    "CircuitPlan",
    "LaneSystem",
    "Waveform",
    "NetlistError",
    "ConvergenceError",
    "AnalysisError",
    "SingularMatrixError",
]
