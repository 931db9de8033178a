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
* :mod:`repro.spice.dc` -- Newton-Raphson DC operating point with gmin and
  source stepping homotopies,
* :mod:`repro.spice.transient` -- fixed/adaptive-step transient analysis
  with backward-Euler and trapezoidal integration,
* :mod:`repro.spice.plan` -- the stamp plan of the lane engine, which
  solves many same-topology circuits at once (one circuit is one lane),
* :mod:`repro.spice.parser` -- a SPICE-like netlist text parser, and
* :mod:`repro.spice.waveform` -- waveform measurement utilities (period,
  frequency, duty cycle, RMS, settling time).

There are two engines, named in :data:`ENGINES`: ``reference``
(:class:`TransientAnalysis` and :class:`DCOperatingPoint`, per-element
Python stamping, the test oracle) and ``lanes``
(:class:`LaneTransientAnalysis` over a :class:`CircuitPlan`).  Both are
compact but genuinely solve the nonlinear nodal equations; they are used
for bottom-up verification of results obtained with the calibrated
analytical evaluator in :mod:`repro.circuits`.
"""

from repro.spice.dc import DCOperatingPoint, DCResult, dc_operating_point
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
from repro.spice.parser import parse_netlist
from repro.spice.plan import CircuitPlan, ENGINES, LaneSystem
from repro.spice.transient import LaneTransientAnalysis, TransientAnalysis, TransientResult
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
    "dc_operating_point",
    "DCOperatingPoint",
    "DCResult",
    "TransientAnalysis",
    "TransientResult",
    "LaneTransientAnalysis",
    "CircuitPlan",
    "LaneSystem",
    "ENGINES",
    "Waveform",
    "parse_netlist",
    "NetlistError",
    "ConvergenceError",
    "AnalysisError",
    "SingularMatrixError",
]
