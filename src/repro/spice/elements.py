"""The capacitor and the constant voltage source.

Elements only hold their parameters; :class:`repro.spice.plan.CircuitPlan`
compiles them into the lane engine's stamp arrays.  With the MOSFET of
:mod:`repro.spice.mosfet` these are every element the VCO netlists build.
"""

from __future__ import annotations

from repro.spice.exceptions import NetlistError
from repro.spice.netlist import Element

__all__ = ["Capacitor", "VoltageSource"]


class Capacitor(Element):
    """Linear capacitor between two nodes.

    Open circuit in DC; in transient analysis it is replaced by its
    backward-Euler or trapezoidal companion model.
    """

    def __init__(self, name: str, node_pos: str, node_neg: str, capacitance: float) -> None:
        super().__init__(name, (node_pos, node_neg))
        if capacitance < 0.0:
            raise NetlistError(f"capacitor {name!r} must have a non-negative capacitance")
        self.capacitance = float(capacitance)


class VoltageSource(Element):
    """Independent constant voltage source."""

    n_branches = 1

    def __init__(self, name: str, node_pos: str, node_neg: str, value: float) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.value = float(value)
