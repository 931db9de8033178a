"""Linear elements, sources and the junction diode.

Elements only hold their parameters; :class:`repro.spice.plan.CircuitPlan`
compiles them into the lane engine's stamp arrays.  Independent sources
accept either a constant value or a :class:`SourceWaveform` (DC, pulse,
sine, piece-wise linear) so the same element types serve DC and transient
test benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.spice.exceptions import NetlistError
from repro.spice.netlist import Element

__all__ = [
    "SourceWaveform",
    "DCWaveform",
    "PulseWaveform",
    "SineWaveform",
    "PWLWaveform",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
]


# ---------------------------------------------------------------------------
# Source waveforms
# ---------------------------------------------------------------------------


class SourceWaveform:
    """Time-dependent value of an independent source."""

    def value(self, time: float) -> float:
        """Source value at ``time`` (seconds)."""
        raise NotImplementedError

    @property
    def dc(self) -> float:
        """Value used for DC operating-point analysis."""
        return self.value(0.0)


@dataclass
class DCWaveform(SourceWaveform):
    """A constant source value."""

    level: float = 0.0

    def value(self, time: float) -> float:
        return float(self.level)


@dataclass
class PulseWaveform(SourceWaveform):
    """SPICE ``PULSE(v1 v2 td tr tf pw per)`` waveform."""

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float = 2e-9

    def value(self, time: float) -> float:
        if time < self.delay:
            return float(self.v1)
        t = (time - self.delay) % self.period
        rise = max(self.rise, 1e-15)
        fall = max(self.fall, 1e-15)
        if t < rise:
            return float(self.v1 + (self.v2 - self.v1) * t / rise)
        if t < rise + self.width:
            return float(self.v2)
        if t < rise + self.width + fall:
            return float(self.v2 + (self.v1 - self.v2) * (t - rise - self.width) / fall)
        return float(self.v1)

    @property
    def dc(self) -> float:
        return float(self.v1)


@dataclass
class SineWaveform(SourceWaveform):
    """SPICE ``SIN(vo va freq td theta)`` waveform."""

    offset: float
    amplitude: float
    frequency: float
    delay: float = 0.0
    damping: float = 0.0

    def value(self, time: float) -> float:
        if time < self.delay:
            return float(self.offset)
        t = time - self.delay
        envelope = math.exp(-self.damping * t)
        return float(
            self.offset + self.amplitude * envelope * math.sin(2.0 * math.pi * self.frequency * t)
        )

    @property
    def dc(self) -> float:
        return float(self.offset)


class PWLWaveform(SourceWaveform):
    """Piece-wise linear waveform defined by ``(time, value)`` pairs."""

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if not points:
            raise NetlistError("a PWL waveform needs at least one point")
        ordered = sorted((float(t), float(v)) for t, v in points)
        times = [t for t, _ in ordered]
        if len(set(times)) != len(times):
            raise NetlistError("PWL time points must be distinct")
        self.points = ordered

    def value(self, time: float) -> float:
        points = self.points
        if time <= points[0][0]:
            return points[0][1]
        if time >= points[-1][0]:
            return points[-1][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t0 <= time <= t1:
                if t1 == t0:
                    return v1
                frac = (time - t0) / (t1 - t0)
                return v0 + frac * (v1 - v0)
        return points[-1][1]

    @property
    def dc(self) -> float:
        return self.points[0][1]


def _as_waveform(value) -> SourceWaveform:
    if isinstance(value, SourceWaveform):
        return value
    return DCWaveform(float(value))


# ---------------------------------------------------------------------------
# Two-terminal passives
# ---------------------------------------------------------------------------


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, node_pos: str, node_neg: str, resistance: float) -> None:
        super().__init__(name, (node_pos, node_neg))
        if resistance <= 0.0:
            raise NetlistError(f"resistor {name!r} must have a positive resistance")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        """Conductance ``1/R``."""
        return 1.0 / self.resistance


class Capacitor(Element):
    """Linear capacitor between two nodes.

    Open circuit in DC; in transient analysis it is replaced by its
    backward-Euler or trapezoidal companion model.
    """

    def __init__(
        self, name: str, node_pos: str, node_neg: str, capacitance: float, ic: float | None = None
    ) -> None:
        super().__init__(name, (node_pos, node_neg))
        if capacitance < 0.0:
            raise NetlistError(f"capacitor {name!r} must have a non-negative capacitance")
        self.capacitance = float(capacitance)
        self.initial_voltage = ic


class Inductor(Element):
    """Linear inductor; short circuit in DC, companion model in transient."""

    n_branches = 1

    def __init__(
        self, name: str, node_pos: str, node_neg: str, inductance: float, ic: float | None = None
    ) -> None:
        super().__init__(name, (node_pos, node_neg))
        if inductance <= 0.0:
            raise NetlistError(f"inductor {name!r} must have a positive inductance")
        self.inductance = float(inductance)
        self.initial_current = ic


# ---------------------------------------------------------------------------
# Independent sources
# ---------------------------------------------------------------------------


class VoltageSource(Element):
    """Independent voltage source (DC value or waveform)."""

    n_branches = 1

    def __init__(
        self,
        name: str,
        node_pos: str,
        node_neg: str,
        value,
    ) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.waveform = _as_waveform(value)


class CurrentSource(Element):
    """Independent current source; current flows from node+ through the
    source to node- (i.e. it is pushed into the node- side network)."""

    def __init__(self, name: str, node_pos: str, node_neg: str, value) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.waveform = _as_waveform(value)


# ---------------------------------------------------------------------------
# Controlled sources
# ---------------------------------------------------------------------------


class VCVS(Element):
    """Voltage-controlled voltage source ``E``: v(out) = gain * v(ctrl)."""

    n_branches = 1

    def __init__(
        self,
        name: str,
        out_pos: str,
        out_neg: str,
        ctrl_pos: str,
        ctrl_neg: str,
        gain: float,
    ) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gain = float(gain)


class VCCS(Element):
    """Voltage-controlled current source ``G``: i(out) = gm * v(ctrl)."""

    def __init__(
        self,
        name: str,
        out_pos: str,
        out_neg: str,
        ctrl_pos: str,
        ctrl_neg: str,
        transconductance: float,
    ) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.transconductance = float(transconductance)


# ---------------------------------------------------------------------------
# Junction diode
# ---------------------------------------------------------------------------


class Diode(Element):
    """Junction diode with exponential I-V characteristic and voltage limiting."""

    def __init__(
        self,
        name: str,
        anode: str,
        cathode: str,
        saturation_current: float = 1e-14,
        emission_coefficient: float = 1.0,
        temperature: float = 300.15,
    ) -> None:
        super().__init__(name, (anode, cathode))
        if saturation_current <= 0.0:
            raise NetlistError(f"diode {name!r} must have a positive saturation current")
        self.saturation_current = float(saturation_current)
        self.emission_coefficient = float(emission_coefficient)
        self.temperature = float(temperature)

    @property
    def thermal_voltage(self) -> float:
        """``kT/q`` at the configured temperature."""
        return 1.380649e-23 * self.temperature / 1.602176634e-19
