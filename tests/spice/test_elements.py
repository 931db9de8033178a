"""Tests for the linear elements, sources and waveforms via DC/transient runs.

The runs are one-lane lane-engine analyses (:mod:`tests.spice.one_lane`).
"""

import numpy as np
import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.spice.elements import DCWaveform, PWLWaveform, PulseWaveform, SineWaveform
from repro.spice.exceptions import NetlistError

from tests.spice.one_lane import dc_operating_point, transient


# -- waveforms -----------------------------------------------------------------------


def test_dc_waveform():
    wave = DCWaveform(2.5)
    assert wave.value(0.0) == 2.5
    assert wave.value(1e-3) == 2.5
    assert wave.dc == 2.5


def test_pulse_waveform_levels_and_edges():
    wave = PulseWaveform(v1=0.0, v2=1.0, delay=1e-9, rise=1e-9, fall=1e-9, width=3e-9, period=10e-9)
    assert wave.value(0.0) == 0.0
    assert wave.value(1.5e-9) == pytest.approx(0.5)
    assert wave.value(3e-9) == 1.0
    assert wave.value(5.5e-9) == pytest.approx(0.5)
    assert wave.value(8e-9) == 0.0
    # Periodicity
    assert wave.value(13e-9) == pytest.approx(wave.value(3e-9))
    assert wave.dc == 0.0


def test_sine_waveform():
    wave = SineWaveform(offset=1.0, amplitude=0.5, frequency=1e6)
    assert wave.value(0.0) == pytest.approx(1.0)
    assert wave.value(0.25e-6) == pytest.approx(1.5)
    assert wave.dc == 1.0


def test_sine_waveform_delay_and_damping():
    wave = SineWaveform(offset=0.0, amplitude=1.0, frequency=1e6, delay=1e-6, damping=1e6)
    assert wave.value(0.5e-6) == 0.0
    undamped = SineWaveform(offset=0.0, amplitude=1.0, frequency=1e6)
    assert abs(wave.value(1.25e-6)) < abs(undamped.value(0.25e-6))


def test_pwl_waveform_interpolation_and_clamping():
    wave = PWLWaveform([(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)])
    assert wave.value(-1.0) == 0.0
    assert wave.value(0.5e-9) == pytest.approx(0.5)
    assert wave.value(1.5e-9) == pytest.approx(0.75)
    assert wave.value(5e-9) == 0.5
    assert wave.dc == 0.0


def test_pwl_waveform_validation():
    with pytest.raises(NetlistError):
        PWLWaveform([])
    with pytest.raises(NetlistError):
        PWLWaveform([(0.0, 1.0), (0.0, 2.0)])


# -- element validation -----------------------------------------------------------------


def test_resistor_requires_positive_resistance():
    with pytest.raises(NetlistError):
        Resistor("r1", "a", "b", 0.0)
    with pytest.raises(NetlistError):
        Resistor("r1", "a", "b", -1.0)


def test_capacitor_rejects_negative_value():
    with pytest.raises(NetlistError):
        Capacitor("c1", "a", "b", -1e-12)


def test_inductor_requires_positive_value():
    with pytest.raises(NetlistError):
        Inductor("l1", "a", "b", 0.0)


def test_diode_requires_positive_saturation_current():
    with pytest.raises(NetlistError):
        Diode("d1", "a", "b", saturation_current=0.0)


# -- DC behaviour --------------------------------------------------------------------------


def test_resistive_divider():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.2))
    circuit.add(Resistor("r1", "in", "out", 2e3))
    circuit.add(Resistor("r2", "out", "0", 1e3))
    result = dc_operating_point(circuit)
    assert result.voltage("out") == pytest.approx(0.4, rel=1e-6)
    assert result.voltage("in") == pytest.approx(1.2, rel=1e-9)
    # Source current = 1.2 V / 3 kOhm (positive = the source delivers current).
    assert result.source_current("v1") == pytest.approx(1.2 / 3e3, rel=1e-6)
    assert result.supply_current() == pytest.approx(1.2 / 3e3, rel=1e-6)


def test_current_source_into_resistor():
    circuit = Circuit()
    circuit.add(CurrentSource("i1", "0", "out", 1e-3))
    circuit.add(Resistor("r1", "out", "0", 1e3))
    result = dc_operating_point(circuit)
    assert abs(result.voltage("out")) == pytest.approx(1.0, rel=1e-6)


def test_capacitor_is_open_in_dc():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-12))
    circuit.add(Resistor("rload", "out", "0", 1e6))
    result = dc_operating_point(circuit)
    assert result.voltage("out") == pytest.approx(1.0 * 1e6 / (1e6 + 1e3), rel=1e-4)


def test_inductor_is_short_in_dc():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "mid", 1e3))
    circuit.add(Inductor("l1", "mid", "out", 1e-9))
    circuit.add(Resistor("r2", "out", "0", 1e3))
    result = dc_operating_point(circuit)
    assert result.voltage("mid") == pytest.approx(result.voltage("out"), abs=1e-9)
    assert result.voltage("out") == pytest.approx(0.5, rel=1e-6)


def test_vcvs_gain():
    circuit = Circuit()
    circuit.add(VoltageSource("vin", "in", "0", 0.1))
    circuit.add(Resistor("rin", "in", "0", 1e6))
    circuit.add(VCVS("e1", "out", "0", "in", "0", 10.0))
    circuit.add(Resistor("rload", "out", "0", 1e3))
    result = dc_operating_point(circuit)
    assert result.voltage("out") == pytest.approx(1.0, rel=1e-6)


def test_vccs_transconductance():
    circuit = Circuit()
    circuit.add(VoltageSource("vin", "in", "0", 0.5))
    circuit.add(Resistor("rin", "in", "0", 1e6))
    circuit.add(VCCS("g1", "out", "0", "in", "0", 1e-3))
    circuit.add(Resistor("rload", "out", "0", 2e3))
    result = dc_operating_point(circuit)
    # i = gm * vin = 0.5 mA flows out of node 'out' into the source, so the
    # load sees -0.5 mA * 2 kOhm = -1 V.
    assert abs(result.voltage("out")) == pytest.approx(1.0, rel=1e-6)


def test_diode_forward_drop():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "anode", 1e3))
    circuit.add(Diode("d1", "anode", "0"))
    result = dc_operating_point(circuit)
    v_diode = result.voltage("anode")
    assert 0.4 < v_diode < 0.8
    # Current through the resistor equals the diode current.
    i_r = (1.0 - v_diode) / 1e3
    assert i_r > 0.0


def test_diode_reverse_blocks():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", -1.0))
    circuit.add(Resistor("r1", "in", "anode", 1e3))
    circuit.add(Diode("d1", "anode", "0"))
    result = dc_operating_point(circuit)
    # Almost the full supply appears across the diode (no current flows).
    assert result.voltage("anode") == pytest.approx(-1.0, abs=0.01)


# -- transient behaviour ----------------------------------------------------------------------


def test_rc_charging_time_constant():
    circuit = Circuit()
    circuit.add(
        VoltageSource(
            "v1", "in", "0", PulseWaveform(0.0, 1.0, delay=0.0, rise=1e-12, width=1.0, period=2.0)
        )
    )
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-9))
    tau = 1e-6
    result = transient(circuit, t_stop=5 * tau, dt=tau / 100, use_dc_start=False)
    wave = result.voltage("out")
    assert wave.at(tau) == pytest.approx(1.0 - np.exp(-1.0), abs=0.03)
    assert wave.at(5 * tau) == pytest.approx(1.0, abs=0.02)


def test_rc_discharge_with_initial_condition():
    circuit = Circuit()
    circuit.add(Resistor("r1", "out", "0", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-9))
    circuit.add(Resistor("rbig", "out", "0", 1e9))
    result = transient(
        circuit, t_stop=3e-6, dt=1e-8, initial_conditions={"out": 1.0}, use_dc_start=False
    )
    wave = result.voltage("out")
    assert wave.at(1e-6) == pytest.approx(np.exp(-1.0), abs=0.03)


def test_rl_current_rise():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Inductor("l1", "out", "0", 1e-3))
    tau = 1e-6
    result = transient(circuit, t_stop=5 * tau, dt=tau / 100, use_dc_start=False)
    current = result.branch_current("l1")
    assert current.values[-1] == pytest.approx(1e-3, rel=0.05)


def test_trapezoidal_integrator_rc():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-9))
    result = transient(circuit, t_stop=5e-6, dt=5e-8, integrator="trap", use_dc_start=False)
    assert result.voltage("out").values[-1] == pytest.approx(1.0, abs=0.02)


def test_sine_source_propagates_through_follower():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", SineWaveform(0.0, 1.0, 1e6)))
    circuit.add(Resistor("r1", "in", "out", 10.0))
    circuit.add(Resistor("r2", "out", "0", 1e6))
    result = transient(circuit, t_stop=3.6e-6, dt=1e-8, use_dc_start=False)
    wave = result.voltage("out")
    assert wave.maximum() == pytest.approx(1.0, abs=0.05)
    assert wave.minimum() == pytest.approx(-1.0, abs=0.05)
    assert wave.frequency() == pytest.approx(1e6, rel=0.05)
