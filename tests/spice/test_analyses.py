"""Tests for DC and transient analyses plus waveform measurements.

The analyses run on the lane engine through the one-lane helpers of
:mod:`tests.spice.one_lane`; the Newton-solver tests check the reference
engine's solver (:mod:`tests.spice.reference_engine`).
"""

import numpy as np
import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    MOSFET,
    NMOS_DEFAULT,
    Resistor,
    VoltageSource,
    Waveform,
)
from repro.spice.exceptions import AnalysisError, NetlistError

from tests.spice.one_lane import dc_operating_point, transient
from tests.spice.reference_engine import NewtonSolver


# -- Newton solver / DC ---------------------------------------------------------------


def test_newton_solver_requires_valid_circuit():
    circuit = Circuit()
    with pytest.raises(NetlistError):
        NewtonSolver(circuit)


def test_newton_bad_initial_guess_size():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "a", "0", 1.0))
    circuit.add(Resistor("r1", "a", "0", 1.0))
    solver = NewtonSolver(circuit)
    with pytest.raises(ValueError):
        solver.solve(np.zeros(10))


def test_dc_ladder_network():
    # Five-stage R ladder; closed-form voltages are easy to verify.
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "n0", "0", 1.0))
    for i in range(5):
        circuit.add(Resistor(f"r{i}", f"n{i}", f"n{i + 1}", 1e3))
    circuit.add(Resistor("rend", "n5", "0", 1e3))
    result = dc_operating_point(circuit)
    assert result.voltage("n5") == pytest.approx(1.0 / 6.0, rel=1e-6)
    assert result.voltage("n3") == pytest.approx(3.0 / 6.0, rel=1e-6)


def test_dc_gmin_stepping_handles_hard_start():
    # A stiff circuit: stacked diode-connected MOSFETs from supply.
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
    circuit.add(MOSFET("m1", "vdd", "vdd", "mid", "0", NMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(MOSFET("m2", "mid", "mid", "0", "0", NMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(Resistor("rleak", "mid", "0", 1e9))
    result = dc_operating_point(circuit)
    assert 0.0 < result.voltage("mid") < 1.2


def test_dc_result_voltages_dictionary():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "a", "0", 2.0))
    circuit.add(Resistor("r1", "a", "b", 1e3))
    circuit.add(Resistor("r2", "b", "0", 1e3))
    voltages = dc_operating_point(circuit).voltages
    assert set(voltages) == {"a", "b"}
    assert voltages["b"] == pytest.approx(1.0, rel=1e-6)


# -- transient configuration ------------------------------------------------------------


def _rc():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-9))
    return circuit


def test_transient_argument_validation():
    with pytest.raises(AnalysisError):
        transient(_rc(), t_stop=0.0, dt=1e-9)
    with pytest.raises(AnalysisError):
        transient(_rc(), t_stop=1e-6, dt=1e-5)
    with pytest.raises(AnalysisError):
        transient(_rc(), t_stop=1e-6, dt=1e-9, integrator="euler")


def test_transient_unknown_initial_condition_node_raises():
    with pytest.raises(AnalysisError):
        transient(_rc(), t_stop=1e-6, dt=1e-8, initial_conditions={"nope": 1.0})


def test_transient_records_after_start_time():
    result = transient(_rc(), t_stop=2e-6, dt=1e-8, t_start_recording=1e-6)
    assert result.time[0] >= 1e-6


def test_transient_supply_current_waveform():
    result = transient(_rc(), t_stop=1e-6, dt=1e-8, use_dc_start=False)
    supply = result.supply_current()
    # Charging current is largest right after the step and decays away.
    assert supply.maximum() > 0.0
    assert supply.values[-1] < supply.maximum()


def test_transient_nodes_dictionary():
    result = transient(_rc(), t_stop=1e-7, dt=1e-9)
    assert set(result.nodes) == {"in", "out"}
    ground = result.voltage("0")
    assert np.all(ground.values == 0.0)


# -- waveform measurements --------------------------------------------------------------------


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        Waveform([], [])


def test_waveform_sorting_and_basic_stats():
    wave = Waveform([2.0, 0.0, 1.0], [4.0, 0.0, 1.0])
    assert wave.time[0] == 0.0
    assert wave.minimum() == 0.0
    assert wave.maximum() == 4.0
    assert wave.peak_to_peak() == 4.0
    assert wave.duration == 2.0


def test_waveform_average_and_rms_of_sine():
    t = np.linspace(0.0, 1.0, 2001)
    wave = Waveform(t, np.sin(2 * np.pi * 5 * t))
    assert wave.average() == pytest.approx(0.0, abs=1e-3)
    assert wave.rms() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-2)


def test_waveform_crossings_and_frequency():
    t = np.linspace(0.0, 1.0, 4001)
    wave = Waveform(t, np.sin(2 * np.pi * 10 * t))
    rises = wave.crossings(0.0, "rise")
    falls = wave.crossings(0.0, "fall")
    assert len(rises) == pytest.approx(10, abs=1)
    assert len(falls) == pytest.approx(10, abs=1)
    assert wave.frequency() == pytest.approx(10.0, rel=0.01)
    assert wave.period() == pytest.approx(0.1, rel=0.01)
    assert wave.duty_cycle() == pytest.approx(0.5, abs=0.02)


def test_waveform_period_jitter_of_clean_signal_is_small():
    t = np.linspace(0.0, 1.0, 8001)
    wave = Waveform(t, np.sin(2 * np.pi * 20 * t))
    assert wave.period_jitter() < 1e-3


def test_waveform_settling_time():
    t = np.linspace(0.0, 10.0, 1001)
    values = 1.0 - np.exp(-t)
    wave = Waveform(t, values)
    settle = wave.settling_time(final_value=1.0, tolerance=0.02)
    assert settle == pytest.approx(-np.log(0.02), rel=0.1)


def test_waveform_window_and_at():
    wave = Waveform([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
    sub = wave.window(1.0, 2.5)
    assert len(sub) == 2
    assert wave.at(1.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        wave.window(10.0, 20.0)


def test_waveform_no_period_raises():
    wave = Waveform([0.0, 1.0], [0.0, 0.1])
    with pytest.raises(ValueError):
        wave.period()
