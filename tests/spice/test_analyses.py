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
    CircuitPlan,
    LaneSystem,
    MOSFET,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    VoltageSource,
    Waveform,
)
from repro.spice.exceptions import AnalysisError, NetlistError
from repro.spice.plan import NewtonOptions, lane_newton

from tests.spice.one_lane import (
    HARD_START_OPTIONS,
    dc_operating_point,
    hard_start_circuit,
    plain_newton_converges,
    transient,
)
from tests.spice.reference_engine import NewtonSolver


# -- Newton solver / DC ---------------------------------------------------------------


def test_newton_solver_requires_valid_circuit():
    circuit = Circuit()
    with pytest.raises(NetlistError):
        NewtonSolver(circuit)


def test_newton_bad_initial_guess_size():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "a", "0", 1.0))
    circuit.add(MOSFET("m1", "a", "a", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6))
    solver = NewtonSolver(circuit)
    with pytest.raises(ValueError):
        solver.solve(np.zeros(10))


def test_dc_ladder_network():
    # Five stacked 0.2 V sources, each rung loaded by a capacitor (open in
    # DC): closed-form rung voltages, and only the 1e-12 S gmin shunts
    # draw current.
    circuit = Circuit()
    for i in range(5):
        below = "0" if i == 0 else f"n{i}"
        circuit.add(VoltageSource(f"v{i}", f"n{i + 1}", below, 0.2))
        circuit.add(Capacitor(f"c{i}", f"n{i + 1}", "0", 1e-12))
    result = dc_operating_point(circuit)
    assert result.voltage("n5") == pytest.approx(1.0, rel=1e-9)
    assert result.voltage("n3") == pytest.approx(0.6, rel=1e-9)
    assert result.supply_current() == pytest.approx(0.0, abs=1e-10)


def test_dc_gmin_stepping_handles_hard_start():
    # The plain solve fails on this circuit; the gmin ladder alone (no
    # source stepping) must reach the operating point.
    assert not plain_newton_converges(hard_start_circuit(), HARD_START_OPTIONS)
    result = dc_operating_point(hard_start_circuit(), HARD_START_OPTIONS, source_steps=0)
    assert 0.0 < result.voltage("n3") < result.voltage("n1") < 1.2


def test_dc_result_voltages_dictionary():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "a", "0", 2.0))
    circuit.add(VoltageSource("v2", "b", "a", -1.0))
    circuit.add(Capacitor("c1", "b", "0", 1e-12))
    voltages = dc_operating_point(circuit).voltages
    assert set(voltages) == {"a", "b"}
    assert voltages["b"] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="lane_newton counts residual < abs_tolerance as convergence; a tiny device's "
    "currents stay below 1e-9 A far from its operating point",
)
def test_dc_newton_does_not_accept_a_non_solution():
    # A PMOS pull-up into a diode-connected 0.2/10 um NMOS: no operating
    # point puts the output above the supply.  At 10 % of the supply the
    # solve from zero stops after two iterations at v(o) ~ 0.72 V against
    # v(vdd) = 0.12 V, because every current in the residual is below
    # abs_tolerance there.
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
    circuit.add(MOSFET("mp", "o", "0", "vdd", "vdd", PMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(MOSFET("mn", "o", "o", "0", "0", NMOS_DEFAULT, 0.2e-6, 10e-6))
    plan = CircuitPlan([circuit])
    system = LaneSystem(plan)
    system.begin_dc(gmin=1e-12, source_scale=0.1)
    x = np.zeros((1, plan.pad_size))
    converged, _ = lane_newton(system, x, np.ones(1, dtype=bool), NewtonOptions())
    node = circuit.node_index()
    assert not converged[0] or x[0, node["o"]] <= x[0, node["vdd"]] + 1e-6


# -- transient configuration ------------------------------------------------------------


def _rc():
    # A CMOS inverter driven high, discharging its load capacitor.
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
    circuit.add(VoltageSource("v1", "in", "0", 1.2))
    circuit.add(MOSFET("mn", "out", "in", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6))
    circuit.add(MOSFET("mp", "out", "in", "vdd", "vdd", PMOS_DEFAULT, 20e-6, 0.24e-6))
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


def test_transient_ground_voltage_is_zero():
    result = transient(_rc(), t_stop=1e-7, dt=1e-9, initial_conditions={"out": 1.2})
    assert result.voltage("out").values[0] == 1.2
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
