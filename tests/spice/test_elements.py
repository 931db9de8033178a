"""Tests for the element set: validation, DC behaviour, and the guard that
the set is exactly what the VCO netlists build.

The runs are one-lane lane-engine analyses (:mod:`tests.spice.one_lane`).
"""

import numpy as np
import pytest

import repro.spice
from repro.circuits.topology import get_topology
from repro.process.technology import TECH_012UM
from repro.spice import MOSFET, NMOS_DEFAULT, Capacitor, Circuit, CircuitPlan, VoltageSource
from repro.spice.exceptions import NetlistError
from repro.spice.netlist import Element

from tests.spice.one_lane import dc_operating_point, transient

#: The registered topologies whose test benches run the lane engine.
TOPOLOGY_NAMES = ("ring-vco", "pseudodiff-vco")


# -- element validation -----------------------------------------------------------------


def test_capacitor_rejects_negative_value():
    with pytest.raises(NetlistError):
        Capacitor("c1", "a", "b", -1e-12)


def test_reactive_elements_take_no_initial_condition_argument():
    # Initial conditions go to the analysis (``initial_conditions=``); an
    # element-level ``ic=`` would be read by no engine, so it is refused.
    with pytest.raises(TypeError):
        Capacitor("c1", "a", "b", 1e-9, ic=1.0)


# -- DC behaviour --------------------------------------------------------------------------


def test_capacitor_is_open_in_dc():
    # Only the capacitor joins "out" to the 1 V input, and a diode-connected
    # NMOS ties "out" to ground: open, the capacitor leaves "out" at 0 V.
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Capacitor("c1", "in", "out", 1e-12))
    circuit.add(MOSFET("m1", "out", "out", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6))
    result = dc_operating_point(circuit)
    assert result.voltage("in") == pytest.approx(1.0, rel=1e-9)
    assert result.voltage("out") == pytest.approx(0.0, abs=1e-6)


def test_source_current_is_the_load_current():
    # The current a source delivers equals the channel current of the
    # MOSFET it feeds (positive = the source delivers current).
    device = MOSFET("m1", "d", "g", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6)
    circuit = Circuit()
    circuit.add(VoltageSource("vd", "d", "0", 1.2))
    circuit.add(VoltageSource("vg", "g", "0", 0.9))
    circuit.add(device)
    result = dc_operating_point(circuit)
    drain_current = device.drain_current(1.2, 0.9, 0.0, 0.0)
    assert drain_current > 1e-4
    assert result.source_current("vd") == pytest.approx(drain_current, rel=1e-6)
    assert result.source_current("vg") == pytest.approx(0.0, abs=1e-9)
    assert result.supply_current() == pytest.approx(drain_current, rel=1e-6)


# -- transient behaviour ----------------------------------------------------------------------


@pytest.mark.parametrize("integrator", ["be", "trap"])
def test_capacitor_charge_balances_the_drain_current(integrator):
    # An NMOS switch discharges its load from 1.2 V.  Every accepted step
    # moves the node's charge by what the channel carried off: C dv/dt
    # equals the drain current at the new point (backward Euler) or the
    # mean of both points (trapezoidal, whose history starts at zero, so
    # from the second step on).
    device = MOSFET("m1", "d", "g", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6)
    circuit = Circuit()
    circuit.add(VoltageSource("vg", "g", "0", 1.2))
    circuit.add(device)
    circuit.add(Capacitor("cl", "d", "0", 1e-12))
    result = transient(
        circuit, t_stop=20e-9, dt=0.2e-9, integrator=integrator, initial_conditions={"d": 1.2}
    )
    # The load plus the device's capacitances from "d" to fixed nodes.
    load = 1e-12 + sum(
        value for pair, value in device.gate_capacitances().items() if "d" in pair
    )
    wave = result.voltage("d")
    current = np.array([device.drain_current(v, 1.2, 0.0, 0.0) for v in wave.values])
    charge_rate = load * np.diff(wave.values) / np.diff(wave.time)
    carried = current[1:] if integrator == "be" else (current[1:] + current[:-1]) / 2.0
    first = 0 if integrator == "be" else 1
    assert wave.values[-1] < 0.1
    np.testing.assert_allclose(-charge_rate[first:], carried[first:], rtol=1e-5, atol=1e-8)


# -- the element set is what the circuits build ---------------------------------------------


def _test_bench_netlists():
    """One netlist from the test bench of every topology with a SPICE evaluator."""
    netlists = []
    for name in TOPOLOGY_NAMES:
        evaluator = get_topology(name).spice_evaluator(TECH_012UM, n_workers=1)
        bench = evaluator._testbench(TECH_012UM)
        netlists.append(bench._build_circuit(evaluator.design_cls(), TECH_012UM, vctrl=0.8))
    return netlists


def test_every_exported_element_kind_is_built_by_a_test_bench():
    exported = {
        value
        for value in (getattr(repro.spice, name) for name in repro.spice.__all__)
        if isinstance(value, type) and issubclass(value, Element)
    }
    assert exported == {Capacitor, VoltageSource, MOSFET}
    built = {type(element) for circuit in _test_bench_netlists() for element in circuit}
    assert exported <= built


class _Unsupported(Element):
    """A two-terminal element kind the lane engine does not compile."""

    def __init__(self, name, node_pos, node_neg):
        super().__init__(name, (node_pos, node_neg))


def test_plan_rejects_an_element_kind_it_does_not_compile():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "a", "0", 1.0))
    circuit.add(_Unsupported("x1", "a", "0"))
    with pytest.raises(NetlistError, match="_Unsupported"):
        CircuitPlan([circuit])
