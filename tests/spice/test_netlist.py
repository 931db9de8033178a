"""Tests for the circuit / netlist data model."""

import pytest

from repro.spice import MOSFET, NMOS_DEFAULT, Capacitor, Circuit, VoltageSource
from repro.spice.exceptions import NetlistError
from repro.spice.netlist import GROUND, canonical_node


def _coupled_load():
    circuit = Circuit("coupled load")
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Capacitor("c1", "in", "mid", 1e-12))
    circuit.add(MOSFET("m1", "mid", "mid", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6))
    return circuit


def test_canonical_node_ground_aliases():
    assert canonical_node("0") == GROUND
    assert canonical_node("gnd") == GROUND
    assert canonical_node("GND") == GROUND
    assert canonical_node("ground") == GROUND
    assert canonical_node("out") == "out"


def test_canonical_node_empty_raises():
    with pytest.raises(NetlistError):
        canonical_node("  ")


def test_add_and_lookup_elements():
    circuit = _coupled_load()
    assert len(circuit) == 3
    assert "c1" in circuit
    assert "C1" in circuit  # case-insensitive
    assert circuit.element("C1").capacitance == 1e-12
    assert len(circuit.elements_of_type(Capacitor)) == 1


def test_duplicate_element_name_raises():
    circuit = _coupled_load()
    with pytest.raises(NetlistError):
        circuit.add(Capacitor("c1", "a", "0", 1e-12))


def test_unknown_element_lookup_raises():
    with pytest.raises(NetlistError):
        _coupled_load().element("cx")


def test_nodes_exclude_ground_and_preserve_order():
    circuit = _coupled_load()
    assert circuit.nodes == ["in", "mid"]
    assert circuit.n_nodes == 2


def test_node_index_mapping():
    index = _coupled_load().node_index()
    assert index == {"in": 0, "mid": 1}


def test_branch_counting():
    circuit = _coupled_load()
    assert circuit.n_branches == 1  # only the voltage source
    assert circuit.n_unknowns == 3
    assert circuit.branch_index() == {"v1": 2}


def test_validate_accepts_good_circuit():
    _coupled_load().validate()


def test_validate_empty_circuit_raises():
    with pytest.raises(NetlistError):
        Circuit().validate()


def test_validate_missing_ground_raises():
    circuit = Circuit()
    circuit.add(Capacitor("c1", "a", "b", 1e-12))
    with pytest.raises(NetlistError):
        circuit.validate()


def test_validate_floating_node_raises():
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Capacitor("c1", "in", "dangling", 1e-12))
    with pytest.raises(NetlistError) as excinfo:
        circuit.validate()
    assert "dangling" in str(excinfo.value)


def test_element_requires_name_and_nodes():
    with pytest.raises(NetlistError):
        Capacitor("", "a", "b", 1e-12)
