"""Tests for the MOSFET device model.

Circuit-level checks run as one-lane lane-engine DC solves
(:mod:`tests.spice.one_lane`).
"""

import pytest

from repro.spice import Circuit, MOSFET, NMOS_DEFAULT, PMOS_DEFAULT, VoltageSource
from repro.spice.exceptions import NetlistError

from tests.spice.one_lane import dc_operating_point


def _nmos(width=10e-6, length=0.24e-6, model=NMOS_DEFAULT):
    return MOSFET("m1", "d", "g", "s", "b", model, width, length)


def test_geometry_validation():
    with pytest.raises(NetlistError):
        MOSFET("m1", "d", "g", "s", "b", NMOS_DEFAULT, -1e-6, 0.12e-6)
    with pytest.raises(NetlistError):
        MOSFET("m1", "d", "g", "s", "b", NMOS_DEFAULT, 1e-6, 0.0)
    with pytest.raises(NetlistError):
        MOSFET("m1", "d", "g", "s", "b", NMOS_DEFAULT, 1e-6, 0.12e-6, multiplier=0)


def test_effective_geometry():
    device = _nmos(width=10e-6, length=0.24e-6)
    assert device.effective_length < 0.24e-6
    assert device.effective_length > 0.2e-6
    assert device.effective_width == 10e-6
    wide = MOSFET("m2", "d", "g", "s", "b", NMOS_DEFAULT, 10e-6, 0.24e-6, multiplier=4)
    assert wide.effective_width == 40e-6


def test_model_derived_quantities():
    assert NMOS_DEFAULT.cox > 0.0
    assert NMOS_DEFAULT.kp > 0.0
    assert NMOS_DEFAULT.thermal_voltage == pytest.approx(0.0259, rel=0.05)
    varied = NMOS_DEFAULT.with_variation(vth0=0.5)
    assert varied.vth0 == 0.5
    assert NMOS_DEFAULT.vth0 != 0.5  # original unchanged (frozen dataclass)


def test_cutoff_current_is_negligible():
    device = _nmos()
    ids = device.drain_current(1.2, 0.0, 0.0, 0.0)
    assert ids < 1e-6  # subthreshold leakage only


def test_saturation_current_positive_and_scales_with_width():
    narrow = _nmos(width=10e-6)
    wide = _nmos(width=50e-6)
    i_narrow = narrow.drain_current(1.2, 1.0, 0.0, 0.0)
    i_wide = wide.drain_current(1.2, 1.0, 0.0, 0.0)
    assert i_narrow > 1e-4
    assert i_wide > 3.0 * i_narrow


def test_current_decreases_with_length():
    short = _nmos(length=0.15e-6)
    long = _nmos(length=0.8e-6)
    assert short.drain_current(1.2, 1.0, 0.0, 0.0) > long.drain_current(1.2, 1.0, 0.0, 0.0)


def test_current_increases_with_vgs():
    device = _nmos()
    currents = [device.drain_current(1.2, vgs, 0.0, 0.0) for vgs in (0.5, 0.8, 1.1)]
    assert currents[0] < currents[1] < currents[2]


def test_current_increases_with_vds_in_triode():
    device = _nmos()
    i1 = device.drain_current(0.05, 1.2, 0.0, 0.0)
    i2 = device.drain_current(0.2, 1.2, 0.0, 0.0)
    assert i2 > i1


def test_channel_length_modulation_in_saturation():
    device = _nmos()
    i1 = device.drain_current(0.8, 1.0, 0.0, 0.0)
    i2 = device.drain_current(1.2, 1.0, 0.0, 0.0)
    assert i2 > i1
    assert (i2 - i1) / i1 < 0.2


def test_source_drain_symmetry():
    device = _nmos()
    forward = device.drain_current(1.0, 1.0, 0.0, 0.0)
    # Swap drain and source (bulk stays at the common ground): the current
    # must reverse sign exactly.
    reverse = device.drain_current(0.0, 1.0, 1.0, 0.0)
    assert reverse == pytest.approx(-forward, rel=1e-6)


def test_body_effect_raises_threshold():
    device = _nmos()
    without = device.drain_current(1.2, 0.8, 0.0, 0.0)
    with_body = device.drain_current(1.2, 0.8, 0.0, -0.5)  # reverse body bias
    assert with_body < without


def test_pmos_conducts_with_negative_vgs():
    device = MOSFET("mp", "d", "g", "s", "b", PMOS_DEFAULT, 20e-6, 0.24e-6)
    # Source at 1.2 V (vdd), gate at 0 V, drain at 0.6 V: strongly on.
    ids = device.drain_current(0.6, 0.0, 1.2, 1.2)
    assert ids < 0.0  # current flows into the source and out of the drain
    # Gate at 1.2 V turns it off.
    off = device.drain_current(0.6, 1.2, 1.2, 1.2)
    assert abs(off) < 1e-6


def test_gm_larger_than_gds_in_saturation():
    device = _nmos()
    delta = 1e-6
    ids = device.drain_current(1.0, 0.9, 0.0, 0.0)
    gm = (device.drain_current(1.0, 0.9 + delta, 0.0, 0.0) - ids) / delta
    gds = (device.drain_current(1.0 + delta, 0.9, 0.0, 0.0) - ids) / delta
    assert gm > gds


def test_gate_capacitances_scale_with_area():
    small = _nmos(width=10e-6, length=0.2e-6)
    large = _nmos(width=40e-6, length=0.4e-6)
    total_small = sum(small.gate_capacitances().values())
    total_large = sum(large.gate_capacitances().values())
    assert total_large > 3.0 * total_small
    assert all(c >= 0.0 for c in small.gate_capacitances().values())


def test_nmos_inverter_transfer():
    def run(vin):
        circuit = Circuit()
        circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
        circuit.add(VoltageSource("vin", "in", "0", vin))
        # Pseudo-NMOS: a weak, always-on PMOS load.
        circuit.add(MOSFET("mp", "out", "0", "vdd", "vdd", PMOS_DEFAULT, 1e-6, 1e-6))
        circuit.add(MOSFET("mn", "out", "in", "0", "0", NMOS_DEFAULT, 5e-6, 0.24e-6))
        return dc_operating_point(circuit).voltage("out")

    assert run(0.0) == pytest.approx(1.2, abs=0.01)
    assert run(1.2) < 0.1


def test_cmos_inverter_switching_threshold():
    def run(vin):
        circuit = Circuit()
        circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
        circuit.add(VoltageSource("vin", "in", "0", vin))
        circuit.add(MOSFET("mp", "out", "in", "vdd", "vdd", PMOS_DEFAULT, 20e-6, 0.24e-6))
        circuit.add(MOSFET("mn", "out", "in", "0", "0", NMOS_DEFAULT, 10e-6, 0.24e-6))
        return dc_operating_point(circuit).voltage("out")

    assert run(0.0) > 1.1
    assert run(1.2) < 0.1
    middle = run(0.6)
    assert 0.0 < middle < 1.2
