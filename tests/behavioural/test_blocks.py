"""Tests for the behavioural PLL building blocks (PFD, CP, filter, divider, jitter).

The scalar blocks hold parameters; their rules run on the ``*Lanes``
twins, exercised here one lane at a time.
"""

import numpy as np
import pytest

from repro.behavioural import (
    ChargePump,
    ChargePumpLanes,
    Divider,
    LoopFilter,
    LoopFilterLanes,
    PfdLanes,
    PhaseFrequencyDetector,
    accumulated_jitter,
    jitter_sum,
    period_jitter_from_phase_noise,
)


def compare(pfd, reference_edge, feedback_edge):
    """One-lane PFD comparison as ``(timing_error, up, down, net)`` floats."""
    error = PfdLanes.from_blocks([pfd]).compare(reference_edge, np.array([feedback_edge]))
    return (
        float(error.timing_error[0]),
        float(error.up_width[0]),
        float(error.down_width[0]),
        float(error.net_width[0]),
    )


def pump_charge(pump, pfd, reference_edge, feedback_edge, period):
    """Net charge of one pump lane for one PFD comparison."""
    error = PfdLanes.from_blocks([pfd]).compare(reference_edge, np.array([feedback_edge]))
    return float(ChargePumpLanes.from_blocks([pump]).charge(error, period)[0])


class OneFilter:
    """One loop filter advanced through a one-lane :class:`LoopFilterLanes`."""

    def __init__(self, loop_filter, voltage):
        self.loop_filter = loop_filter
        self.lanes = LoopFilterLanes.from_blocks([loop_filter])
        self.state = self.lanes.initialise(np.array([voltage]))

    def apply_charge(self, charge, interval):
        self.state = self.lanes.apply_charge(self.state, np.array([charge]), interval)
        return self

    @property
    def v_c1(self):
        return float(self.state.v_c1[0])

    @property
    def v_c2(self):
        return float(self.state.v_c2[0])

    @property
    def output(self):
        return float(self.lanes.output_voltage(self.state)[0])


# -- jitter arithmetic ---------------------------------------------------------------------


def test_jitter_sum_matches_listing2_formula():
    assert jitter_sum(0.2e-12, 24) == pytest.approx(0.2e-12 * np.sqrt(48.0))


def test_jitter_sum_validation():
    with pytest.raises(ValueError):
        jitter_sum(-1.0, 10)
    with pytest.raises(ValueError):
        jitter_sum(1.0, 0)


def test_accumulated_jitter_rss():
    assert accumulated_jitter([3.0, 4.0]) == pytest.approx(5.0)
    assert accumulated_jitter([]) == 0.0
    with pytest.raises(ValueError):
        accumulated_jitter([-1.0])


def test_period_jitter_from_phase_noise():
    jitter = period_jitter_from_phase_noise(-100.0, 1e6, 1e9)
    assert jitter > 0.0
    better = period_jitter_from_phase_noise(-120.0, 1e6, 1e9)
    assert better < jitter
    with pytest.raises(ValueError):
        period_jitter_from_phase_noise(-100.0, 0.0, 1e9)


# -- phase-frequency detector ---------------------------------------------------------------


def test_pfd_up_pulse_when_feedback_is_late():
    pfd = PhaseFrequencyDetector(reset_pulse=0.0)
    timing, up, down, net = compare(pfd, reference_edge=0.0, feedback_edge=2e-9)
    assert timing == pytest.approx(2e-9)
    assert up == pytest.approx(2e-9)
    assert down == 0.0
    assert net == pytest.approx(2e-9)


def test_pfd_down_pulse_when_feedback_is_early():
    pfd = PhaseFrequencyDetector(reset_pulse=0.0)
    _, up, down, net = compare(pfd, reference_edge=1e-9, feedback_edge=0.0)
    assert down == pytest.approx(1e-9)
    assert up == 0.0
    assert net == pytest.approx(-1e-9)


def test_pfd_reset_pulse_on_both_outputs():
    pfd = PhaseFrequencyDetector(reset_pulse=50e-12)
    _, up, down, net = compare(pfd, 0.0, 0.0)
    assert up == pytest.approx(50e-12)
    assert down == pytest.approx(50e-12)
    assert net == 0.0


def test_pfd_dead_zone_suppresses_small_errors():
    pfd = PhaseFrequencyDetector(dead_zone=10e-12, reset_pulse=0.0)
    assert compare(pfd, 0.0, 5e-12)[3] == 0.0
    assert compare(pfd, 0.0, 30e-12)[3] == pytest.approx(20e-12)


def test_pfd_max_pulse_clamps():
    pfd = PhaseFrequencyDetector(reset_pulse=0.0, max_pulse=1e-9)
    assert compare(pfd, 0.0, 1e-6)[1] == pytest.approx(1e-9)


# -- charge pump ------------------------------------------------------------------------------


def test_charge_pump_balanced_charge():
    pump = ChargePump(current=100e-6)
    pfd = PhaseFrequencyDetector(reset_pulse=0.0)
    assert pump_charge(pump, pfd, 0.0, 1e-9, 20e-9) == pytest.approx(100e-6 * 1e-9)
    assert pump_charge(pump, pfd, 1e-9, 0.0, 20e-9) == pytest.approx(-100e-6 * 1e-9)


def test_charge_pump_mismatch_and_leakage():
    pump = ChargePump(current=100e-6, mismatch=0.1, leakage=1e-9)
    assert pump.up_current > pump.down_current
    pfd = PhaseFrequencyDetector(reset_pulse=0.0)
    assert pump_charge(pump, pfd, 0.0, 0.0, 20e-9) == pytest.approx(-1e-9 * 20e-9)


def test_charge_pump_validation():
    with pytest.raises(ValueError):
        ChargePump(current=0.0)
    with pytest.raises(ValueError):
        pump_charge(ChargePump(), PhaseFrequencyDetector(), 0.0, 0.0, 0.0)


# -- loop filter ------------------------------------------------------------------------------


def test_loop_filter_validation():
    with pytest.raises(ValueError):
        LoopFilter(c1=0.0)
    with pytest.raises(ValueError):
        LoopFilter(c2=-1e-12)
    with pytest.raises(ValueError):
        LoopFilter(r1=0.0)


def test_loop_filter_zero_and_pole_frequencies():
    lf = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    assert lf.zero_frequency == pytest.approx(1.0 / (2 * np.pi * 2e3 * 2e-12))
    assert lf.pole_frequency > lf.zero_frequency
    assert LoopFilter(c1=2e-12, c2=0.0, r1=2e3).pole_frequency == np.inf


def test_loop_filter_impedance_magnitude_decreases_with_frequency():
    lf = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    low = abs(lf.impedance(2j * np.pi * 1e3))
    high = abs(lf.impedance(2j * np.pi * 1e9))
    assert low > high


def test_loop_filter_charge_conservation():
    lf = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    charge = 1e-15
    state = OneFilter(lf, 0.0).apply_charge(charge, 25e-9)
    stored = lf.c1 * state.v_c1 + lf.c2 * state.v_c2
    assert stored == pytest.approx(charge, rel=1e-9)


def test_loop_filter_accumulates_voltage():
    lf = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    state = OneFilter(lf, 0.4)
    for _ in range(10):
        state.apply_charge(2e-15, 25e-9)
    assert state.output > 0.4
    # Total added charge of 20 fC over 2.5 pF total capacitance = 8 mV.
    assert state.output == pytest.approx(0.4 + 20e-15 / 2.5e-12, rel=0.05)


def test_loop_filter_negative_charge_lowers_voltage():
    state = OneFilter(LoopFilter(), 0.6).apply_charge(-5e-15, 25e-9)
    assert state.output < 0.6


def test_loop_filter_without_ripple_capacitor():
    lf = LoopFilter(c1=2e-12, c2=0.0, r1=2e3)
    state = OneFilter(lf, 0.0).apply_charge(2e-15, 25e-9)
    assert state.output == pytest.approx(2e-15 / 2e-12)


def test_loop_filter_capacitors_relax_towards_each_other():
    lf = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    state = OneFilter(lf, 0.0).apply_charge(1e-14, 100e-9)
    assert abs(state.v_c1 - state.v_c2) < 1e-3


def test_loop_filter_interval_validation():
    with pytest.raises(ValueError):
        OneFilter(LoopFilter(), 0.0).apply_charge(1e-15, 0.0)


# -- divider ----------------------------------------------------------------------------------


def test_divider_validation():
    with pytest.raises(ValueError):
        Divider(ratio=0)
