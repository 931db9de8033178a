"""Tests for the behavioural VCO and the time-domain / linear PLL analyses."""

import numpy as np
import pytest

from repro.behavioural import (
    BehaviouralPll,
    BehaviouralVco,
    ChargePump,
    Divider,
    LinearPllAnalysis,
    PllDesign,
    VcoLanes,
    VcoVariationTables,
)


def make_vco(**overrides):
    defaults = dict(
        kvco=1.0e9,
        ivco=4e-3,
        jvco=0.2e-12,
        fmin=0.45e9,
        fmax=1.3e9,
        variation=VcoVariationTables.constant(kvco=0.5, ivco=3.0, jvco=25.0, fmin=2.0, fmax=2.0),
        vctrl_min=0.5,
        vctrl_max=1.2,
    )
    defaults.update(overrides)
    return BehaviouralVco(**defaults)


def tuning_curve(vco, vctrl):
    """Nominal tuning curve of one VCO through its one-lane twin."""
    return float(VcoLanes.from_blocks([vco]).frequency(np.array([vctrl]))[0])


def make_pll(**design_overrides):
    design = PllDesign(
        c1=3e-12,
        c2=0.6e-12,
        r1=2e3,
        charge_pump_current=100e-6,
        divide_ratio=24,
        reference_frequency=40e6,
        **design_overrides,
    )
    return BehaviouralPll(make_vco(), design)


# -- behavioural VCO ---------------------------------------------------------------------------


def test_vco_validation():
    with pytest.raises(ValueError):
        make_vco(kvco=-1.0)
    with pytest.raises(ValueError):
        make_vco(fmin=2e9, fmax=1e9)
    with pytest.raises(ValueError):
        BehaviouralVco(kvco=1e9, ivco=1e-3)  # needs jvco/fmin/fmax or a model
    with pytest.raises(ValueError):
        make_vco(vctrl_min=1.2, vctrl_max=0.5)


def test_vco_variants_bracket_nominal():
    vco = make_vco()
    assert vco.gain("min") < vco.gain("nominal") < vco.gain("max")
    assert vco.current("min") < vco.current("nominal") < vco.current("max")
    assert vco.period_jitter("min") < vco.period_jitter("max")
    with pytest.raises(ValueError):
        vco.gain("typ")


def test_vco_variant_magnitudes_follow_spread_percent():
    vco = make_vco()
    assert vco.gain("max") == pytest.approx(1.0e9 * 1.005)
    assert vco.current("min") == pytest.approx(4e-3 * 0.97)
    assert vco.period_jitter("max") == pytest.approx(0.2e-12 * 1.25)


def test_vco_tuning_curve_monotonic_and_clamped():
    vco = make_vco()
    freqs = [tuning_curve(vco, v) for v in np.linspace(0.4, 1.3, 10)]
    assert all(f2 >= f1 for f1, f2 in zip(freqs, freqs[1:]))
    assert tuning_curve(vco, 0.0) == pytest.approx(vco.fmin)
    # Above vctrl_max the curve saturates at the vctrl_max value (and never
    # exceeds the fmax tuning limit).
    assert tuning_curve(vco, 2.0) == pytest.approx(tuning_curve(vco, vco.vctrl_max))
    assert tuning_curve(vco, 2.0) <= vco.fmax


def test_vco_control_voltage_inversion():
    vco = make_vco()
    target = 0.96e9
    vctrl = vco.control_voltage_for(target)
    assert tuning_curve(vco, vctrl) == pytest.approx(target, rel=1e-6)


def test_vco_output_edge_jitter_uses_listing2_formula():
    vco = make_vco()
    assert vco.output_edge_jitter(24) == pytest.approx(0.2e-12 * np.sqrt(48.0))


def test_vco_performance_model_callable():
    model = lambda kvco, ivco: {"jvco": 0.3e-12, "fmin": 0.5e9, "fmax": 1.2e9}
    vco = BehaviouralVco(kvco=1e9, ivco=4e-3, performance_model=model)
    assert vco.jvco == pytest.approx(0.3e-12)
    assert vco.fmax == pytest.approx(1.2e9)


def test_vco_describe_contains_min_max():
    summary = make_vco().describe()
    assert summary["kvco_min"] < summary["kvco"] < summary["kvco_max"]
    assert set(summary) >= {"jvco", "jvco_min", "jvco_max", "fmin", "fmax"}


def test_variation_tables_interface():
    tables = VcoVariationTables.constant(kvco=1.0, ivco=2.0, jvco=3.0, fmin=4.0, fmax=5.0)
    assert tables.spread("kvco", 123.0) == 1.0
    assert tables.spread("jvco", 0.0) == 3.0
    with pytest.raises(KeyError):
        tables.spread("unknown", 1.0)


# -- time-domain PLL --------------------------------------------------------------------------


def test_pll_locks_to_target_frequency():
    pll = make_pll()
    transient = pll.simulate(max_time=3e-6)
    target = pll.design.target_frequency
    assert transient.frequency[-1] == pytest.approx(target, rel=0.01)
    lock = pll.lock_time(transient)
    assert np.isfinite(lock)
    assert lock < 3e-6


def test_pll_lock_time_below_paper_spec():
    pll = make_pll()
    performance = pll.evaluate()
    assert performance.locked
    assert performance.lock_time < 1.0e-6  # the paper's specification


def test_pll_variant_evaluation_brackets_nominal():
    pll = make_pll()
    results = pll.evaluate_all_variants()
    assert set(results) == {"nominal", "min", "max"}
    assert results["min"].jitter < results["nominal"].jitter < results["max"].jitter
    assert results["min"].current < results["nominal"].current < results["max"].current


def test_pll_current_budget_includes_peripherals():
    pll = make_pll()
    assert pll.supply_current() == pytest.approx(4e-3 + 10e-3)


def test_pll_output_jitter_formula():
    pll = make_pll()
    assert pll.output_jitter() == pytest.approx(0.2e-12 * np.sqrt(48.0))


def test_pll_jitter_injection_does_not_prevent_lock():
    pll = make_pll()
    performance = pll.evaluate(seed=7)
    assert performance.locked


def test_pll_divider_ratio_mismatch_raises():
    design = PllDesign(divide_ratio=24)
    with pytest.raises(ValueError):
        BehaviouralPll(make_vco(), design, divider=Divider(ratio=32))


def test_pll_charge_pump_current_mismatch_raises():
    design = PllDesign(charge_pump_current=100e-6)
    with pytest.raises(ValueError, match="charge_pump_current"):
        BehaviouralPll(make_vco(), design, charge_pump=ChargePump(current=50e-6))
    # A pump that agrees with the design may still carry its own mismatch.
    pump = ChargePump(current=100e-6, mismatch=0.05)
    assert BehaviouralPll(make_vco(), design, charge_pump=pump).charge_pump is pump


def test_pll_narrow_loop_filter_locks_slower():
    fast = make_pll()
    slow = BehaviouralPll(make_vco(), PllDesign(c1=30e-12, c2=6e-12, r1=2e3))
    fast_lock = fast.evaluate().lock_time
    slow_lock = slow.evaluate(max_time=10e-6).lock_time
    assert slow_lock > fast_lock


def test_pll_transient_waveform_export():
    transient = make_pll().simulate(max_time=2e-6)
    wave = transient.control_waveform()
    freq = transient.frequency_waveform()
    assert len(wave) == len(transient.time)
    assert freq.values[-1] > freq.values[0]  # frequency ramps up towards lock


def test_pll_invalid_variant_raises():
    with pytest.raises(ValueError):
        make_pll().simulate(variant="typ")


def test_pll_performance_as_dict():
    record = make_pll().evaluate().as_dict()
    assert set(record) == {"lock_time", "jitter", "current", "locked", "final_frequency"}


# -- linear analysis --------------------------------------------------------------------------


def test_linear_analysis_loop_dynamics():
    design = PllDesign(c1=3e-12, c2=0.6e-12, r1=2e3)
    analysis = LinearPllAnalysis(design, kvco=1e9)
    dynamics = analysis.dynamics()
    assert dynamics.natural_frequency > 0.0
    assert dynamics.damping > 0.0
    assert 0.0 < dynamics.bandwidth < design.reference_frequency
    assert dynamics.lock_time_estimate > 0.0


def test_linear_analysis_open_loop_gain_falls_with_frequency():
    analysis = LinearPllAnalysis(PllDesign(), kvco=1e9)
    assert abs(analysis.open_loop_gain(1e4)) > abs(analysis.open_loop_gain(1e7))


def test_linear_analysis_closed_loop_dc_gain_is_divide_ratio():
    design = PllDesign(divide_ratio=24)
    analysis = LinearPllAnalysis(design, kvco=1e9)
    assert abs(analysis.closed_loop_gain(1e3)) == pytest.approx(24.0, rel=0.05)


def test_linear_analysis_more_resistance_more_damping():
    low_r = LinearPllAnalysis(PllDesign(r1=1e3), kvco=1e9)
    high_r = LinearPllAnalysis(PllDesign(r1=4e3), kvco=1e9)
    assert high_r.damping > low_r.damping


def test_linear_lock_estimate_within_factor_of_time_domain():
    design = PllDesign(c1=3e-12, c2=0.6e-12, r1=2e3)
    analysis = LinearPllAnalysis(design, kvco=1e9)
    pll = BehaviouralPll(make_vco(), design)
    measured = pll.evaluate().lock_time
    estimated = analysis.lock_time_estimate()
    ratio = measured / estimated
    assert 0.1 < ratio < 10.0


def test_linear_analysis_validation():
    with pytest.raises(ValueError):
        LinearPllAnalysis(PllDesign(), kvco=0.0)
    with pytest.raises(ValueError):
        LinearPllAnalysis(PllDesign(), kvco=1e9).open_loop_gain(0.0)
