"""Cross-engine equivalence tests: the lane engine vs the reference oracle.

The lane engine's stamp plan (:mod:`repro.spice.plan`) promises results
*tolerance-equivalent* to the per-element reference engine of
:mod:`tests.spice.reference_engine` — agreement to well below the Newton
solver tolerances, not bit-equality (see the plan's module docstring for
the two documented deviations).  These tests sweep both DC and transient
analyses over small netlists, with a one-lane :class:`CircuitPlan`
against the oracle's :class:`DCOperatingPoint` and
:class:`TransientAnalysis`, exercise the gmin and source-stepping
homotopy fallbacks, pin a lane of a batch to its single-lane run
bit-for-bit, pin every single-design test-bench and evaluator call to the
batch path bit-for-bit, and hold a golden-number regression on the
ring-VCO test bench.
"""

import numpy as np
import pytest

from repro.circuits.evaluators import RingVcoSpiceEvaluator
from repro.circuits.pseudodiff import (
    PseudoDiffSpiceEvaluator,
    PseudoDiffTestbench,
    PseudoDiffVcoDesign,
)
from repro.circuits.ring_vco import VcoDesign
from repro.circuits.testbench import VcoTestbench
from repro.process.technology import TECH_012UM
from repro.spice import (
    Capacitor,
    Circuit,
    CircuitPlan,
    CurrentSource,
    Diode,
    Inductor,
    LaneTransientAnalysis,
    MOSFET,
    NMOS_DEFAULT,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.spice.elements import PulseWaveform, SineWaveform
from repro.spice.exceptions import AnalysisError, NetlistError

from tests.spice.one_lane import dc_operating_point as _lane_dc
from tests.spice.reference_engine import DCOperatingPoint, ReferenceTestbench, TransientAnalysis


def _circuit(*elements):
    circuit = Circuit()
    circuit.extend(elements)
    return circuit


# Netlists covering every element the lane engine stamps: passives,
# branch elements (V, L), controlled sources, diodes and MOSFETs.


def _ladder_divider():
    # Resistive ladder with a VCVS buffer.
    return _circuit(
        VoltageSource("V1", "in", "0", 1.2),
        Resistor("R1", "in", "a", 2e3),
        Resistor("R2", "a", "b", 1e3),
        Resistor("R3", "b", "0", 1e3),
        VCVS("E1", "out", "0", "b", "0", 2.0),
        Resistor("Rload", "out", "0", 10e3),
    )


def _diode_clamp():
    # Forward-biased diode with series resistor.
    return _circuit(
        VoltageSource("V1", "in", "0", 0.9),
        Resistor("R1", "in", "d", 1e3),
        Diode("D1", "d", "0", saturation_current=1e-15, emission_coefficient=1.2),
    )


def _mos_inverter():
    # NMOS inverter with resistive load.
    nch = NMOS_DEFAULT.with_variation(name="nch", vth0=0.4, lambda_=0.1)
    return _circuit(
        VoltageSource("VDD", "vdd", "0", 1.2),
        VoltageSource("VIN", "g", "0", 0.7),
        Resistor("RD", "vdd", "d", 5e3),
        MOSFET("M1", "d", "g", "0", "0", nch, 10e-6, 0.24e-6),
    )


def _vccs_rc():
    # VCCS-loaded RC with a current source.
    return _circuit(
        CurrentSource("I1", "0", "a", 1e-3),
        Resistor("R1", "a", "0", 2e3),
        VCCS("G1", "b", "0", "a", "0", 0.5e-3),
        Resistor("R2", "b", "0", 1e3),
        Capacitor("C1", "b", "0", 1e-9),
    )


def _rlc_tank():
    # Series RLC driven by a pulse.
    return _circuit(
        VoltageSource("V1", "in", "0", PulseWaveform(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 20e-9, 40e-9)),
        Resistor("R1", "in", "m", 50.0),
        Inductor("L1", "m", "out", 1e-6),
        Capacitor("C1", "out", "0", 1e-9),
    )


def _rc_sine(resistance=1e3):
    return _circuit(
        VoltageSource("V1", "in", "0", SineWaveform(0.5, 0.4, 50e6)),
        Resistor("R1", "in", "out", resistance),
        Capacitor("C1", "out", "0", 1e-9),
    )


def _mos_switch():
    nch = NMOS_DEFAULT.with_variation(name="nch", vth0=0.4)
    return _circuit(
        VoltageSource("VDD", "vdd", "0", 1.2),
        VoltageSource("VIN", "g", "0", PulseWaveform(0.0, 1.2, 2e-9, 0.2e-9, 0.2e-9, 8e-9, 16e-9)),
        Resistor("RD", "vdd", "d", 10e3),
        Capacitor("CL", "d", "0", 50e-15),
        MOSFET("M1", "d", "g", "0", "0", nch, 20e-6, 0.24e-6),
    )


NETLISTS = {
    "ladder_divider": _ladder_divider,
    "diode_clamp": _diode_clamp,
    "mos_inverter": _mos_inverter,
    "vccs_rc": _vccs_rc,
    "rlc_tank": _rlc_tank,
}


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_dc_compiled_matches_reference(name):
    reference = DCOperatingPoint(NETLISTS[name]()).run().voltages
    lane = _lane_dc(NETLISTS[name]()).voltages
    assert set(lane) == set(reference)
    for node, value in reference.items():
        assert lane[node] == pytest.approx(value, rel=1e-6, abs=1e-9)


def _hard_start_circuit():
    # Stacked diode-connected MOSFETs: the plain Newton solve from zeros
    # fails and the homotopies must kick in (same circuit as the
    # gmin-stepping test of test_analyses.py).
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
    circuit.add(MOSFET("m1", "vdd", "vdd", "mid", "0", NMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(MOSFET("m2", "mid", "mid", "0", "0", NMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(Resistor("rleak", "mid", "0", 1e9))
    return circuit


def test_compiled_gmin_stepping_matches_reference():
    reference = DCOperatingPoint(_hard_start_circuit()).run()
    lane = _lane_dc(_hard_start_circuit())
    assert lane.voltage("mid") == pytest.approx(reference.voltage("mid"), rel=1e-6)
    assert 0.0 < lane.voltage("mid") < 1.2


def test_compiled_source_stepping_fallback():
    # With the gmin ladder disabled the lane DC solve must fall through
    # to source stepping and still land on the same operating point.
    full = _lane_dc(_hard_start_circuit())
    stepped = _lane_dc(_hard_start_circuit(), gmin_steps=0)
    assert stepped.voltage("mid") == pytest.approx(full.voltage("mid"), rel=1e-6)


#: Transient case name -> (netlist, probed node).
TRANSIENT_CASES = {
    "rc_sine": (_rc_sine, "out"),
    "rlc_tank": (_rlc_tank, "out"),
    "mos_switch": (_mos_switch, "d"),
}


@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize("name", sorted(TRANSIENT_CASES))
def test_transient_compiled_matches_reference(name, integrator):
    netlist, probe = TRANSIENT_CASES[name]
    settings = dict(t_stop=20e-9, dt=0.2e-9, integrator=integrator)
    reference = TransientAnalysis(netlist(), **settings).run().voltage(probe)
    (result,) = LaneTransientAnalysis([netlist()], **settings).run()
    lane = result.voltage(probe)
    assert np.array_equal(reference.time, lane.time)
    np.testing.assert_allclose(lane.values, reference.values, rtol=1e-5, atol=1e-8)


def test_lane_batch_bitwise_equals_single_lane():
    # A lane's trajectory must not depend on what shares its batch: masked
    # Newton updates freeze converged/foreign lanes exactly.
    resistances = (1e3, 2.2e3, 470.0)
    batch = LaneTransientAnalysis(
        [_rc_sine(resistance) for resistance in resistances], t_stop=10e-9, dt=0.1e-9
    ).run()
    for resistance, lane_result in zip(resistances, batch):
        (single,) = LaneTransientAnalysis([_rc_sine(resistance)], t_stop=10e-9, dt=0.1e-9).run()
        assert np.array_equal(lane_result.voltage("out").values, single.voltage("out").values)


def test_lane_topology_mismatch_rejected():
    circuits = [_ladder_divider(), _diode_clamp()]
    with pytest.raises(NetlistError):
        CircuitPlan(circuits)


def test_lane_initial_condition_validation():
    circuits = [_vccs_rc() for _ in range(2)]
    with pytest.raises(AnalysisError):
        LaneTransientAnalysis(circuits, t_stop=1e-9, dt=1e-11, initial_conditions=[{}])
    bad_node = LaneTransientAnalysis(
        circuits, t_stop=1e-9, dt=1e-11, initial_conditions={"nope": 1.0}
    )
    with pytest.raises(AnalysisError):
        bad_node.run()


# -- ring-VCO test bench ---------------------------------------------------------------

#: Golden numbers of the default design through the lane engine at the
#: reduced test-bench settings below, captured from a reference-engine run
#: (the engines agree to ~1e-9 relative).  A drift beyond 1e-4 means an engine
#: change altered the physics, not just the arithmetic order.
_GOLDEN = {
    "fmin": 314813339.18,
    "fmax": 1027228907.46,
    "current": 6.81306231e-3,
}


#: Test bench, SPICE evaluator and three designs of each topology.
_TOPOLOGIES = {
    "ring-vco": (
        VcoTestbench,
        RingVcoSpiceEvaluator,
        [
            VcoDesign(),
            VcoDesign(nmos_width=20e-6, pmos_width=40e-6),
            VcoDesign(tail_nmos_width=20e-6, tail_pmos_width=40e-6),
        ],
    ),
    "pseudodiff-vco": (
        PseudoDiffTestbench,
        PseudoDiffSpiceEvaluator,
        [
            PseudoDiffVcoDesign(),
            PseudoDiffVcoDesign(cross_width=4e-6),
            PseudoDiffVcoDesign(nmos_width=20e-6, pmos_width=40e-6),
        ],
    ),
}


def _bench(testbench_cls=VcoTestbench):
    return testbench_cls(TECH_012UM, dt=60e-12, sim_cycles=2)


def test_ring_vco_golden_regression():
    (performance,) = _bench().run_batch([(VcoDesign(), None, None)])
    assert performance.fmin == pytest.approx(_GOLDEN["fmin"], rel=1e-4)
    assert performance.fmax == pytest.approx(_GOLDEN["fmax"], rel=1e-4)
    assert performance.current == pytest.approx(_GOLDEN["current"], rel=1e-4)


def test_ring_vco_lanes_match_reference_bench():
    designs = _TOPOLOGIES["ring-vco"][2][:2]
    reference = [_bench(ReferenceTestbench).run(design) for design in designs]
    lanes = _bench().run_batch([(design, None, None) for design in designs])
    for ref, lane in zip(reference, lanes):
        ref_dict, lane_dict = ref.as_dict(), lane.as_dict()
        for key, value in ref_dict.items():
            assert lane_dict[key] == pytest.approx(value, rel=1e-6), key


@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
def test_lanes_single_design_calls_equal_the_batch_bitwise(topology):
    # A single design is a one-task batch, and a lane's trajectory does not
    # depend on what shares its batch: run == run_batch at width 1 and at
    # width N, and evaluate == evaluate_batch, bit for bit.
    testbench_cls, evaluator_cls, designs = _TOPOLOGIES[topology]
    bench = _bench(testbench_cls)
    tasks = [(design, None, None) for design in designs]
    wide = bench.run_batch(tasks)
    assert any(performance.fmax > 0.0 for performance in wide)
    for design, task, lane in zip(designs, tasks, wide):
        single = bench.run(design).as_dict()
        assert single == bench.run_batch([task])[0].as_dict()
        assert single == lane.as_dict()
    evaluator = evaluator_cls(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    batch = evaluator.evaluate_batch(designs)
    for design, performance in zip(designs, batch):
        assert evaluator.evaluate(design).as_dict() == performance.as_dict()
