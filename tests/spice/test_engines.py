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
from repro.circuits.ring_vco import VcoDesign, build_ring_vco
from repro.circuits.testbench import VcoTestbench
from repro.process.technology import TECH_012UM
from repro.spice import (
    Capacitor,
    Circuit,
    CircuitPlan,
    LaneTransientAnalysis,
    MOSFET,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    VoltageSource,
)
from repro.spice.exceptions import AnalysisError, NetlistError

from tests.spice.one_lane import (
    HARD_START_OPTIONS,
    dc_operating_point as _lane_dc,
    hard_start_circuit,
    plain_newton_converges,
)
from tests.spice.reference_engine import (
    ConvergenceError,
    DCOperatingPoint,
    NewtonSolver,
    ReferenceTestbench,
    TransientAnalysis,
)

VDD = TECH_012UM.vdd


def _circuit(*elements):
    circuit = Circuit()
    circuit.extend(elements)
    return circuit


def _nmos(name, drain, gate, source, width=10e-6):
    return MOSFET(name, drain, gate, source, "0", NMOS_DEFAULT, width, 0.24e-6)


def _pmos(name, drain, gate, source, width=20e-6):
    return MOSFET(name, drain, gate, source, "vdd", PMOS_DEFAULT, width, 0.24e-6)


# Netlists built from the elements the VCO netlists use: MOSFETs,
# capacitors and constant voltage sources.


def _mos_inverter():
    # Pseudo-NMOS inverter: an always-on PMOS load.
    return _circuit(
        VoltageSource("VDD", "vdd", "0", VDD),
        VoltageSource("VIN", "g", "0", 0.7),
        _nmos("M1", "d", "g", "0"),
        _pmos("M2", "d", "0", "vdd", width=2e-6),
    )


def _cmos_inverter():
    # A CMOS inverter biased near its switching threshold.
    return _circuit(
        VoltageSource("VDD", "vdd", "0", VDD),
        VoltageSource("VIN", "in", "0", 0.55),
        _nmos("MN", "out", "in", "0"),
        _pmos("MP", "out", "in", "vdd"),
    )


def _current_mirror(load=1e-12):
    # The VCO bias network: vctrl sets the NMOS current, a diode-connected
    # PMOS mirrors it into a capacitor-loaded output.  Starting the output
    # at 0 V makes the mirror charge the load.
    return _circuit(
        VoltageSource("VDD", "vdd", "0", VDD),
        VoltageSource("VC", "vc", "0", 0.8),
        _nmos("M1", "b", "vc", "0"),
        _pmos("M2", "b", "b", "vdd"),
        _pmos("M3", "o", "b", "vdd"),
        Capacitor("CB", "b", "0", 0.1e-12),
        Capacitor("CL", "o", "0", load),
    )


def _ring_vco():
    return build_ring_vco(VcoDesign(), TECH_012UM, vctrl=0.8)


def _mos_switch():
    # An NMOS switch discharging its load against a weak PMOS pull-up.
    return _circuit(
        VoltageSource("VDD", "vdd", "0", VDD),
        VoltageSource("VG", "g", "0", VDD),
        VoltageSource("VB", "vb", "0", 0.6),
        _nmos("M1", "d", "g", "0", width=20e-6),
        _pmos("M2", "d", "vb", "vdd", width=2e-6),
        Capacitor("CL", "d", "0", 50e-15),
    )


def _inverter_chain():
    # Two capacitor-loaded CMOS inverters; the first is driven high.
    return _circuit(
        VoltageSource("VDD", "vdd", "0", VDD),
        VoltageSource("VIN", "in", "0", VDD),
        _nmos("MN1", "a", "in", "0"),
        _pmos("MP1", "a", "in", "vdd"),
        Capacitor("C1", "a", "0", 0.5e-12),
        _nmos("MN2", "b", "a", "0"),
        _pmos("MP2", "b", "a", "vdd"),
        Capacitor("C2", "b", "0", 0.5e-12),
    )


NETLISTS = {
    "mos_inverter": _mos_inverter,
    "cmos_inverter": _cmos_inverter,
    "current_mirror": _current_mirror,
    "ring_vco": _ring_vco,
}


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_dc_compiled_matches_reference(name):
    reference = DCOperatingPoint(NETLISTS[name]()).run().voltages
    lane = _lane_dc(NETLISTS[name]()).voltages
    assert set(lane) == set(reference)
    for node, value in reference.items():
        assert lane[node] == pytest.approx(value, rel=1e-6, abs=1e-9)


def test_hard_start_defeats_the_plain_newton_solve():
    # The homotopy tests below only test something if the plain solve
    # fails on their circuit, on both engines.
    assert not plain_newton_converges(hard_start_circuit(), HARD_START_OPTIONS)
    with pytest.raises(ConvergenceError):
        NewtonSolver(hard_start_circuit(), HARD_START_OPTIONS).solve(analysis="dc")


def test_compiled_gmin_stepping_matches_reference():
    reference = DCOperatingPoint(hard_start_circuit(), HARD_START_OPTIONS, source_steps=0).run()
    lane = _lane_dc(hard_start_circuit(), HARD_START_OPTIONS, source_steps=0)
    for node in ("n1", "n2", "n3"):
        assert lane.voltage(node) == pytest.approx(reference.voltage(node), rel=1e-6)
    assert 0.0 < lane.voltage("n3") < lane.voltage("n2") < lane.voltage("n1") < VDD


def test_compiled_source_stepping_fallback():
    # With the gmin ladder disabled the lane DC solve must fall through
    # to source stepping and still land on the same operating point.
    full = _lane_dc(hard_start_circuit(), HARD_START_OPTIONS)
    stepped = _lane_dc(hard_start_circuit(), HARD_START_OPTIONS, gmin_steps=0)
    for node in ("n1", "n2", "n3"):
        assert stepped.voltage(node) == pytest.approx(full.voltage(node), rel=1e-6)


#: Transient case name -> (netlist, initial conditions, probed node).
#: Constant sources hold a circuit at its DC point, so each case starts
#: a node away from it.
TRANSIENT_CASES = {
    "mos_switch": (_mos_switch, {"d": VDD}, "d"),
    "mirror_charge": (_current_mirror, {"o": 0.0}, "o"),
    "inverter_chain": (_inverter_chain, {"a": VDD}, "b"),
}


@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize("name", sorted(TRANSIENT_CASES))
def test_transient_compiled_matches_reference(name, integrator):
    netlist, initial, probe = TRANSIENT_CASES[name]
    settings = dict(t_stop=20e-9, dt=0.2e-9, integrator=integrator, initial_conditions=initial)
    reference = TransientAnalysis(netlist(), **settings).run().voltage(probe)
    (result,) = LaneTransientAnalysis([netlist()], **settings).run()
    lane = result.voltage(probe)
    assert np.array_equal(reference.time, lane.time)
    assert np.ptp(reference.values) > 0.05  # the case really moves
    np.testing.assert_allclose(lane.values, reference.values, rtol=1e-5, atol=1e-8)


def test_lane_batch_bitwise_equals_single_lane():
    # A lane's trajectory must not depend on what shares its batch: masked
    # Newton updates freeze converged/foreign lanes exactly.
    loads = (1e-12, 2.2e-12, 0.47e-12)
    settings = dict(t_stop=10e-9, dt=0.1e-9, initial_conditions={"o": 0.0})
    batch = LaneTransientAnalysis([_current_mirror(load) for load in loads], **settings).run()
    for load, lane_result in zip(loads, batch):
        (single,) = LaneTransientAnalysis([_current_mirror(load)], **settings).run()
        assert np.array_equal(lane_result.voltage("o").values, single.voltage("o").values)


def test_lane_topology_mismatch_rejected():
    circuits = [_mos_inverter(), _cmos_inverter()]
    with pytest.raises(NetlistError):
        CircuitPlan(circuits)


def test_lane_initial_condition_validation():
    circuits = [_current_mirror() for _ in range(2)]
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
