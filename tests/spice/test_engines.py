"""Cross-engine equivalence tests: the reference engine vs the lane engine.

The lane engine's stamp plan (:mod:`repro.spice.plan`) promises results
*tolerance-equivalent* to the per-element reference engine — agreement to
well below the Newton solver tolerances, not bit-equality (see the module
docstring for the two documented deviations).  These tests sweep both DC
and transient analyses over parser-driven netlists, with a one-lane
:class:`CircuitPlan` against the reference :class:`DCOperatingPoint` and
:class:`TransientAnalysis` oracles, exercise the gmin and source-stepping
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
    Circuit,
    CircuitPlan,
    ENGINES,
    LaneSystem,
    MOSFET,
    NMOS_DEFAULT,
    Resistor,
    TransientAnalysis,
    VoltageSource,
    parse_netlist,
)
from repro.spice.dc import DCOperatingPoint, DCResult
from repro.spice.exceptions import AnalysisError, NetlistError
from repro.spice.mna import NewtonOptions
from repro.spice.plan import lane_dc_solve
from repro.spice.transient import LaneTransientAnalysis

# Parser-driven netlists covering every element the lane engine stamps:
# passives, branch elements (V, L), controlled sources, diodes and MOSFETs.
NETLISTS = {
    "ladder_divider": """
* resistive ladder with a VCVS buffer
V1 in 0 1.2
R1 in a 2k
R2 a b 1k
R3 b 0 1k
E1 out 0 b 0 2.0
Rload out 0 10k
""",
    "diode_clamp": """
* forward-biased diode with series resistor
.model dclamp d (is=1e-15 n=1.2)
V1 in 0 0.9
R1 in d 1k
D1 d 0 dclamp
""",
    "mos_inverter": """
* NMOS inverter with resistive load
.model nch nmos (vto=0.4 lambda=0.1)
VDD vdd 0 1.2
VIN g 0 0.7
RD vdd d 5k
M1 d g 0 0 nch W=10u L=0.24u
""",
    "vccs_rc": """
* VCCS-loaded RC with a current source
I1 0 a 1m
R1 a 0 2k
G1 b 0 a 0 0.5m
R2 b 0 1k
C1 b 0 1n
""",
    "rlc_tank": """
* series RLC driven by a pulse
V1 in 0 PULSE(0 1 1n 0.1n 0.1n 20n 40n)
R1 in m 50
L1 m out 1u
C1 out 0 1n
""",
}


def _lane_dc(circuit, **homotopy):
    """DC operating point of ``circuit`` as a one-lane :func:`lane_dc_solve`."""
    plan = CircuitPlan([circuit])
    x, converged, iterations = lane_dc_solve(LaneSystem(plan), NewtonOptions(), **homotopy)
    assert converged[0]
    return DCResult(circuit, x[0, : plan.n_unknowns].copy(), int(iterations[0]))


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_dc_compiled_matches_reference(name):
    reference = DCOperatingPoint(parse_netlist(NETLISTS[name])).run().voltages
    lane = _lane_dc(parse_netlist(NETLISTS[name])).voltages
    assert set(lane) == set(reference)
    for node, value in reference.items():
        assert lane[node] == pytest.approx(value, rel=1e-6, abs=1e-9)


def _hard_start_circuit():
    # Stacked diode-connected MOSFETs: the plain Newton solve from zeros
    # fails and the homotopies must kick in (same circuit as the reference
    # engine's gmin-stepping test).
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


TRANSIENT_CASES = [
    ("rc_sine", "V1 in 0 SIN(0.5 0.4 50meg)\nR1 in out 1k\nC1 out 0 1n\n", "out"),
    ("rlc_tank", NETLISTS["rlc_tank"], "out"),
    (
        "mos_switch",
        """
.model nch nmos (vto=0.4)
VDD vdd 0 1.2
VIN g 0 PULSE(0 1.2 2n 0.2n 0.2n 8n 16n)
RD vdd d 10k
M1 d g 0 0 nch W=20u L=0.24u
CL d 0 50f
""",
        "d",
    ),
]


@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize(
    "name, netlist, probe", TRANSIENT_CASES, ids=lambda c: c if isinstance(c, str) else ""
)
def test_transient_compiled_matches_reference(name, netlist, probe, integrator):
    settings = dict(t_stop=20e-9, dt=0.2e-9, integrator=integrator)
    reference = TransientAnalysis(parse_netlist(netlist), **settings).run().voltage(probe)
    (result,) = LaneTransientAnalysis([parse_netlist(netlist)], **settings).run()
    lane = result.voltage(probe)
    assert np.array_equal(reference.time, lane.time)
    np.testing.assert_allclose(lane.values, reference.values, rtol=1e-5, atol=1e-8)


def test_lane_batch_bitwise_equals_single_lane():
    # A lane's trajectory must not depend on what shares its batch: masked
    # Newton updates freeze converged/foreign lanes exactly.
    netlists = [
        f"V1 in 0 SIN(0.5 0.4 50meg)\nR1 in out {resistance}\nC1 out 0 1n\n"
        for resistance in ("1k", "2.2k", "470")
    ]
    batch = LaneTransientAnalysis(
        [parse_netlist(text) for text in netlists], t_stop=10e-9, dt=0.1e-9
    ).run()
    for text, lane_result in zip(netlists, batch):
        (single,) = LaneTransientAnalysis([parse_netlist(text)], t_stop=10e-9, dt=0.1e-9).run()
        assert np.array_equal(lane_result.voltage("out").values, single.voltage("out").values)


def test_lane_topology_mismatch_rejected():
    circuits = [parse_netlist(NETLISTS["ladder_divider"]), parse_netlist(NETLISTS["diode_clamp"])]
    with pytest.raises(NetlistError):
        CircuitPlan(circuits)


def test_lane_initial_condition_validation():
    circuits = [parse_netlist(NETLISTS["vccs_rc"]) for _ in range(2)]
    with pytest.raises(AnalysisError):
        LaneTransientAnalysis(circuits, t_stop=1e-9, dt=1e-11, initial_conditions=[{}])
    bad_node = LaneTransientAnalysis(
        circuits, t_stop=1e-9, dt=1e-11, initial_conditions={"nope": 1.0}
    )
    with pytest.raises(AnalysisError):
        bad_node.run()


def test_engine_argument_validation():
    assert ENGINES == ("reference", "lanes")
    for retired in ("nope", "compiled"):
        with pytest.raises(ValueError):
            VcoTestbench(engine=retired)


# -- ring-VCO test bench ---------------------------------------------------------------

#: Golden numbers of the default design through the lane engine at the
#: reduced test-bench settings below, captured from the reference run (the
#: engines agree to ~1e-9 relative).  A drift beyond 1e-4 means an engine
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


def _bench(engine, testbench_cls=VcoTestbench):
    return testbench_cls(TECH_012UM, dt=60e-12, sim_cycles=2, engine=engine)


def test_ring_vco_golden_regression():
    (performance,) = _bench("lanes").run_batch([(VcoDesign(), None, None)])
    assert performance.fmin == pytest.approx(_GOLDEN["fmin"], rel=1e-4)
    assert performance.fmax == pytest.approx(_GOLDEN["fmax"], rel=1e-4)
    assert performance.current == pytest.approx(_GOLDEN["current"], rel=1e-4)


def test_ring_vco_lanes_match_reference_bench():
    designs = _TOPOLOGIES["ring-vco"][2][:2]
    reference = [_bench("reference").run(design) for design in designs]
    lanes = _bench("lanes").run_batch([(design, None, None) for design in designs])
    for ref, lane in zip(reference, lanes):
        ref_dict, lane_dict = ref.as_dict(), lane.as_dict()
        for key, value in ref_dict.items():
            assert lane_dict[key] == pytest.approx(value, rel=1e-6), key


def test_reference_bench_run_batch_equals_run():
    # A reference bench simulates its batches on the reference engine too.
    bench = _bench("reference")
    designs = _TOPOLOGIES["ring-vco"][2][:2]
    batch = bench.run_batch([(design, None, None) for design in designs])
    for design, performance in zip(designs, batch):
        assert performance.as_dict() == bench.run(design).as_dict()


@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
def test_lanes_single_design_calls_equal_the_batch_bitwise(topology):
    # A single design is a one-task batch, and a lane's trajectory does not
    # depend on what shares its batch: run == run_batch at width 1 and at
    # width N, and evaluate == evaluate_batch, bit for bit.
    testbench_cls, evaluator_cls, designs = _TOPOLOGIES[topology]
    bench = _bench("lanes", testbench_cls)
    tasks = [(design, None, None) for design in designs]
    wide = bench.run_batch(tasks)
    assert any(performance.fmax > 0.0 for performance in wide)
    for design, task, lane in zip(designs, tasks, wide):
        single = bench.run(design).as_dict()
        assert single == bench.run_batch([task])[0].as_dict()
        assert single == lane.as_dict()
    evaluator = evaluator_cls(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1, engine="lanes"
    )
    batch = evaluator.evaluate_batch(designs)
    for design, performance in zip(designs, batch):
        assert evaluator.evaluate(design).as_dict() == performance.as_dict()
