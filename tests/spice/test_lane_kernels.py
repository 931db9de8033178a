"""Bitwise oracles for the lane engine's Newton-iteration kernels.

The lane engine evaluates the MOSFET base point and its four
finite-difference perturbations in one stacked device call, and lands
every stamp block with one precomputed ``np.bincount`` scatter.  Both are
promised to be *bit-identical* to the straightforward forms they replace
(five separate ``drain_current`` calls, ``np.add.at``), so these tests
compare with ``np.array_equal`` rather than a tolerance.  The oracles
compare arrays computed on the same machine, so they hold on any numpy
build or CPU.

The whole time loop (the in-place device kernel, the Newton masks carried
across iterations, the reused step matrix and the per-step recording) is
held to the plain loop of :mod:`tests.spice.lane_oracle` the same way:
every lane's ``time`` and ``solution`` bytes, including lanes that refine
their steps and a lane that is given up.
"""

import itertools

import numpy as np
import pytest

from repro.circuits.pseudodiff import PseudoDiffVcoDesign, build_pseudodiff_vco
from repro.circuits.ring_vco import VcoDesign, build_ring_vco
from repro.process.technology import TECH_012UM
from repro.spice import (
    MOSFET,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    Circuit,
    CircuitPlan,
    LaneSystem,
    VoltageSource,
)
from repro.spice.mosfet import MOSFETArrays
from repro.spice.plan import NewtonOptions, _Scatter
from repro.spice.transient import LaneTransientAnalysis

from tests.spice import lane_oracle

DELTA = 1e-6


def _five_calls(arrays, vd, vg, vs, vb):
    """The finite differences as five separate device calls."""
    ids = arrays.drain_current(vd, vg, vs, vb)
    return ids, [
        (arrays.drain_current(vd + DELTA, vg, vs, vb) - ids) / DELTA,
        (arrays.drain_current(vd, vg + DELTA, vs, vb) - ids) / DELTA,
        (arrays.drain_current(vd, vg, vs + DELTA, vb) - ids) / DELTA,
        (arrays.drain_current(vd, vg, vs, vb + DELTA) - ids) / DELTA,
    ]


#: Terminal voltage levels; every (vd, vg, vs, vb) combination is one
#: lane.  They give forward, reversed and zero vds for both polarities and
#: gate overdrives far past the +-40 n*Vt softplus cut-offs.
LEVELS = (-2.5, -1.2, -0.3, 0.0, 0.4, 1.2, 2.5)


def test_stacked_device_call_equals_five_calls():
    grid = np.array(list(itertools.product(LEVELS, repeat=4)))
    models = (NMOS_DEFAULT, PMOS_DEFAULT, NMOS_DEFAULT, PMOS_DEFAULT)
    arrays = MOSFETArrays.from_devices(
        [
            [
                MOSFET(f"m{i}", "d", "g", "s", "b", model, (2.0 + i + lane % 3) * 1e-6, 0.24e-6)
                for i, model in enumerate(models)
            ]
            for lane in range(len(grid))
        ]
    )
    vd, vg, vs, vb = (np.repeat(grid[:, [t]], len(models), axis=1) for t in range(4))
    ids, derivatives = arrays.currents_and_derivatives(np.stack((vd, vg, vs, vb)))
    expected_ids, expected = _five_calls(arrays, vd, vg, vs, vb)
    assert np.array_equal(ids, expected_ids)
    assert derivatives.shape == (4,) + vd.shape
    for got, want in zip(derivatives, expected):
        assert np.array_equal(got, want)

    # Every branch of the model is reached for both polarities.
    p = arrays.polarity
    forward = p * vd >= p * vs
    vref = np.where(forward, p * vs, p * vd)
    phi_minus_vbs = np.maximum(arrays.phi - (p * vb - vref), 1e-6)
    vth = arrays.vth0 + arrays.gamma * (np.sqrt(phi_minus_vbs) - arrays.sqrt_phi)
    ratio = (p * vg - vref - vth) / arrays.n_vt
    for polarity in (1, -1):
        column = p == polarity
        assert forward[:, column].any() and (~forward[:, column]).any()
        assert (ratio[:, column] > 40.0).any() and (ratio[:, column] < -40.0).any()
        assert (np.abs(ratio[:, column]) < 40.0).any()


def _stamp_circuit():
    """MOSFET stamps with duplicate cells and on the ground pad."""
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "vdd", "0", 1.2))
    # Diode-connected device: drain == gate, so its d-row hits one column twice.
    circuit.add(MOSFET("m1", "vdd", "vdd", "mid", "mid", NMOS_DEFAULT, 10e-6, 0.24e-6))
    # Bulk tied to source, source and bulk on ground: stamps land on the pad.
    circuit.add(MOSFET("m2", "mid", "g", "0", "0", NMOS_DEFAULT, 20e-6, 0.24e-6))
    circuit.add(MOSFET("m3", "g", "mid", "vdd", "vdd", PMOS_DEFAULT, 15e-6, 0.24e-6))
    return circuit


@pytest.mark.parametrize("target", ["jacobian", "residual"])
def test_scatter_equals_add_at(target):
    plan = CircuitPlan([_stamp_circuit() for _ in range(3)])
    L, P = plan.n_lanes, plan.pad_size
    if target == "jacobian":
        blocks, size = list(plan.mos_jac_idx), P * P
    else:
        blocks, size = list(plan.mos_res_rows), P
    columns = np.concatenate(blocks)
    assert np.unique(columns).size < columns.size  # duplicate cells
    pad_cells = [P * P - 1, P - 1]
    assert pad_cells[target == "residual"] in columns
    rng = np.random.default_rng(7)

    # Mixed signs over nine decades, so any change in the order of the
    # additions into a cell changes its bits.
    def draw(*shape):
        return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 3, size=shape)

    buffer = draw(L, size)
    values = [draw(L, block.size) for block in blocks]
    stamps = np.concatenate(values, axis=1)
    lanes = np.arange(L)[:, None]
    expected = buffer.copy()
    np.add.at(expected, (lanes, columns), stamps)
    original = buffer.copy()
    scattered = _Scatter(L, size, blocks)(buffer, *values)
    assert np.array_equal(scattered, expected)
    assert np.array_equal(buffer, original)  # the target is not modified

    reordered = buffer.copy()
    np.add.at(reordered, (lanes, columns[::-1]), stamps[:, ::-1])
    assert not np.array_equal(reordered, expected)  # the check sees the order


class _FiveCallLaneSystem(LaneSystem):
    """The assembly as written before the stacked call and the scatter."""

    def assemble(self, x):
        plan = self.plan
        lane = np.arange(plan.n_lanes)[:, None]
        jac = self.a_step.copy()
        res = np.matmul(self.a_step, x[:, :, None])[:, :, 0]
        res += self.b_step
        terminals = (plan.mos_d, plan.mos_g, plan.mos_s, plan.mos_b)
        vd, vg, vs, vb = (x[:, nodes] for nodes in terminals)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            ids, (gd, gg, gs, gb) = _five_calls(plan.mos_arrays, vd, vg, vs, vb)
        np.add.at(res, (lane, plan.mos_res_rows.ravel()), np.concatenate([ids, -ids], axis=1))
        np.add.at(
            jac.reshape(plan.n_lanes, -1),
            (lane, plan.mos_jac_idx.ravel()),
            np.concatenate([gd, gg, gs, gb, -gd, -gg, -gs, -gb], axis=1),
        )
        return res, jac


def _ring_vco_run():
    designs = [VcoDesign(), VcoDesign(nmos_width=20e-6, pmos_width=40e-6)]
    circuits = [
        build_ring_vco(design, TECH_012UM, vctrl=vctrl)
        for design in designs
        for vctrl in (0.6, 1.1)
    ]
    kick = {"n0": TECH_012UM.vdd, "n1": 0.0, "n2": TECH_012UM.vdd, "n3": 0.0}
    return LaneTransientAnalysis(circuits, t_stop=1.5e-9, dt=30e-12, initial_conditions=kick).run()


def test_ring_vco_lanes_equal_five_call_assembly(monkeypatch):
    stacked = _ring_vco_run()
    monkeypatch.setattr("repro.spice.transient.LaneSystem", _FiveCallLaneSystem)
    oracle = _ring_vco_run()
    assert len(stacked) == len(oracle) == 4
    for got, want in zip(stacked, oracle):
        assert got is not None and want is not None
        assert np.array_equal(got.time, want.time)
        assert np.array_equal(got.solution, want.solution)


# -- the whole time loop against the plain loop of tests/spice/lane_oracle.py ----------

VDD = TECH_012UM.vdd
RING_KICK = {"n0": VDD, "n1": 0.0, "n2": VDD, "n3": 0.0}


def _ring_lanes():
    designs = [VcoDesign(), VcoDesign(nmos_width=20e-6, pmos_width=40e-6)]
    circuits = [
        build_ring_vco(design, TECH_012UM, vctrl=vctrl)
        for design in designs
        for vctrl in (0.6, 1.1)
    ]
    return circuits, RING_KICK


def _pseudodiff_lanes():
    designs = [PseudoDiffVcoDesign(), PseudoDiffVcoDesign(cross_width=20e-6)]
    circuits = [
        build_pseudodiff_vco(design, TECH_012UM, vctrl=vctrl)
        for design in designs
        for vctrl in (0.7, 1.1)
    ]
    kick = {f"a{stage}": VDD * (stage % 2 == 0) for stage in range(5)}
    kick.update({f"b{stage}": VDD * (stage % 2 == 1) for stage in range(5)})
    kick["a4"] = VDD / 2.0
    return circuits, kick


def _assert_same_bytes(results, expected):
    assert [result is None for result in results] == [want is None for want in expected]
    for got, want in zip(results, expected):
        if want is None:
            continue
        for name in ("time", "solution"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes(), name


@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize("lanes", [_ring_lanes, _pseudodiff_lanes], ids=["ring", "pseudodiff"])
def test_time_loop_equals_plain_loop_bit_for_bit(lanes, integrator):
    # DC start, then kicked lanes; recording starts mid-run.
    circuits, kick = lanes()
    analysis = LaneTransientAnalysis(
        circuits,
        t_stop=1.2e-9,
        dt=20e-12,
        integrator=integrator,
        t_start_recording=0.3e-9,
        initial_conditions=kick,
    )
    results = analysis.run()
    assert all(result is not None for result in results)
    assert all(result.time[0] >= 0.3e-9 for result in results)
    _assert_same_bytes(results, lane_oracle.run(analysis))


def test_refined_and_dead_lanes_equal_plain_loop_and_their_one_lane_runs(monkeypatch):
    # Eight Newton iterations per time point are too few for some 100 ps
    # steps, so lanes halve their steps independently; with one refinement
    # allowed, two of the four lanes run out and are given up.  (At three
    # iterations every ring-VCO lane is given up.)
    circuits, kick = _ring_lanes()
    settings = dict(
        t_stop=1.5e-9,
        dt=100e-12,
        initial_conditions=kick,
        use_dc_start=False,
        newton_options=NewtonOptions(max_iterations=8, voltage_step_limit=1.0),
        max_step_refinements=1,
    )
    analysis = LaneTransientAnalysis(circuits, **settings)
    expected = lane_oracle.run(analysis)

    steps = []
    begin_tran = LaneSystem.begin_tran

    def recording_begin_tran(self, dt, *args, **kwargs):
        steps.append(dt.copy())
        return begin_tran(self, dt, *args, **kwargs)

    monkeypatch.setattr(LaneSystem, "begin_tran", recording_begin_tran)
    results = analysis.run()
    monkeypatch.undo()

    survivors = [lane for lane, result in enumerate(results) if result is not None]
    assert 0 < len(survivors) < len(results)
    assert any(np.unique(dt).size > 1 for dt in steps)  # lanes stepped with mixed dt
    for lane in survivors:
        # Halved steps: more time points than the base step gives.
        assert np.diff(results[lane].time).min() < 0.75 * settings["dt"]
        assert len(results[lane].time) > settings["t_stop"] / settings["dt"] + 1
    _assert_same_bytes(results, expected)
    for lane in survivors:
        (alone,) = LaneTransientAnalysis([circuits[lane]], **settings).run()
        _assert_same_bytes([alone], [results[lane]])
