"""Lane SPICE engine vs the per-element reference engine.

Bottom-up verification was the flow's serial tail: every transistor-level
transient of the 22-transistor ring VCO re-stamped the MNA system element
by element in pure Python on every Newton iteration.  That engine is now
the test oracle (``tests/spice/reference_engine.py``).  The lane engine
(:mod:`repro.spice.plan`) compiles the circuit once into index/parameter
arrays, assembles with vectorised scatter-adds, and advances every
verification point through one batched time-marching loop.

Two ratios feed the CI regression gate (``merge_benchmarks.py`` fails any
``speedup_*`` below 1.0):

* ``speedup_spice_transient`` -- one ring-VCO transient, a one-lane
  :class:`LaneTransientAnalysis` vs the reference :class:`TransientAnalysis`
  (same fixed steps, tolerance-equivalent waveforms);
* ``speedup_spice_verification`` -- the Table-2 verification workload
  through the lane-parallel batch path, gated at the 5x target with the
  model-accuracy gates of ``bench_bottom_up_verification`` unchanged.
"""

import time

from benchmarks.conftest import print_header
from repro.circuits import RingVcoSpiceEvaluator, VcoDesign
from repro.circuits.ring_vco import build_ring_vco
from repro.core.verification import BottomUpVerification
from repro.process import TECH_012UM
from repro.spice import LaneTransientAnalysis
from tests.spice.reference_engine import ReferenceSpiceEvaluator, TransientAnalysis


def _ring_transient(engine: str):
    circuit = build_ring_vco(VcoDesign().clamped(TECH_012UM), TECH_012UM, vctrl=0.8)
    initial = {f"n{stage}": TECH_012UM.vdd if stage % 2 == 0 else 0.0 for stage in range(5)}
    initial["n4"] = TECH_012UM.vdd / 2.0
    settings = dict(t_stop=10e-9, dt=8e-12, initial_conditions=initial, use_dc_start=False)
    if engine == "lanes":
        (result,) = LaneTransientAnalysis([circuit], **settings).run()
        return result
    return TransientAnalysis(circuit, **settings).run()


def test_spice_transient_lane_vs_reference(benchmark):
    """One ring-VCO transient: one-lane vectorised assembly vs per-element stamping."""
    start = time.perf_counter()
    reference = _ring_transient("reference")
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    lane = _ring_transient("lanes")
    lane_seconds = time.perf_counter() - start
    speedup = reference_seconds / lane_seconds

    ref_freq = reference.voltage("n0").frequency(threshold=TECH_012UM.vdd / 2.0)
    lane_freq = lane.voltage("n0").frequency(threshold=TECH_012UM.vdd / 2.0)
    rel_error = abs(lane_freq - ref_freq) / ref_freq

    print_header("SPICE transient: one-lane stamp plan vs reference engine")
    print(f"reference engine : {reference_seconds:8.3f}s  ({ref_freq / 1e9:.4f} GHz)")
    print(f"one-lane engine  : {lane_seconds:8.3f}s  ({lane_freq / 1e9:.4f} GHz)")
    print(f"speedup          : {speedup:8.2f}x  (frequency rel. error {rel_error:.2e})")

    assert rel_error < 1e-6, "one-lane transient drifted from the reference waveform"
    assert speedup >= 1.5, f"one-lane transient speedup {speedup:.2f}x is below the 1.5x floor"
    benchmark.extra_info["speedup_spice_transient"] = speedup
    benchmark.pedantic(_ring_transient, args=("lanes",), rounds=1, iterations=1)


def test_spice_verification_lanes_vs_reference(benchmark, combined_model):
    """The Table-2 verification stage through the lane-parallel batch path."""

    def verify(engine):
        evaluator_cls = RingVcoSpiceEvaluator if engine == "lanes" else ReferenceSpiceEvaluator
        evaluator = evaluator_cls(TECH_012UM, dt=8e-12, sim_cycles=5, n_workers=1)
        verifier = BottomUpVerification(combined_model, reference_evaluator=evaluator)
        return verifier.verify_model_points(max_points=3)

    start = time.perf_counter()
    reference_report = verify("reference")
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    lanes_report = verify("lanes")
    lanes_seconds = time.perf_counter() - start
    speedup = reference_seconds / lanes_seconds

    print_header("Bottom-up verification: lane-parallel engine vs reference engine")
    print(f"reference engine : {reference_seconds:8.3f}s  ({reference_report.n_points} points)")
    print(f"lanes engine     : {lanes_seconds:8.3f}s  ({lanes_report.n_points} points)")
    print(f"speedup          : {speedup:8.2f}x")
    summary = lanes_report.summary()
    for name in ("kvco", "jitter", "current", "fmin", "fmax"):
        print(f"  mean_error_{name:<8}: {summary[f'mean_error_{name}']:.2%}")

    # Engines agree to solver tolerance: the verification errors against the
    # behavioural model are engine-independent far beyond these gates.
    reference_summary = reference_report.summary()
    for name in ("fmax", "current"):
        drift = abs(summary[f"mean_error_{name}"] - reference_summary[f"mean_error_{name}"])
        assert drift < 1e-3, f"mean_error_{name} drifted {drift:.2e} between engines"
    # The accuracy gates of bench_bottom_up_verification, unchanged.
    assert all(point.measured["fmax"] > 0.0 for point in lanes_report.points)
    assert summary["mean_error_fmax"] < 3.0
    assert summary["mean_error_current"] < 3.0
    assert speedup >= 5.0, f"verification speedup {speedup:.2f}x is below the 5x target"
    benchmark.extra_info["speedup_spice_verification"] = speedup
    benchmark.pedantic(verify, args=("lanes",), rounds=1, iterations=1)
