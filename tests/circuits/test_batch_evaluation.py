"""Tests for the batch kernel of the analytical VCO evaluator.

The contract under test is strict: ``evaluate_batch`` computes the
first-order model of :mod:`tests.circuits.analytical_oracle` -- written
one device at a time on the SPICE MOSFET -- with identical operation
order, so every comparison here is *bitwise* (``==`` on floats), not
approximate.
"""

import numpy as np
import pytest

from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries
from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.pseudodiff import (
    PseudoDiffAnalyticalEvaluator,
    PseudoDiffVcoDesign,
    pseudodiff_device_geometries,
)
from repro.process import TECH_012UM, MonteCarloEngine
from repro.process.mismatch import MismatchSample
from tests.circuits.analytical_oracle import ScalarAnalyticalOracle


def random_design(rng) -> VcoDesign:
    return VcoDesign(
        nmos_width=rng.uniform(10e-6, 100e-6),
        pmos_width=rng.uniform(10e-6, 100e-6),
        tail_nmos_width=rng.uniform(10e-6, 100e-6),
        tail_pmos_width=rng.uniform(10e-6, 100e-6),
        nmos_length=rng.uniform(0.12e-6, 1e-6),
        pmos_length=rng.uniform(0.12e-6, 1e-6),
        tail_length=rng.uniform(0.12e-6, 1e-6),
    )


def random_pseudodiff_design(rng) -> PseudoDiffVcoDesign:
    ring = random_design(rng)
    return PseudoDiffVcoDesign(**ring.as_dict(), cross_width=rng.uniform(2e-6, 40e-6))


@pytest.fixture(scope="module")
def evaluator():
    return RingVcoAnalyticalEvaluator(TECH_012UM)


@pytest.fixture(scope="module")
def oracle(evaluator):
    return ScalarAnalyticalOracle(evaluator)


def test_batch_over_designs_matches_scalar(evaluator, oracle):
    rng = np.random.default_rng(42)
    designs = [random_design(rng) for _ in range(30)]
    batch = evaluator.evaluate_batch(designs)
    assert len(batch) == 30
    for design, performance in zip(designs, batch):
        assert performance.as_dict() == oracle.evaluate(design).as_dict()


def test_batch_single_design_matches_scalar(evaluator, oracle):
    design = VcoDesign()
    (performance,) = evaluator.evaluate_batch([design])
    assert performance.as_dict() == oracle.evaluate(design).as_dict()
    assert evaluator.evaluate(design).as_dict() == performance.as_dict()


def test_batch_over_technologies_matches_scalar(evaluator, oracle):
    engine = MonteCarloEngine(TECH_012UM, n_samples=15, seed=7, include_mismatch=False)
    samples = engine.sample_batch()
    design = VcoDesign()
    batch = evaluator.evaluate_batch([design], samples=samples)
    for sample, performance in zip(samples, batch):
        assert sample.technology is not TECH_012UM
        scalar = oracle.evaluate(design, technology=sample.technology)
        assert performance.as_dict() == scalar.as_dict()
        single = evaluator.evaluate(design, technology=sample.technology)
        assert single.as_dict() == scalar.as_dict()


def test_batch_with_mismatch_matches_scalar(evaluator, oracle):
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=11, include_global=False)
    samples = engine.sample_batch(devices)
    batch = evaluator.evaluate_batch([design], samples=samples)
    for sample, performance in zip(samples, batch):
        assert sample.mismatch.devices() == [device.name for device in devices]
        scalar = oracle.evaluate(design, mismatch=sample.mismatch)
        assert performance.as_dict() == scalar.as_dict()


def test_single_evaluation_with_partial_mismatch_matches_scalar(evaluator, oracle):
    """A mismatch sample may name some devices, or carry only one delta key."""
    design = VcoDesign()
    engine = MonteCarloEngine(TECH_012UM, n_samples=6, seed=13)
    for index, sample in enumerate(engine.sample_batch(vco_device_geometries(design))):
        deltas = list(sample.mismatch.deltas.items())[index % 3 :: 2]
        key = ("vth0", "u0_rel")[index % 2]
        mismatch = MismatchSample({name: {key: d[key]} for name, d in deltas})
        single = evaluator.evaluate(design, technology=sample.technology, mismatch=mismatch)
        scalar = oracle.evaluate(design, technology=sample.technology, mismatch=mismatch)
        assert single.as_dict() == scalar.as_dict()


def test_pseudodiff_batch_over_designs_matches_scalar():
    evaluator = PseudoDiffAnalyticalEvaluator(TECH_012UM)
    oracle = ScalarAnalyticalOracle(evaluator)
    rng = np.random.default_rng(43)
    designs = [random_pseudodiff_design(rng) for _ in range(20)]
    for design, performance in zip(designs, evaluator.evaluate_batch(designs)):
        assert performance.as_dict() == oracle.evaluate(design).as_dict()


def test_pseudodiff_batch_with_variation_matches_scalar():
    evaluator = PseudoDiffAnalyticalEvaluator(TECH_012UM)
    oracle = ScalarAnalyticalOracle(evaluator)
    design = random_pseudodiff_design(np.random.default_rng(44))
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=17)
    samples = engine.sample_batch(pseudodiff_device_geometries(design))
    batch = evaluator.evaluate_batch([design], samples=samples)
    for sample, performance in zip(samples, batch):
        scalar = oracle.evaluate(
            design, technology=sample.technology, mismatch=sample.mismatch
        )
        assert performance.as_dict() == scalar.as_dict()


def test_batch_broadcast_rejects_mismatched_lengths(evaluator):
    rng = np.random.default_rng(1)
    designs = [random_design(rng) for _ in range(3)]
    samples = MonteCarloEngine(TECH_012UM, n_samples=2, seed=1).sample_batch()
    with pytest.raises(ValueError):
        evaluator.evaluate_batch(designs, samples=samples)
    with pytest.raises(ValueError):
        VcoEvaluator.evaluate_batch(evaluator, designs, samples=samples)


def test_monte_carlo_batch_adapter_matches_serial_engine(evaluator, oracle):
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=40, seed=2009)

    def scalar(technology, mismatch):
        return oracle.evaluate(design, technology=technology, mismatch=mismatch).as_dict()

    serial = engine.run(scalar, devices=devices)
    batch = engine.run_batch(
        evaluator.monte_carlo_batch_evaluator(design), devices=devices
    )
    assert serial.performances == batch.performances
    assert serial.nominal == batch.nominal


def test_base_class_batch_fallback_loops_scalar(evaluator):
    """The generic VcoEvaluator.evaluate_batch loop (used by SPICE) matches."""
    rng = np.random.default_rng(3)
    designs = [random_design(rng) for _ in range(4)]
    generic = VcoEvaluator.evaluate_batch(evaluator, designs)
    vectorised = evaluator.evaluate_batch(designs)
    for a, b in zip(generic, vectorised):
        assert a.as_dict() == b.as_dict()


# -- SPICE evaluator process pool -----------------------------------------------------


def test_spice_pool_batch_matches_serial():
    """The pooled batch runs the same chunk code, so results are identical.

    Reduced transient settings keep the two transistor-level runs cheap;
    ``lane_width=1`` with ``n_workers=2`` forces the pool path even on
    single-core machines.
    """
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    evaluator = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2, lane_width=1
    )
    rng = np.random.default_rng(7)
    designs = [random_design(rng) for _ in range(2)]
    serial = [evaluator.evaluate(design) for design in designs]
    pooled = evaluator.evaluate_batch(designs)
    assert len(pooled) == 2
    for a, b in zip(serial, pooled):
        assert a.as_dict() == b.as_dict()


def test_spice_pool_falls_back_to_serial_for_small_batches():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    evaluator = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1
    )
    design = VcoDesign()
    assert evaluator.evaluate_batch([design])[0].as_dict() == evaluator.evaluate(
        design
    ).as_dict()


def test_spice_pool_rejects_bad_worker_count():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    with pytest.raises(ValueError):
        RingVcoSpiceEvaluator(n_workers=0)


# -- SPICE lane-parallel batch path ----------------------------------------------------


def test_spice_lanes_batch_matches_reference():
    """The lane engine is tolerance-equivalent to the per-element oracle."""
    from repro.circuits.evaluators import RingVcoSpiceEvaluator
    from tests.spice.reference_engine import ReferenceSpiceEvaluator

    rng = np.random.default_rng(13)
    designs = [random_design(rng) for _ in range(2)]
    reference = ReferenceSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    lanes = RingVcoSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    for ref, lane in zip(reference.evaluate_batch(designs), lanes.evaluate_batch(designs)):
        for key, value in ref.as_dict().items():
            assert lane.as_dict()[key] == pytest.approx(value, rel=1e-6), key


def test_spice_lanes_pool_matches_in_process():
    """Fanning lane chunks over the pool must not change the numbers.

    ``lane_width=1`` forces one chunk per design so ``n_workers=2``
    engages the process pool; a lane's trajectory is independent of its
    batch, so the pooled chunks reproduce the in-process batch exactly.
    """
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    rng = np.random.default_rng(17)
    designs = [random_design(rng) for _ in range(2)]
    in_process = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1
    ).evaluate_batch(designs)
    pooled = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2, lane_width=1
    ).evaluate_batch(designs)
    assert len(pooled) == 2
    for a, b in zip(in_process, pooled):
        assert a.as_dict() == b.as_dict()


def test_spice_lanes_handles_mismatch_samples():
    """Device overrides flow through the lane path like the oracle's path."""
    from repro.circuits import vco_device_geometries
    from repro.circuits.evaluators import RingVcoSpiceEvaluator
    from tests.spice.reference_engine import ReferenceSpiceEvaluator

    rng = np.random.default_rng(19)
    design = random_design(rng)
    devices = vco_device_geometries(design)
    samples = MonteCarloEngine(
        TECH_012UM, n_samples=1, seed=19, include_global=False
    ).sample_batch(devices)
    reference = ReferenceSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    lanes = RingVcoSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    scalar = reference.evaluate(design, mismatch=samples[0].mismatch)
    (batched,) = lanes.evaluate_batch([design], samples=samples)
    for key, value in scalar.as_dict().items():
        assert batched.as_dict()[key] == pytest.approx(value, rel=1e-6), key


def test_spice_engine_validation():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    with pytest.raises(ValueError):
        RingVcoSpiceEvaluator(lane_width=0)
