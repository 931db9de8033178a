"""Tests for the vectorised batch path of the analytical VCO evaluator.

The contract under test is strict: ``evaluate_batch`` is a transcription
of the scalar first-order model to numpy with identical operation order,
so every comparison here is *bitwise* (``==`` on floats), not approximate.
"""

import numpy as np
import pytest

from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries
from repro.circuits.evaluators import VcoEvaluator
from repro.process import TECH_012UM, MonteCarloEngine


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


@pytest.fixture(scope="module")
def evaluator():
    return RingVcoAnalyticalEvaluator(TECH_012UM)


def test_batch_over_designs_matches_scalar(evaluator):
    rng = np.random.default_rng(42)
    designs = [random_design(rng) for _ in range(30)]
    batch = evaluator.evaluate_batch(designs)
    assert len(batch) == 30
    for design, performance in zip(designs, batch):
        assert performance.as_dict() == evaluator.evaluate(design).as_dict()


def test_batch_single_design_matches_scalar(evaluator):
    design = VcoDesign()
    (performance,) = evaluator.evaluate_batch([design])
    assert performance.as_dict() == evaluator.evaluate(design).as_dict()


def test_batch_over_technologies_matches_scalar(evaluator):
    engine = MonteCarloEngine(TECH_012UM, n_samples=15, seed=7, include_mismatch=False)
    samples = engine.sample_batch()
    design = VcoDesign()
    batch = evaluator.evaluate_batch([design], samples=samples)
    for sample, performance in zip(samples, batch):
        assert sample.technology is not TECH_012UM
        scalar = evaluator.evaluate(design, technology=sample.technology)
        assert performance.as_dict() == scalar.as_dict()


def test_batch_with_mismatch_matches_scalar(evaluator):
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=11, include_global=False)
    samples = engine.sample_batch(devices)
    batch = evaluator.evaluate_batch([design], samples=samples)
    for sample, performance in zip(samples, batch):
        assert sample.mismatch.devices() == [device.name for device in devices]
        scalar = evaluator.evaluate(design, mismatch=sample.mismatch)
        assert performance.as_dict() == scalar.as_dict()


def test_batch_broadcast_rejects_mismatched_lengths(evaluator):
    rng = np.random.default_rng(1)
    designs = [random_design(rng) for _ in range(3)]
    samples = MonteCarloEngine(TECH_012UM, n_samples=2, seed=1).sample_batch()
    with pytest.raises(ValueError):
        evaluator.evaluate_batch(designs, samples=samples)
    with pytest.raises(ValueError):
        VcoEvaluator.evaluate_batch(evaluator, designs, samples=samples)


def test_monte_carlo_batch_adapter_matches_serial_engine(evaluator):
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=40, seed=2009)
    serial = engine.run(evaluator.monte_carlo_evaluator(design), devices=devices)
    batch = engine.run_batch(
        evaluator.monte_carlo_batch_evaluator(design), devices=devices
    )
    assert serial.performances == batch.performances
    assert serial.nominal == batch.nominal


def test_base_class_batch_fallback_loops_scalar(evaluator):
    """The generic VcoEvaluator.evaluate_batch loop also matches (used by SPICE)."""
    rng = np.random.default_rng(3)
    designs = [random_design(rng) for _ in range(4)]
    generic = VcoEvaluator.evaluate_batch(evaluator, designs)
    vectorised = evaluator.evaluate_batch(designs)
    for a, b in zip(generic, vectorised):
        assert a.as_dict() == b.as_dict()


# -- SPICE evaluator process pool -----------------------------------------------------


def test_spice_pool_batch_matches_serial():
    """The pooled batch runs the same scalar code, so results are identical.

    Reduced transient settings keep the two transistor-level runs cheap;
    ``n_workers=2`` forces the pool path even on single-core machines.
    """
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    evaluator = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2
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
    """The lane engine is tolerance-equivalent to the per-element engine."""
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    rng = np.random.default_rng(13)
    designs = [random_design(rng) for _ in range(2)]
    reference = RingVcoSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    lanes = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1, engine="lanes"
    )
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
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1, engine="lanes"
    ).evaluate_batch(designs)
    pooled = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2, engine="lanes", lane_width=1
    ).evaluate_batch(designs)
    assert len(pooled) == 2
    for a, b in zip(in_process, pooled):
        assert a.as_dict() == b.as_dict()


def test_spice_lanes_handles_mismatch_samples():
    """Device overrides flow through the lane path like the scalar path."""
    from repro.circuits import vco_device_geometries
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    rng = np.random.default_rng(19)
    design = random_design(rng)
    devices = vco_device_geometries(design)
    samples = MonteCarloEngine(
        TECH_012UM, n_samples=1, seed=19, include_global=False
    ).sample_batch(devices)
    reference = RingVcoSpiceEvaluator(TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1)
    lanes = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=1, engine="lanes"
    )
    scalar = reference.evaluate(design, mismatch=samples[0].mismatch)
    (batched,) = lanes.evaluate_batch([design], samples=samples)
    for key, value in scalar.as_dict().items():
        assert batched.as_dict()[key] == pytest.approx(value, rel=1e-6), key


def test_spice_engine_validation():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    with pytest.raises(ValueError):
        RingVcoSpiceEvaluator(engine="nope")
    with pytest.raises(ValueError):
        RingVcoSpiceEvaluator(lane_width=0)
