"""Bit-exactness tests for the lane-parallel behavioural PLL engine.

The lane engine is the only PLL cycle loop, so every test here asserts
*exact* (bit-for-bit) equality between it and the independent scalar
oracle of :mod:`tests.behavioural.pll_oracle`, and that a design's lane
does not depend on the batch it runs in -- the invariants the serial and
vectorised optimisation backends rely on to reproduce historical seeded
Pareto fronts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavioural import (
    BehaviouralPll,
    BehaviouralVco,
    ChargePump,
    ChargePumpLanes,
    LoopFilter,
    LoopFilterLanes,
    PfdLanes,
    PhaseFrequencyDetector,
    PllDesign,
    VcoLanes,
    VcoVariationTables,
)
from repro.behavioural.vco import VARIANTS, describe_lanes
from tests.behavioural import pll_oracle as oracle

SEEDS = (None, 2009)


def make_population(n=7, rng_seed=42, shared_variation=None, unlockable_every=None):
    """Random (vco, design) lanes; optionally some lanes that can never lock."""
    rng = np.random.default_rng(rng_seed)
    plls = []
    for index in range(n):
        design = PllDesign(
            c1=float(rng.uniform(1e-12, 6e-12)),
            c2=float(rng.uniform(0.2e-12, 3e-12)),
            r1=float(rng.uniform(0.5e3, 5e3)),
        )
        unlockable = unlockable_every is not None and index % unlockable_every == 0
        # The target is 24 * 40 MHz = 960 MHz; a VCO whose tuning range tops
        # out below it can never lock.
        fmax = 0.90e9 if unlockable else float(rng.uniform(1.1e9, 1.4e9))
        vco = BehaviouralVco(
            kvco=float(rng.uniform(0.5e9, 2e9)),
            ivco=float(rng.uniform(1e-3, 6e-3)),
            jvco=float(rng.uniform(1e-12, 8e-12)),
            fmin=float(rng.uniform(0.6e9, 0.8e9)),
            fmax=fmax,
            variation=shared_variation,
        )
        plls.append(BehaviouralPll(vco, design))
    return plls


def assert_performance_equal(scalar, batched):
    assert scalar.lock_time == batched.lock_time
    assert scalar.jitter == batched.jitter
    assert scalar.current == batched.current
    assert scalar.locked == batched.locked
    assert scalar.final_frequency == batched.final_frequency


# -- transient equivalence ------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_batch_bit_identical_to_scalar(variant, seed):
    plls = make_population()
    batch = BehaviouralPll.simulate_batch(
        plls, variant=variant, max_time=3e-6, seed=seed
    )
    for index, pll in enumerate(plls):
        scalar = oracle.simulate(pll, variant=variant, max_time=3e-6, seed=seed)
        assert np.array_equal(batch.time, scalar.time)
        assert np.array_equal(batch.control_voltage[index], scalar.control_voltage)
        assert np.array_equal(batch.frequency[index], scalar.frequency)
        assert np.array_equal(batch.phase_error[index], scalar.phase_error)
        lane = batch.lane(index)
        assert np.array_equal(lane.frequency, scalar.frequency)
        single = pll.simulate(variant=variant, max_time=3e-6, seed=seed)
        assert np.array_equal(single.time, scalar.time)
        assert np.array_equal(single.control_voltage, scalar.control_voltage)
        assert np.array_equal(single.phase_error, scalar.phase_error)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_batch_matches_scalar_evaluate(seed):
    plls = make_population()
    for variant in VARIANTS:
        batched = BehaviouralPll.evaluate_batch(
            plls, variant=variant, max_time=3e-6, seed=seed
        )
        for pll, performance in zip(plls, batched):
            scalar = oracle.evaluate(pll, variant=variant, max_time=3e-6, seed=seed)
            assert_performance_equal(scalar, performance)
            single = pll.evaluate(variant=variant, max_time=3e-6, seed=seed)
            assert_performance_equal(scalar, single)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_all_variants_batch_matches_scalar(seed):
    plls = make_population()
    batched = BehaviouralPll.evaluate_all_variants_batch(
        plls, max_time=3e-6, seed=seed
    )
    for pll, variant_map in zip(plls, batched):
        scalar_map = oracle.evaluate_all_variants(pll, max_time=3e-6, seed=seed)
        single_map = pll.evaluate_all_variants(max_time=3e-6, seed=seed)
        assert list(variant_map) == list(single_map) == list(VARIANTS)
        for variant in VARIANTS:
            assert_performance_equal(scalar_map[variant], variant_map[variant])
            assert_performance_equal(scalar_map[variant], single_map[variant])


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_lock_population(seed):
    """Lanes that can never lock coexist with locking lanes in one batch."""
    plls = make_population(n=9, unlockable_every=3)
    performances = BehaviouralPll.evaluate_batch(plls, max_time=3e-6, seed=seed)
    locked_flags = [performance.locked for performance in performances]
    assert any(locked_flags) and not all(locked_flags)
    for index, (pll, performance) in enumerate(zip(plls, performances)):
        scalar = oracle.evaluate(pll, max_time=3e-6, seed=seed)
        assert_performance_equal(scalar, performance)
        if index % 3 == 0:
            assert not performance.locked
            assert performance.lock_time == float("inf")


def test_jitter_stream_is_shared_across_lanes():
    """Each lane consumes the same seeded noise stream as its oracle run.

    The lanes have different jitter sigmas, so this fails if the batch
    path drew noise lane-by-lane instead of one bulk block per cycle
    stream (the oracle re-seeds one generator per lane).
    """
    plls = make_population(n=5, rng_seed=9)
    sigmas = {pll.vco.period_jitter("nominal") for pll in plls}
    assert len(sigmas) == len(plls)  # genuinely distinct lanes
    batch = BehaviouralPll.simulate_batch(plls, max_time=3e-6, seed=77)
    for index, pll in enumerate(plls):
        scalar = oracle.simulate(pll, max_time=3e-6, seed=77)
        assert np.array_equal(batch.frequency[index], scalar.frequency)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", ["nominal", "min"])
def test_zero_vco_frequency_scalar_matches_batch(variant, seed):
    # The loop starts at vctrl_min, so the clamped frequency is exactly
    # 0 Hz in the first cycle: through a zero fmin for the nominal
    # variant, and through a spread that floors the min-variant fmin at
    # zero.  The lane path's IEEE 1/0 = inf must match the oracle.
    if variant == "nominal":
        vco = BehaviouralVco(kvco=1.5e9, ivco=2e-3, jvco=4e-12, fmin=0.0, fmax=1.3e9)
    else:
        vco = BehaviouralVco(
            kvco=1.5e9,
            ivco=2e-3,
            jvco=4e-12,
            fmin=0.7e9,
            fmax=1.3e9,
            variation=VcoVariationTables.constant(fmin=150.0),
        )
    assert vco.frequency_bounds(variant)["fmin"] == 0.0
    plls = [BehaviouralPll(vco, PllDesign()), *make_population(n=2)]
    batch = BehaviouralPll.simulate_batch(plls, variant=variant, max_time=3e-6, seed=seed)
    assert batch.frequency[0, 0] == 0.0
    for index, pll in enumerate(plls):
        scalar = oracle.simulate(pll, variant=variant, max_time=3e-6, seed=seed)
        assert np.array_equal(batch.time, scalar.time)
        assert np.array_equal(batch.control_voltage[index], scalar.control_voltage)
        assert np.array_equal(batch.frequency[index], scalar.frequency)
        assert np.array_equal(batch.phase_error[index], scalar.phase_error)


def test_simulate_batch_rejects_mixed_reference_frequencies():
    plls = make_population(n=2)
    design = PllDesign(reference_frequency=50e6, divide_ratio=24)
    plls[1] = BehaviouralPll(plls[1].vco, design)
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls)


def test_simulate_batch_rejects_empty_and_bad_variant():
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch([])
    plls = make_population(n=2)
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls, variant="typical")
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls, variant=["nominal"])


def test_lock_times_batch_matches_scalar_lock_time():
    plls = make_population(n=6, unlockable_every=2)
    transient = BehaviouralPll.simulate_batch(plls, max_time=3e-6)
    lock_times = BehaviouralPll.lock_times_batch(plls, transient)
    for index, pll in enumerate(plls):
        scalar = oracle.lock_time(pll, oracle.simulate(pll, max_time=3e-6))
        assert lock_times[index] == scalar
        assert pll.lock_time(transient.lane(index)) == scalar


# -- shared-variation fast path -------------------------------------------------------


def test_shared_variation_tables_use_identical_lane_constants():
    shared = VcoVariationTables.constant(kvco=1.0, ivco=2.5, jvco=20.0, fmin=1.5, fmax=1.5)
    plls = make_population(shared_variation=shared)
    vcos = [pll.vco for pll in plls]
    for variant in VARIANTS:
        lanes = VcoLanes.from_blocks(vcos, variant)
        for index, vco in enumerate(vcos):
            bounds = vco.frequency_bounds(variant)
            assert lanes.gain[index] == vco.gain(variant)
            assert lanes.fmin[index] == bounds["fmin"]
            assert lanes.fmax[index] == bounds["fmax"]
            assert lanes.period_jitter[index] == vco.period_jitter(variant)
            assert lanes.current[index] == vco.current(variant)


def test_describe_lanes_matches_scalar_describe():
    shared = VcoVariationTables.constant()
    for plls in (make_population(shared_variation=shared), make_population()):
        vcos = [pll.vco for pll in plls]
        assert describe_lanes(vcos) == [vco.describe() for vco in vcos]


def test_shared_variation_batch_simulation_still_bit_identical():
    shared = VcoVariationTables.constant()
    plls = make_population(shared_variation=shared)
    batch = BehaviouralPll.simulate_batch(plls, variant="max", max_time=3e-6)
    for index, pll in enumerate(plls):
        scalar = oracle.simulate(pll, variant="max", max_time=3e-6)
        assert np.array_equal(batch.frequency[index], scalar.frequency)


# -- lane-parallel block twins (property-based) ---------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    errors=st.lists(
        st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False), min_size=1, max_size=8
    ),
    dead_zone=st.floats(min_value=0.0, max_value=5e-12),
)
def test_pfd_lanes_match_scalar_compare(errors, dead_zone):
    pfd = PhaseFrequencyDetector(dead_zone=dead_zone)
    lanes = PfdLanes.from_blocks([pfd] * len(errors))
    reference_edge = 1e-6
    feedback = np.array([reference_edge + error for error in errors])
    batched = lanes.compare(reference_edge, feedback)
    for index in range(len(errors)):
        scalar = oracle.pfd_compare(pfd, reference_edge, float(feedback[index]))
        assert batched.timing_error[index] == scalar.timing_error
        assert batched.up_width[index] == scalar.up_width
        assert batched.down_width[index] == scalar.down_width
        assert batched.net_width[index] == scalar.up_width - scalar.down_width


@settings(max_examples=50, deadline=None)
@given(
    charges=st.lists(
        st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    c2=st.one_of(st.just(0.0), st.floats(min_value=1e-14, max_value=3e-12)),
    voltage=st.floats(min_value=0.0, max_value=1.2),
)
def test_loop_filter_lanes_match_scalar_apply_charge(charges, c2, voltage):
    interval = 2.5e-8
    filters = [LoopFilter(c1=2e-12, c2=c2, r1=2e3) for _ in charges]
    lanes = LoopFilterLanes.from_blocks(filters)
    state = lanes.initialise(np.full(len(charges), voltage))
    new_state = lanes.apply_charge(state, np.asarray(charges), interval)
    output = lanes.output_voltage(new_state)
    for index, loop_filter in enumerate(filters):
        scalar_state = oracle.filter_apply_charge(
            loop_filter, (voltage, voltage), charges[index], interval
        )
        assert (new_state.v_c1[index], new_state.v_c2[index]) == scalar_state
        assert output[index] == oracle.filter_output(loop_filter, scalar_state)


def test_loop_filter_lanes_mixed_c2_population():
    """Lanes with and without a ripple capacitor advance side by side."""
    filters = [
        LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3),
        LoopFilter(c1=2e-12, c2=0.0, r1=2e3),
        LoopFilter(c1=3e-12, c2=1.0e-12, r1=1e3),
    ]
    lanes = LoopFilterLanes.from_blocks(filters)
    charge = np.array([1e-13, -2e-13, 5e-14])
    state = lanes.apply_charge(lanes.initialise(np.full(3, 0.6)), charge, 2.5e-8)
    for index, loop_filter in enumerate(filters):
        scalar = oracle.filter_apply_charge(
            loop_filter, (0.6, 0.6), float(charge[index]), 2.5e-8
        )
        assert (state.v_c1[index], state.v_c2[index]) == scalar


def test_charge_pump_lanes_match_scalar():
    pumps = [
        ChargePump(current=100e-6),
        ChargePump(current=80e-6, mismatch=0.04, leakage=1e-9),
        ChargePump(current=120e-6, mismatch=-0.02),
    ]
    lanes = ChargePumpLanes.from_blocks(pumps)
    pfd = PhaseFrequencyDetector()
    period = 2.5e-8
    errors = [3e-9, -1e-9, 0.0]
    batched_error = PfdLanes.from_blocks([pfd] * 3).compare(
        0.0, np.asarray(errors, dtype=float)
    )
    charge = lanes.charge(batched_error, period)
    for index, (pump, error) in enumerate(zip(pumps, errors)):
        scalar_error = oracle.pfd_compare(pfd, 0.0, error)
        assert charge[index] == oracle.pump_charge(pump, scalar_error, period)


def test_loop_filter_relaxation_hoisting_is_exact():
    """The hoisted decay factor equals the oracle's per-cycle expression."""
    filters = [
        LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3),
        LoopFilter(c1=2e-12, c2=0.0, r1=2e3),
    ]
    lanes = LoopFilterLanes.from_blocks(filters)
    interval = 2.5e-8
    decay = lanes.relaxation(interval)
    assert lanes.relaxation(interval) is decay  # cached per interval
    for index, loop_filter in enumerate(filters):
        assert decay[index] == oracle.filter_relaxation(loop_filter, interval)
    state = lanes.initialise(np.full(2, 0.6))
    charge = np.full(2, 1e-13)
    hoisted = lanes.apply_charge(state, charge, interval, decay=decay)
    recomputed = lanes.apply_charge(state, charge, interval)
    assert np.array_equal(hoisted.v_c1, recomputed.v_c1)
    assert np.array_equal(hoisted.v_c2, recomputed.v_c2)


def test_scalar_only_variation_callables_fall_back_to_lane_loop():
    """Shared tables whose callables cannot take arrays still work batched.

    A user-supplied spread callable with a data-dependent branch raises on
    array input; the lane engine must fall back to per-lane scalar calls
    instead of crashing, with identical results.
    """
    scalar_only = VcoVariationTables(
        kvco_delta=lambda v: 5.0 if v > 1e9 else 2.0,
        ivco_delta=lambda v: 3.0,
        jvco_delta=lambda v: 25.0 if v > 4e-12 else 10.0,
        fmin_delta=lambda v: 2.0,
        fmax_delta=lambda v: 2.0,
    )
    plls = make_population(shared_variation=scalar_only)
    vcos = [pll.vco for pll in plls]
    for variant in VARIANTS:
        lanes = VcoLanes.from_blocks(vcos, variant)
        for index, vco in enumerate(vcos):
            assert lanes.gain[index] == vco.gain(variant)
            assert lanes.period_jitter[index] == vco.period_jitter(variant)
    assert describe_lanes(vcos) == [vco.describe() for vco in vcos]
    batch = BehaviouralPll.simulate_batch(plls, max_time=3e-6)
    for index, pll in enumerate(plls):
        scalar = oracle.simulate(pll, max_time=3e-6)
        assert np.array_equal(batch.frequency[index], scalar.frequency)


def test_vco_lanes_frequency_and_divider_lanes_match_scalar():
    """Parity coverage for the lane twins' tuning curve and divider ratios."""
    from repro.behavioural import DividerLanes

    plls = make_population(n=5)
    vcos = [pll.vco for pll in plls]
    vctrl = np.array([0.3, 0.6, 0.9, 1.1, 1.4])  # includes out-of-range lanes
    for variant in VARIANTS:
        frequencies = VcoLanes.from_blocks(vcos, variant).frequency(vctrl)
        for index, vco in enumerate(vcos):
            expected = oracle.vco_frequency(vco, float(vctrl[index]), variant)
            assert frequencies[index] == expected
    dividers = [pll.divider for pll in plls]
    divider_lanes = DividerLanes.from_blocks(dividers)
    assert divider_lanes.n_lanes == 5
    assert divider_lanes.ratio.tolist() == [float(d.ratio) for d in dividers]


# -- lanes vs the oracle over random populations --------------------------------------


@st.composite
def lane_populations(draw):
    """Random loops: mixed ``c2 == 0`` lanes, a dead zone, a stalling VCO."""
    n = draw(st.integers(min_value=1, max_value=5))
    dead_zone = draw(st.sampled_from([0.0, 5e-12]))
    plls = []
    for _ in range(n):
        c2 = draw(st.one_of(st.just(0.0), st.floats(min_value=0.2e-12, max_value=3e-12)))
        design = PllDesign(
            c1=draw(st.floats(min_value=1e-12, max_value=6e-12)),
            c2=c2,
            r1=draw(st.floats(min_value=0.5e3, max_value=5e3)),
        )
        # A 150 % fmin spread floors the min-variant fmin at 0 Hz, so that
        # lane starts with a stalled VCO.
        fmin_spread = draw(st.sampled_from([2.0, 150.0]))
        vco = BehaviouralVco(
            kvco=draw(st.floats(min_value=0.5e9, max_value=2e9)),
            ivco=draw(st.floats(min_value=1e-3, max_value=6e-3)),
            jvco=draw(st.floats(min_value=1e-12, max_value=8e-12)),
            fmin=draw(st.floats(min_value=0.6e9, max_value=0.8e9)),
            fmax=draw(st.floats(min_value=1.1e9, max_value=1.4e9)),
            variation=VcoVariationTables.constant(fmin=fmin_spread),
        )
        pfd = PhaseFrequencyDetector(dead_zone=draw(st.sampled_from([0.0, dead_zone])))
        plls.append(BehaviouralPll(vco, design, pfd=pfd))
    variants = draw(st.lists(st.sampled_from(VARIANTS), min_size=n, max_size=n))
    return plls, variants


@settings(max_examples=25, deadline=None)
@given(
    population=lane_populations(),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
)
def test_random_lanes_match_oracle_at_any_batch_width(population, seed):
    plls, variants = population
    batch = BehaviouralPll.simulate_batch(plls, variant=variants, max_time=1e-6, seed=seed)
    performances = BehaviouralPll.evaluate_batch(
        plls, variant=variants, max_time=1e-6, seed=seed
    )
    for index, (pll, variant) in enumerate(zip(plls, variants)):
        scalar = oracle.simulate(pll, variant=variant, max_time=1e-6, seed=seed)
        width_one = BehaviouralPll.simulate_batch(
            [pll], variant=variant, max_time=1e-6, seed=seed
        )
        for lanes, row in ((batch, index), (width_one, 0)):
            assert np.array_equal(lanes.time, scalar.time)
            assert np.array_equal(lanes.control_voltage[row], scalar.control_voltage)
            assert np.array_equal(lanes.frequency[row], scalar.frequency)
            assert np.array_equal(lanes.phase_error[row], scalar.phase_error)
        expected = oracle.evaluate(pll, variant=variant, max_time=1e-6, seed=seed)
        assert_performance_equal(expected, performances[index])
        assert_performance_equal(
            expected, pll.evaluate(variant=variant, max_time=1e-6, seed=seed)
        )
