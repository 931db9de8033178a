"""Tests for the Monte Carlo engine and statistics helpers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.topology import get_topology
from repro.process import (
    TECH_012UM,
    TECH_065NM,
    GlobalVariationModel,
    MonteCarloEngine,
    PerformanceSpread,
    VariationSpec,
    parametric_yield,
    process_capability,
    spread_percent,
    summarise_samples,
)
from repro.process.mismatch import DeviceGeometry, MismatchModel, MismatchSample


def _evaluator(technology, mismatch):
    """Toy evaluator: performances depend on the varied model parameters."""
    vth = technology.nmos.vth0
    u0 = technology.nmos.u0
    delta = mismatch.for_device("m1").get("vth0", 0.0) if mismatch else 0.0
    return {"speed": u0 / vth, "offset": delta * 1e3, "constant": 42.0}


# -- statistics helpers ---------------------------------------------------------------


def test_spread_percent_basic():
    samples = [9.0, 10.0, 11.0]
    assert spread_percent(samples) == pytest.approx(10.0, rel=0.01)


def test_spread_percent_zero_mean_uses_nominal():
    assert spread_percent([-1.0, 1.0], nominal=10.0) == pytest.approx(
        100.0 * np.std([-1.0, 1.0], ddof=1) / 10.0
    )


def test_spread_percent_empty_raises():
    with pytest.raises(ValueError):
        spread_percent([])


def test_performance_spread_properties():
    spread = PerformanceSpread(
        "kvco", nominal=1e9, mean=1.1e9, std=1.1e7, minimum=1e9, maximum=1.2e9, n_samples=100
    )
    assert spread.spread_percent == pytest.approx(1.0)
    assert spread.lower_bound == pytest.approx(1.1e9 - 1.1e7)
    assert spread.upper_bound == pytest.approx(1.1e9 + 1.1e7)


def test_summarise_samples():
    summary = summarise_samples({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0]}, {"a": 2.0})
    assert summary["a"].mean == pytest.approx(2.0)
    assert summary["a"].nominal == 2.0
    assert summary["b"].std == 0.0
    with pytest.raises(ValueError):
        summarise_samples({"empty": []})


def test_parametric_yield_all_pass():
    samples = {"x": [1.0, 2.0, 3.0]}
    assert parametric_yield(samples, {"x": (0.0, 5.0)}) == 1.0


def test_parametric_yield_partial():
    samples = {"x": [1.0, 2.0, 3.0, 10.0]}
    assert parametric_yield(samples, {"x": (None, 5.0)}) == pytest.approx(0.75)


def test_parametric_yield_multiple_specs_joint():
    samples = {"x": [1.0, 2.0, 3.0], "y": [10.0, 0.0, 10.0]}
    result = parametric_yield(samples, {"x": (None, 2.5), "y": (5.0, None)})
    assert result == pytest.approx(1.0 / 3.0)


def test_parametric_yield_no_specs_is_one():
    assert parametric_yield({"x": [1.0]}, {}) == 1.0


def test_parametric_yield_missing_performance_raises():
    with pytest.raises(KeyError):
        parametric_yield({"x": [1.0]}, {"y": (0.0, 1.0)})


def test_parametric_yield_mismatched_lengths_raises():
    with pytest.raises(ValueError):
        parametric_yield({"x": [1.0, 2.0], "y": [1.0]}, {"x": (0, 5), "y": (0, 5)})


def test_process_capability():
    samples = np.random.default_rng(0).normal(5.0, 0.5, size=400)
    cpk = process_capability(samples, lower=2.0, upper=8.0)
    assert cpk == pytest.approx(2.0, rel=0.15)
    assert process_capability(samples, upper=8.0) > 0.0
    with pytest.raises(ValueError):
        process_capability(samples)
    with pytest.raises(ValueError):
        process_capability([1.0], lower=0.0)


# -- Monte Carlo engine -----------------------------------------------------------------


def test_engine_validation():
    with pytest.raises(ValueError):
        MonteCarloEngine(TECH_012UM, n_samples=0)


def test_engine_reproducible_with_seed():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    engine_a = MonteCarloEngine(TECH_012UM, n_samples=20, seed=3)
    engine_b = MonteCarloEngine(TECH_012UM, n_samples=20, seed=3)
    result_a = engine_a.run(_evaluator, devices=devices)
    result_b = engine_b.run(_evaluator, devices=devices)
    assert np.array_equal(result_a.values("speed"), result_b.values("speed"))
    assert np.array_equal(result_a.values("offset"), result_b.values("offset"))


def test_engine_different_seeds_differ():
    result_a = MonteCarloEngine(TECH_012UM, n_samples=10, seed=1).run(_evaluator)
    result_b = MonteCarloEngine(TECH_012UM, n_samples=10, seed=2).run(_evaluator)
    assert not np.allclose(result_a.values("speed"), result_b.values("speed"))


def test_engine_produces_requested_sample_count():
    result = MonteCarloEngine(TECH_012UM, n_samples=17, seed=5).run(_evaluator)
    assert result.n_samples == 17
    assert set(result.performance_names) == {"speed", "offset", "constant"}


def test_engine_nominal_computed_when_not_given():
    result = MonteCarloEngine(TECH_012UM, n_samples=5, seed=6).run(_evaluator)
    expected = _evaluator(TECH_012UM, MismatchSample())
    assert result.nominal["speed"] == pytest.approx(expected["speed"])


def test_engine_spreads_and_yield():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    result = MonteCarloEngine(TECH_012UM, n_samples=200, seed=7).run(_evaluator, devices=devices)
    spreads = result.spreads()
    assert spreads["speed"].spread_percent > 0.5
    assert spreads["constant"].spread_percent == 0.0
    assert result.spread_percent("constant") == 0.0
    assert result.yield_fraction({"constant": (0.0, 100.0)}) == 1.0
    assert 0.0 < result.yield_fraction({"offset": (0.0, None)}) < 1.0


def test_engine_without_mismatch_devices_has_zero_offset():
    result = MonteCarloEngine(TECH_012UM, n_samples=10, seed=8).run(_evaluator)
    assert np.allclose(result.values("offset"), 0.0)


def test_engine_disable_global_variation():
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=9, include_global=False)
    result = engine.run(_evaluator)
    assert np.allclose(result.values("speed"), result.nominal["speed"])


def test_engine_empty_evaluator_result_raises():
    engine = MonteCarloEngine(TECH_012UM, n_samples=2, seed=10)
    with pytest.raises(ValueError):
        engine.run(lambda tech, mm: {})


def test_engine_samples_iterator_is_reproducible():
    engine = MonteCarloEngine(TECH_012UM, n_samples=5, seed=11)
    first = [s.technology.nmos.vth0 for s in engine.samples()]
    second = [s.technology.nmos.vth0 for s in engine.samples()]
    assert np.array_equal(first, second)
    assert len(first) == 5


# -- batch evaluation path ---------------------------------------------------------------


def _batch_evaluator(samples):
    """Batch counterpart of ``_evaluator`` (one result dict per sample)."""
    return [_evaluator(sample.technology, sample.mismatch) for sample in samples]


def test_run_batch_matches_run_bitwise():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    engine = MonteCarloEngine(TECH_012UM, n_samples=50, seed=21)
    serial = engine.run(_evaluator, devices=devices)
    batch = engine.run_batch(_batch_evaluator, devices=devices)
    assert serial.performances == batch.performances
    assert serial.nominal == batch.nominal


def test_run_batch_without_devices_matches_run():
    engine = MonteCarloEngine(TECH_012UM, n_samples=12, seed=22)
    serial = engine.run(_evaluator)
    batch = engine.run_batch(_batch_evaluator)
    assert serial.performances == batch.performances


def test_run_batch_honours_given_nominal():
    engine = MonteCarloEngine(TECH_012UM, n_samples=3, seed=23)
    nominal = {"speed": 1.0, "offset": 0.0, "constant": 42.0}
    result = engine.run_batch(_batch_evaluator, nominal=nominal)
    assert result.nominal == nominal


def test_run_batch_rejects_wrong_result_count():
    engine = MonteCarloEngine(TECH_012UM, n_samples=4, seed=24)
    with pytest.raises(ValueError):
        engine.run_batch(lambda samples: [_evaluator(samples[0].technology, samples[0].mismatch)])


def test_run_batch_rejects_empty_results():
    engine = MonteCarloEngine(TECH_012UM, n_samples=2, seed=25)
    with pytest.raises(ValueError):
        engine.run_batch(lambda samples: [{} for _ in samples])


def test_sample_batch_matches_iterator_stream():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6), DeviceGeometry("m2", 20e-6, 0.24e-6)]
    engine = MonteCarloEngine(TECH_012UM, n_samples=8, seed=26)
    batch = engine.sample_batch(devices)
    streamed = list(engine.samples(devices))
    assert len(batch) == len(streamed) == 8
    for a, b in zip(batch, streamed):
        assert a.technology.nmos.vth0 == b.technology.nmos.vth0
        assert a.mismatch.deltas == b.mismatch.deltas


def test_sample_batch_slices_keep_sample_indices():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    batch = MonteCarloEngine(TECH_012UM, n_samples=10, seed=27).sample_batch(devices)
    part = batch[3:7]
    assert len(part) == 4
    assert [sample.index for sample in part] == [3, 4, 5, 6]
    assert part[0].mismatch.deltas == batch[3].mismatch.deltas
    assert part[-1].technology == batch[6].technology
    with pytest.raises(IndexError):
        batch[10]


def test_mismatch_truncation_zero_means_untruncated():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    model = MismatchModel(truncation=0.0)
    sample = model.sample(devices, np.random.default_rng(5))
    z_vth, z_beta = np.random.default_rng(5).standard_normal(2)
    assert sample.for_device("m1")["vth0"] == z_vth * model.sigma_vth(10e-6, 0.12e-6)
    assert sample.for_device("m1")["u0_rel"] == z_beta * model.sigma_beta(10e-6, 0.12e-6)
    # Through the engine's one batch call, no delta is zeroed either.
    engine = MonteCarloEngine(TECH_012UM, mismatch=model, n_samples=50, seed=28)
    vth0, _ = engine.sample_batch(devices).mismatch_columns("m1")
    assert np.all(vth0 != 0.0)


# -- structure-of-arrays draws against the per-sample oracle -------------------------------

_FLOORED = ("tox", "u0", "phi", "n_sub", "e_crit")

_SPEC_SETS = {
    "default": None,
    # Sigmas wide enough that the 5 % physical floor of tox/u0 engages.
    "floored": {
        "nmos": [
            VariationSpec("tox", sigma=0.6, relative=True, correlation_group="tox"),
            VariationSpec("u0", sigma=0.6, relative=True),
        ],
        "pmos": [
            VariationSpec("tox", sigma=0.6, relative=True, correlation_group="tox"),
            VariationSpec("u0", sigma=0.6, relative=True, truncation=0.0),
        ],
    },
    # A cross-polarity group and a parameter varied twice (deltas accumulate).
    "grouped": {
        "nmos": [
            VariationSpec("vth0", sigma=0.02, correlation_group="vt"),
            VariationSpec("vth0", sigma=0.01, truncation=2.0),
            VariationSpec("ld", sigma=3.0e-9),
        ],
        "pmos": [VariationSpec("vth0", sigma=0.02, correlation_group="vt")],
    },
}


def _oracle_samples(engine, devices):
    """Literal transcription of the historical per-sample drawing loops.

    One deliberate difference: a mismatch ``truncation <= 0`` means no
    truncation (the loop used to clip every draw to zero).
    """
    rng = np.random.default_rng(engine.seed)
    use_mismatch = engine.include_mismatch and bool(devices)
    k_variation = engine.variation.n_random_variables if engine.include_global else 0
    k_mismatch = 2 * len(devices) if use_mismatch else 0
    width = k_variation + k_mismatch
    draws = (
        rng.standard_normal((engine.n_samples, width))
        if width
        else np.zeros((engine.n_samples, 0))
    )
    samples = []
    for index in range(engine.n_samples):
        row = draws[index]
        technology = engine.technology
        if engine.include_global:
            cursor = 0
            group_draws = {}
            deltas = {"nmos": {}, "pmos": {}}
            for polarity, spec_list in engine.variation.specs.items():
                model = technology.model(polarity)
                for spec in spec_list:
                    if spec.correlation_group is not None:
                        if spec.correlation_group not in group_draws:
                            group_draws[spec.correlation_group] = float(row[cursor])
                            cursor += 1
                        z = group_draws[spec.correlation_group]
                    else:
                        z = float(row[cursor])
                        cursor += 1
                    if spec.truncation > 0.0:
                        z = float(np.clip(z, -spec.truncation, spec.truncation))
                    nominal = getattr(model, spec.parameter)
                    sigma_abs = spec.sigma * abs(nominal) if spec.relative else spec.sigma
                    deltas[polarity][spec.parameter] = (
                        deltas[polarity].get(spec.parameter, 0.0) + z * sigma_abs
                    )
            cards = {}
            for polarity in ("nmos", "pmos"):
                model = technology.model(polarity)
                overrides = {}
                for attribute, delta in deltas[polarity].items():
                    current = getattr(model, attribute)
                    shifted = current + delta
                    if attribute in _FLOORED:
                        shifted = max(shifted, 0.05 * current)
                    overrides[attribute] = shifted
                cards[polarity] = model.with_variation(**overrides) if overrides else model
            technology = dataclasses.replace(technology, nmos=cards["nmos"], pmos=cards["pmos"])
        mismatch = MismatchSample()
        if use_mismatch:
            limit = engine.mismatch.truncation
            for j, device in enumerate(devices):
                z_vth = float(row[k_variation + 2 * j])
                z_beta = float(row[k_variation + 2 * j + 1])
                if limit > 0.0:
                    z_vth = float(np.clip(z_vth, -limit, limit))
                    z_beta = float(np.clip(z_beta, -limit, limit))
                mismatch.deltas[device.name] = {
                    "vth0": z_vth * engine.mismatch.sigma_vth(device.width, device.length),
                    "u0_rel": z_beta * engine.mismatch.sigma_beta(device.width, device.length),
                }
        samples.append((index, technology, mismatch))
    return samples


def _bits(value):
    return float(value).hex() if isinstance(value, float) else value


def _card_bits(card):
    return [_bits(getattr(card, f.name)) for f in dataclasses.fields(card)]


def _mismatch_bits(mismatch):
    return {
        name: {key: _bits(value) for key, value in deltas.items()}
        for name, deltas in mismatch.deltas.items()
    }


def _engine(data):
    technology = data.draw(st.sampled_from([TECH_012UM, TECH_065NM]))
    specs = _SPEC_SETS[data.draw(st.sampled_from(sorted(_SPEC_SETS)))]
    return MonteCarloEngine(
        technology,
        variation=GlobalVariationModel(specs),
        mismatch=MismatchModel(truncation=data.draw(st.sampled_from([4.0, 1.5, 0.0]))),
        n_samples=data.draw(st.integers(1, 40)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
        include_global=data.draw(st.booleans()),
        include_mismatch=data.draw(st.booleans()),
    )


_geometry = st.tuples(st.floats(1e-6, 100e-6), st.floats(0.05e-6, 1e-6))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), geometries=st.lists(_geometry, max_size=6))
def test_sample_batch_matches_per_sample_oracle_bitwise(data, geometries):
    devices = [DeviceGeometry(f"d{j}", w, l) for j, (w, l) in enumerate(geometries)]
    engine = _engine(data)
    batch = engine.sample_batch(devices)
    expected = _oracle_samples(engine, devices)
    assert len(batch) == len(expected)
    for sample, (index, technology, mismatch) in zip(batch, expected):
        assert sample.index == index
        for polarity in ("nmos", "pmos"):
            assert _card_bits(sample.technology.model(polarity)) == _card_bits(
                technology.model(polarity)
            )
        assert sample.technology.vdd == technology.vdd
        assert _mismatch_bits(sample.mismatch) == _mismatch_bits(mismatch)
    # The columns the array kernels read carry the same bits.
    for polarity in ("nmos", "pmos"):
        for name, column in batch.card_columns(polarity).items():
            oracle = np.array([getattr(t.model(polarity), name) for _, t, _ in expected])
            assert column.tobytes() == oracle.tobytes()
    for matrix, key in ((batch.mismatch_vth0, "vth0"), (batch.mismatch_u0_rel, "u0_rel")):
        oracle = [[m.deltas[n][key] for n in batch.device_names] for _, _, m in expected]
        assert matrix.tobytes() == np.array(oracle, dtype=float).reshape(matrix.shape).tobytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), topology=st.sampled_from(["ring-vco", "pseudodiff-vco"]))
def test_evaluate_batch_on_sample_batch_matches_scalar_loop_bitwise(data, topology):
    circuit = get_topology(topology)
    design = circuit.design_cls()
    devices = circuit.device_geometries(design, n_stages=circuit.default_n_stages)
    # A subset of the matched devices: the others carry no mismatch.
    devices = data.draw(st.lists(st.sampled_from(devices), unique_by=lambda d: d.name))
    engine = _engine(data)
    evaluator = circuit.analytical_evaluator(engine.technology)
    batch = engine.sample_batch(devices)
    vectorised = evaluator.evaluate_batch([design], samples=batch)
    scalar = [
        evaluator.evaluate(design, technology=sample.technology, mismatch=sample.mismatch)
        for sample in batch
    ]
    assert len(vectorised) == len(scalar)
    for a, b in zip(vectorised, scalar):
        assert {k: _bits(v) for k, v in a.as_dict().items()} == {
            k: _bits(v) for k, v in b.as_dict().items()
        }
