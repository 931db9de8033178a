"""Experiment runner: caching, resume bit-identity, odd-ring scenarios."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.cancel import CancelToken, JobCancelled
from repro.core.flow import HierarchicalFlow
from repro.experiments.cache import STAGES, ArtefactCache, CacheEntry
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ExperimentRunner

#: A deliberately tiny scenario so every test recomputes in well under a second.
TINY = ScenarioConfig(
    name="tiny-unit",
    description="runner unit-test scenario",
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
    seed=11,
)


def front_arrays(result):
    front = result.report.system_stage.optimisation.front
    parameters = np.vstack([ind.parameters for ind in front])
    objectives = np.vstack([ind.objectives for ind in front])
    return parameters, objectives


def assert_bit_identical(result_a, result_b):
    params_a, obj_a = front_arrays(result_a)
    params_b, obj_b = front_arrays(result_b)
    assert params_a.shape == params_b.shape
    assert np.array_equal(params_a, params_b)  # exact, not approx
    assert np.array_equal(obj_a, obj_b)
    assert result_a.report.selected_values == result_b.report.selected_values
    yield_a = result_a.report.yield_report
    yield_b = result_b.report.yield_report
    assert (yield_a is None) == (yield_b is None)
    if yield_a is not None:
        assert yield_a.yield_fraction == yield_b.yield_fraction
        assert yield_a.n_samples == yield_b.n_samples


# -- cache hit/miss -----------------------------------------------------------------------


def test_cold_run_computes_and_checkpoints_every_stage(tmp_path):
    result = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    assert result.stage_sources["circuit"] == "computed"
    assert result.stage_sources["system"] == "computed"
    assert not result.resumed
    entry = ArtefactCache(tmp_path).entry_for(TINY)
    assert entry.has("circuit") and entry.has("system")
    assert entry.read_scenario() == TINY
    assert entry.read_report_summary()["config_hash"] == TINY.config_hash()


def test_a_run_computes_the_config_hash_once(tmp_path, monkeypatch):
    # The hash keys the cache entry, the trace and the result: one JSON
    # dump and SHA-256 of the resolved scenario per run, not one per use.
    calls = []
    config_hash = ScenarioConfig.config_hash

    def counted(self):
        calls.append(self.name)
        return config_hash(self)

    monkeypatch.setattr(ScenarioConfig, "config_hash", counted)
    result = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    assert calls == [TINY.name]
    assert result.config_hash == config_hash(TINY)
    assert result.cache_dir == ArtefactCache(tmp_path).entry(config_hash(TINY)).directory


def test_second_run_resumes_fully_and_is_bit_identical(tmp_path):
    cold = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    warm = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    assert warm.resumed
    assert warm.stage_sources["circuit"] == "cached"
    assert warm.stage_sources["system"] == "cached"
    assert_bit_identical(cold, warm)


def test_partial_resume_skips_circuit_stage_bit_identically(tmp_path):
    """Resume with only the circuit checkpoint: later stages recompute
    from the unpickled model and must match the cold run bit for bit."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    entry_dir = cold.cache_dir
    os.remove(entry_dir / "system.pkl")
    if (entry_dir / "yield.pkl").exists():
        os.remove(entry_dir / "yield.pkl")
    partial = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    assert partial.stage_sources["circuit"] == "cached"
    assert partial.stage_sources["system"] == "computed"
    assert_bit_identical(cold, partial)


def test_backends_share_cache_entries(tmp_path):
    """The evaluation backend is excluded from the hash (bit-identical by
    invariant), so a vectorised rerun resumes from a serial run's cache."""
    serial = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    vectorised = ExperimentRunner(
        TINY.with_overrides(evaluation="vectorised"), cache_dir=tmp_path
    ).run()
    assert vectorised.stage_sources["circuit"] == "cached"
    assert_bit_identical(serial, vectorised)


def test_force_recomputes_despite_cache(tmp_path):
    ExperimentRunner(TINY, cache_dir=tmp_path).run()
    forced = ExperimentRunner(TINY, cache_dir=tmp_path, force=True).run()
    assert forced.stage_sources["circuit"] == "computed"
    assert forced.stage_sources["system"] == "computed"


def test_different_seed_misses_cache(tmp_path):
    ExperimentRunner(TINY, cache_dir=tmp_path).run()
    other = ExperimentRunner(TINY.with_overrides(seed=12), cache_dir=tmp_path).run()
    assert not other.resumed
    assert len(ArtefactCache(tmp_path).entries()) == 2


def test_output_directory_exports_model(tmp_path):
    out = tmp_path / "artefacts"
    result = ExperimentRunner(TINY, cache_dir=tmp_path / "cache").run(
        output_directory=str(out)
    )
    assert result.report.model_directory is not None
    assert any(name.endswith(".tbl") for name in result.report.generated_files)
    assert any(name.endswith(".va") for name in result.report.generated_files)


# -- ring-topology scenarios --------------------------------------------------------------


def test_odd_stage_count_scenario_through_full_flow(tmp_path):
    """A 3-stage ring flows end to end: evaluator, mismatch geometries and
    the yield analysis all follow the scenario's stage count."""
    scenario = TINY.with_overrides(name="tiny-3stage", n_stages=3)
    from repro.core.flow import HierarchicalFlow

    flow = HierarchicalFlow.from_scenario(scenario)
    assert flow.n_stages == 3
    assert flow.evaluator.n_stages == 3

    result = ExperimentRunner(scenario, cache_dir=tmp_path).run()
    summary = result.report.summary()
    assert summary["circuit_front_size"] >= 1
    assert summary["system_front_size"] >= 1
    assert "yield_percent" in summary
    # Distinct topology, distinct cache entry.
    assert scenario.config_hash() != TINY.config_hash()


def test_generic065_scenario_through_full_flow(tmp_path):
    """The technology axis is real: the 65 nm card flows end to end and
    lands in its own cache entry (the resolved card is part of the hash)."""
    from repro.core.flow import HierarchicalFlow
    from repro.experiments.registry import get_scenario

    assert get_scenario("table2-65n").technology == "generic065"
    scenario = TINY.with_overrides(name="tiny-65n", technology="generic065")
    flow = HierarchicalFlow.from_scenario(scenario)
    assert flow.technology.name == "generic065"
    assert flow.evaluator.technology.name == "generic065"

    result = ExperimentRunner(scenario, cache_dir=tmp_path).run()
    summary = result.report.summary()
    assert summary["circuit_front_size"] >= 1
    assert summary["system_front_size"] >= 1
    assert scenario.config_hash() != TINY.config_hash()


def test_from_scenario_honours_optional_stage_selection():
    """flow.run() with no arguments executes exactly the scenario's stages."""
    from repro.core.flow import HierarchicalFlow

    scenario = TINY.with_overrides(name="tiny-verify", run_verification=True)
    report = HierarchicalFlow.from_scenario(scenario).run()
    assert report.verification is not None
    assert report.yield_report is not None  # run_yield=True default honoured

    no_yield = TINY.with_overrides(name="tiny-no-yield", run_yield=False)
    report = HierarchicalFlow.from_scenario(no_yield).run()
    assert report.yield_report is None
    # Explicit arguments still win over the scenario defaults.
    report = HierarchicalFlow.from_scenario(no_yield).run(run_yield=True)
    assert report.yield_report is not None


def test_runner_stage_hook_fires_for_computed_and_cached_stages(tmp_path):
    """The runner's stage_hook seam fires per satisfied stage, resumed or
    not, and summarise_stage turns every artefact into a flat JSON payload."""
    import json

    from repro.core.flow import summarise_stage

    seen = []
    ExperimentRunner(TINY, cache_dir=tmp_path).run(
        stage_hook=lambda stage, artefact: seen.append((stage, artefact))
    )
    assert [stage for stage, _ in seen][:2] == ["circuit", "system"]
    for stage, artefact in seen:
        payload = summarise_stage(stage, artefact)
        assert json.dumps(payload)  # JSON-compatible
        assert all(isinstance(value, float) for value in payload.values())
        if stage == "circuit":
            assert payload["front_size"] >= 1
    # Cached stages fire the hook with the unpickled artefact too.
    resumed = []
    ExperimentRunner(TINY, cache_dir=tmp_path).run(
        stage_hook=lambda stage, artefact: resumed.append(stage)
    )
    assert resumed == [stage for stage, _ in seen]
    # Unknown stages / artefacts degrade to an empty payload, never raise.
    assert summarise_stage("netlist", object()) == {}


def test_stage_hook_checkpoints_through_flow_run(tmp_path):
    """HierarchicalFlow.run's stage_hook fires once per executed stage."""
    from repro.core.flow import HierarchicalFlow

    flow = HierarchicalFlow.from_scenario(TINY)
    seen = []
    flow.run(run_yield=True, stage_hook=lambda stage, artefact: seen.append(stage))
    assert seen[:2] == ["circuit", "system"]
    assert "yield" in seen or len(seen) == 2  # yield only runs with a selected design


# -- cache internals ----------------------------------------------------------------------


def test_cache_entry_rejects_unknown_stage(tmp_path):
    entry = CacheEntry(tmp_path / "deadbeef")
    with pytest.raises(ValueError):
        entry.has("netlist")
    with pytest.raises(FileNotFoundError):
        entry.load("circuit")


def test_read_scenario_tolerates_foreign_metadata(tmp_path):
    """scenario.json from another package version yields None, not a crash."""
    entry = CacheEntry(tmp_path / "feed")
    entry.write_scenario(TINY)
    assert entry.read_scenario() == TINY
    # Unknown field (newer version wrote it) -> None.
    data = TINY.as_dict()
    data["future_field"] = 1
    entry._write_json("scenario.json", data)
    assert entry.read_scenario() is None
    # Corrupt JSON -> None.
    (entry.directory / "scenario.json").write_text("{not json")
    assert entry.read_scenario() is None


def test_cache_store_is_atomic_and_loadable(tmp_path):
    entry = CacheEntry(tmp_path / "cafe")
    payload = {"x": np.arange(5), "y": 1.5}
    entry.store("circuit", payload)
    loaded = entry.load("circuit")
    assert loaded["y"] == 1.5
    assert np.array_equal(loaded["x"], payload["x"])
    assert entry.stages_present() == ["circuit"]
    # No temp files left behind.
    leftovers = [p for p in (tmp_path / "cafe").iterdir() if p.name.startswith(".")]
    assert not leftovers


# -- mid-stage progress hook --------------------------------------------------------------


def test_progress_hook_fires_per_generation_and_batch(tmp_path):
    """The progress seam reports every persisted mid-stage checkpoint:
    NSGA-II generations with the live Pareto front, Monte Carlo batches
    with the running yield estimate -- and observing them never changes
    the result."""
    seen = []
    observed = ExperimentRunner(TINY, cache_dir=tmp_path, yield_batch_size=3).run(
        progress_hook=lambda stage, payload: seen.append((stage, payload))
    )

    circuit = [payload for stage, payload in seen if stage == "circuit"]
    assert circuit, "no per-generation circuit progress"
    assert [p["generation"] for p in circuit] == sorted(p["generation"] for p in circuit)
    last = circuit[-1]
    assert last["front"], "final generation reported an empty front"
    assert all(
        isinstance(value, float) for point in last["front"] for value in point.values()
    )
    assert last["front_size"] > 0
    assert last["evaluations"] > 0

    mc = [payload for stage, payload in seen if stage == "yield"]
    assert mc, "no per-batch yield progress"
    assert [p["samples_done"] for p in mc] == sorted(p["samples_done"] for p in mc)
    assert all(p["n_samples"] == TINY.yield_samples for p in mc)
    assert mc[-1]["yield_percent_so_far"] is not None

    # Observation does not perturb the computation.
    plain = ExperimentRunner(TINY, cache_dir=tmp_path / "plain").run()
    assert_bit_identical(observed, plain)


def test_progress_hook_is_silent_on_cached_stages(tmp_path):
    ExperimentRunner(TINY, cache_dir=tmp_path).run()
    seen = []
    warm = ExperimentRunner(TINY, cache_dir=tmp_path).run(
        progress_hook=lambda stage, payload: seen.append(stage)
    )
    assert warm.resumed
    assert seen == []  # cached stages never re-execute the optimiser


def test_progress_hook_failures_never_break_the_run(tmp_path):
    def explode(stage, payload):
        raise RuntimeError("observer crashed")

    result = ExperimentRunner(TINY, cache_dir=tmp_path, yield_batch_size=3).run(
        progress_hook=explode
    )
    assert result.stage_sources["circuit"] == "computed"
    assert result.report.yield_report is not None


# -- one stage sequence: flow.run and the runner -----------------------------------------


def test_flow_run_observes_cancellation_between_stages():
    """A token cancelled from the ``system`` stage hook stops the flow
    before the next stage, exactly like the runner."""
    token = CancelToken()
    seen = []

    def hook(stage, artefact):
        seen.append(stage)
        if stage == "system":
            token.cancel()

    flow = HierarchicalFlow.from_scenario(TINY)
    with pytest.raises(JobCancelled):
        flow.run(run_yield=False, run_verification=True, stage_hook=hook, cancel=token)
    assert seen == ["circuit", "system"]


@pytest.mark.parametrize(
    "optional_stage, overrides",
    [("verification", {"run_verification": True}), ("corners", {"corners": "standard"})],
)
def test_flow_run_and_runner_produce_identical_stage_bytes(tmp_path, optional_stage, overrides):
    """``HierarchicalFlow.run`` and the cache-backed runner drive one stage
    sequence: every artefact pickles to the bytes of the runner's
    ``<stage>.pkl``, and a stage that does not run is absent from both."""
    scenario = dataclasses.replace(TINY, **overrides)
    report = HierarchicalFlow.from_scenario(scenario).run()
    result = ExperimentRunner(scenario, cache_dir=tmp_path, yield_batch_size=3).run()
    artefacts = {
        "circuit": report.circuit_stage,
        "corners": report.corner_report,
        "system": report.system_stage,
        "yield": report.yield_report,
        "verification": report.verification,
    }
    assert artefacts[optional_stage] is not None
    for stage in STAGES:
        path = result.cache_dir / f"{stage}.pkl"
        if artefacts[stage] is None:
            assert not path.exists(), stage
            assert result.stage_sources[stage] == "skipped"
        else:
            expected = pickle.dumps(artefacts[stage], protocol=pickle.HIGHEST_PROTOCOL)
            assert path.read_bytes() == expected, stage
