"""The hard invariant of the observability layer: artefact bytes are
identical with tracing on and off, and traced runs still merge spans
from real process-pool workers."""

import os

from repro.experiments.cache import ArtefactCache
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ExperimentRunner
from repro.obs import trace as obs_trace

TINY = dict(
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
)


def _stage_pickle_bytes(cache_dir, scenario):
    entry = ArtefactCache(cache_dir).entry_for(scenario)
    return {
        path.name: path.read_bytes()
        for path in sorted(entry.directory.glob("*.pkl"))
    }


def test_artefacts_byte_identical_with_and_without_obs(tmp_path, monkeypatch):
    scenario = ScenarioConfig(name="obs-identity", seed=313, **TINY)

    monkeypatch.setenv("REPRO_OBS", "1")
    ExperimentRunner(scenario, cache_dir=tmp_path / "traced").run()
    monkeypatch.setenv("REPRO_OBS", "0")
    ExperimentRunner(scenario, cache_dir=tmp_path / "dark").run()

    traced = _stage_pickle_bytes(tmp_path / "traced", scenario)
    dark = _stage_pickle_bytes(tmp_path / "dark", scenario)
    assert traced.keys() == dark.keys()
    for name in traced:
        assert traced[name] == dark[name], f"{name} diverged with tracing on"

    # The only difference between the two entries is the trace itself.
    traced_entry = ArtefactCache(tmp_path / "traced").entry_for(scenario)
    dark_entry = ArtefactCache(tmp_path / "dark").entry_for(scenario)
    assert traced_entry.read_trace(), "traced run recorded no spans"
    assert dark_entry.read_trace() is None


def test_runner_persists_trace_with_expected_span_names(tmp_path):
    scenario = ScenarioConfig(name="obs-spans", seed=99, **TINY)
    ExperimentRunner(scenario, cache_dir=tmp_path).run()
    spans = ArtefactCache(tmp_path).entry_for(scenario).read_trace()
    names = {record["name"] for record in spans}
    assert "runner.run" in names
    assert "stage.circuit" in names and "stage.system" in names
    assert "nsga2.generation" in names
    assert "yield.mc_batch" in names
    assert "checkpoint.store" in names
    assert {record["trace_id"] for record in spans} == {scenario.config_hash()}


def test_spice_pool_worker_spans_merge_into_the_parent_trace():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator
    from repro.circuits.ring_vco import VcoDesign
    from repro.process import TECH_012UM

    designs = [VcoDesign()] * 4
    evaluator = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2, lane_width=2
    )
    untraced = evaluator.evaluate_batch(designs)
    with obs_trace.start_trace("spicetrace") as trace:
        traced = evaluator.evaluate_batch(designs)

    # Observability must not perturb the numbers.
    for a, b in zip(untraced, traced):
        assert a.as_dict() == b.as_dict()

    spans = trace.spans
    batch = next(r for r in spans if r["name"] == "spice.evaluate_batch")
    chunks = [r for r in spans if r["name"] == "spice.lane_chunk"]
    assert len(chunks) == batch["attrs"]["n_chunks"] == 2
    assert all(r["attrs"]["n_tasks"] == 2 for r in chunks)
    assert {r["parent_id"] for r in chunks} == {batch["span_id"]}
    assert {r["trace_id"] for r in chunks} == {"spicetrace"}
    # The chunks genuinely ran in pool workers, not in this process.
    assert any(r["pid"] != os.getpid() for r in chunks)


def test_spice_lane_pool_worker_spans_merge_into_the_parent_trace():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator
    from repro.circuits.ring_vco import VcoDesign
    from repro.process import TECH_012UM

    designs = [VcoDesign(), VcoDesign(tail_nmos_width=20e-6), VcoDesign(), VcoDesign()]
    evaluator = RingVcoSpiceEvaluator(
        TECH_012UM, dt=60e-12, sim_cycles=2, n_workers=2, lane_width=1
    )
    untraced = evaluator.evaluate_batch(designs)
    with obs_trace.start_trace("lanetrace") as trace:
        traced = evaluator.evaluate_batch(designs)

    assert [a.as_dict() for a in untraced] == [b.as_dict() for b in traced]

    spans = trace.spans
    batch = next(r for r in spans if r["name"] == "spice.evaluate_batch")
    chunks = [r for r in spans if r["name"] == "spice.lane_chunk"]
    assert len(chunks) == batch["attrs"]["n_chunks"] == len(designs)
    assert sorted(r["attrs"]["chunk"] for r in chunks) == list(range(len(designs)))
    assert {r["parent_id"] for r in chunks} == {batch["span_id"]}
    assert {r["trace_id"] for r in chunks} == {"lanetrace"}
    assert any(r["pid"] != os.getpid() for r in chunks)
