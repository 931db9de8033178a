"""Circuit-stage NSGA-II generation checkpoints through the runner:
interrupt == resume (bit for bit), cancel == resume, --force discards.

Mirrors tests/experiments/test_yield_checkpoint.py for the mid-stage
partial the circuit stage gained (`circuit.partial.pkl`, one state per
NSGA-II generation)."""

import pickle

import pytest

from repro.cancel import CancelToken, JobCancelled
from repro.core.flow import HierarchicalFlow
from repro.experiments.cache import ArtefactCache, CacheEntry
from repro.experiments.runner import ExperimentRunner, _StagePartial

from tests.experiments.test_runner import TINY, assert_bit_identical


class CrashingPartial(_StagePartial):
    """Real cache-entry-backed checkpoint that dies after N stores."""

    def __init__(self, entry, stage, fail_after):
        super().__init__(entry, stage)
        self.stores = 0
        self.fail_after = fail_after

    def store(self, state):
        super().store(state)
        self.stores += 1
        if self.stores >= self.fail_after:
            raise KeyboardInterrupt("simulated mid-NSGA-II crash")


def artefact_bytes(entry, stage):
    return pickle.dumps(entry.load(stage), protocol=4)


def test_interrupted_circuit_stage_resumes_bit_identically(tmp_path):
    """Crash the circuit stage mid-NSGA-II through the real disk-backed
    partial; the resumed runner must produce byte-identical artefacts."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path / "a").run()
    cold_entry = ArtefactCache(tmp_path / "a").entry_for(TINY)

    cache_b = tmp_path / "b"
    entry = ArtefactCache(cache_b).entry_for(TINY)
    flow = HierarchicalFlow.from_scenario(TINY)
    with pytest.raises(KeyboardInterrupt):
        flow.circuit_stage(checkpoint=CrashingPartial(entry, "circuit", fail_after=2))
    state = entry.load_partial("circuit")
    assert state is not None
    assert state["generation"] == 1  # initial population + one generation
    assert not entry.has("circuit")

    resumed = ExperimentRunner(TINY, cache_dir=cache_b).run()
    assert resumed.stage_sources["circuit"] == "computed"
    assert_bit_identical(cold, resumed)
    # The artefacts on disk are byte-identical, not just value-equal.
    assert cold_entry.stages_present() == entry.stages_present()
    for stage in entry.stages_present():
        assert artefact_bytes(cold_entry, stage) == artefact_bytes(entry, stage), stage
    # The finished circuit stage owns the work: no partial left behind.
    assert entry.load_partial("circuit") is None


def test_kill_between_model_build_and_circuit_store_resumes_bit_identically(
    tmp_path, monkeypatch
):
    """The model build's final ``clear`` writes nothing: a run killed
    after it, before ``circuit.pkl`` is stored, keeps the partial with
    its Monte Carlo rows, and the resumed run (recomputing only the last
    point) matches a cold run byte for byte."""
    from tests.experiments.test_mc_checkpoint import MCTINY

    cold = ExperimentRunner(MCTINY, cache_dir=tmp_path / "a").run()
    cold_entry = ArtefactCache(tmp_path / "a").entry_for(MCTINY)
    points = len(cold.report.circuit_stage.model.variation.nominal)
    assert points > 1  # otherwise the model build never checkpoints

    cache_b = tmp_path / "b"
    entry = ArtefactCache(cache_b).entry_for(MCTINY)
    real_store = CacheEntry.store

    def killed_at_the_circuit_store(self, stage, artefact):
        if stage == "circuit":
            raise KeyboardInterrupt("simulated kill before circuit.pkl")
        return real_store(self, stage, artefact)

    monkeypatch.setattr(CacheEntry, "store", killed_at_the_circuit_store)
    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(MCTINY, cache_dir=cache_b).run()
    monkeypatch.undo()
    state = entry.load_partial("circuit")
    assert state["generation"] == MCTINY.circuit_generations
    assert len(state["mc"]["nominal_rows"]) == points - 1
    assert not entry.has("circuit")

    resumed = ExperimentRunner(MCTINY, cache_dir=cache_b).run()
    assert resumed.stage_sources["circuit"] == "computed"
    assert_bit_identical(cold, resumed)
    assert cold_entry.stages_present() == entry.stages_present()
    for stage in entry.stages_present():
        assert artefact_bytes(cold_entry, stage) == artefact_bytes(entry, stage), stage
    assert entry.load_partial("circuit") is None


def test_cancelled_circuit_stage_resumes_bit_identically(tmp_path):
    """Cancel at a generation boundary; resubmitting the same scenario
    resumes from the persisted generation and matches a cold run."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path / "a").run()

    cache_b = tmp_path / "b"
    entry = ArtefactCache(cache_b).entry_for(TINY)
    stores = []

    class CountingPartial(_StagePartial):
        def store(self, state):
            super().store(state)
            stores.append(state["generation"])

    token = CancelToken(should_cancel=lambda: len(stores) >= 2)
    flow = HierarchicalFlow.from_scenario(TINY)
    with pytest.raises(JobCancelled):
        flow.circuit_stage(checkpoint=CountingPartial(entry, "circuit"), cancel=token)
    # Cancellation surfaced at the boundary right after a persisted store.
    assert entry.load_partial("circuit")["generation"] == stores[-1]
    assert not entry.has("circuit")

    resumed = ExperimentRunner(TINY, cache_dir=cache_b).run()
    assert resumed.stage_sources["circuit"] == "computed"
    assert_bit_identical(cold, resumed)
    assert entry.load_partial("circuit") is None


def test_cancelled_runner_leaves_consistent_cache(tmp_path):
    """Cancel through ExperimentRunner.run itself (the worker code path):
    the run raises JobCancelled and every persisted artefact stays loadable
    and resumable."""
    cache = tmp_path / "cache"
    entry = ArtefactCache(cache).entry_for(TINY)
    token = CancelToken(should_cancel=lambda: entry.load_partial("circuit") is not None)
    with pytest.raises(JobCancelled):
        ExperimentRunner(TINY, cache_dir=cache).run(cancel=token)
    assert entry.load_partial("circuit") is not None

    cold = ExperimentRunner(TINY, cache_dir=tmp_path / "direct").run()
    resumed = ExperimentRunner(TINY, cache_dir=cache).run()
    assert_bit_identical(cold, resumed)


def test_force_discards_a_circuit_partial(tmp_path):
    """--force promises a full recompute: a leftover generation partial
    must not be resumed from (and is cleared)."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    entry = ArtefactCache(tmp_path).entry_for(TINY)
    # Leave a half-way partial behind, as an interrupted run would.
    flow = HierarchicalFlow.from_scenario(TINY)
    with pytest.raises(KeyboardInterrupt):
        flow.circuit_stage(checkpoint=CrashingPartial(entry, "circuit", fail_after=1))
    assert entry.load_partial("circuit") is not None

    forced = ExperimentRunner(TINY, cache_dir=tmp_path, force=True).run()
    assert forced.stage_sources["circuit"] == "computed"
    assert_bit_identical(cold, forced)
    assert entry.load_partial("circuit") is None


def test_circuit_checkpoint_can_be_disabled(tmp_path):
    """circuit_checkpoint=False writes no partial and changes nothing
    about the results (the overhead benchmark relies on this switch)."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path / "a").run()
    plain = ExperimentRunner(
        TINY, cache_dir=tmp_path / "b", circuit_checkpoint=False
    ).run()
    entry = ArtefactCache(tmp_path / "b").entry_for(TINY)
    assert entry.load_partial("circuit") is None
    assert_bit_identical(cold, plain)
    for stage in entry.stages_present():
        assert artefact_bytes(entry, stage) == artefact_bytes(
            ArtefactCache(tmp_path / "a").entry_for(TINY), stage
        )
