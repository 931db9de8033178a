"""Monte Carlo checkpoints inside the circuit stage's model build.

The per-Pareto-point MC loop persists its progress under the ``"mc"``
sub-key of the circuit stage's partial checkpoint (the same
``circuit.partial.pkl`` the NSGA-II generations use), so a run killed
between MC points resumes mid-loop -- and, because every point draws from
its own seeded engine, resumes bit-identically.

Mirrors tests/experiments/test_circuit_checkpoint.py one level deeper.
"""

import pickle

import pytest

from repro.core.flow import HierarchicalFlow
from repro.experiments.cache import ArtefactCache
from repro.experiments.runner import ExperimentRunner, _StagePartial

from tests.experiments.test_circuit_checkpoint import CrashingPartial, artefact_bytes
from tests.experiments.test_runner import TINY, assert_bit_identical

#: TINY's Pareto front collapses to a single design, and the MC loop only
#: checkpoints *between* points -- so these tests use a variant whose
#: front has several points (5 with this budget/seed).
MCTINY = TINY.with_overrides(
    name="tiny-mc", circuit_population=16, circuit_generations=4
)

#: NSGA-II persists the initial population plus one state per generation
#: before the MC loop starts.
NSGA_STORES = MCTINY.circuit_generations + 1


def crash_mid_mc(entry, extra_stores=1):
    """Run the circuit stage and die after ``extra_stores`` MC points."""
    flow = HierarchicalFlow.from_scenario(MCTINY)
    with pytest.raises(KeyboardInterrupt):
        flow.circuit_stage(
            checkpoint=CrashingPartial(
                entry, "circuit", fail_after=NSGA_STORES + extra_stores
            )
        )
    return entry.load_partial("circuit")


def test_crash_between_mc_points_persists_partial_rows(tmp_path):
    entry = ArtefactCache(tmp_path).entry_for(MCTINY)
    state = crash_mid_mc(entry)
    # The NSGA-II part of the partial is complete...
    assert state["generation"] == MCTINY.circuit_generations
    # ...and the MC loop checkpointed exactly one evaluated Pareto point.
    assert "mc" in state
    assert len(state["mc"]["nominal_rows"]) == 1
    assert len(state["mc"]["spread_rows"]) == 1
    assert state["mc"]["fingerprint"]["n_samples"] == MCTINY.mc_samples_per_point
    assert not entry.has("circuit")


def test_sigkilled_mc_loop_resumes_bit_identically(tmp_path):
    cold = ExperimentRunner(MCTINY, cache_dir=tmp_path / "a").run()
    cold_entry = ArtefactCache(tmp_path / "a").entry_for(MCTINY)

    cache_b = tmp_path / "b"
    entry = ArtefactCache(cache_b).entry_for(MCTINY)
    crash_mid_mc(entry)

    resumed = ExperimentRunner(MCTINY, cache_dir=cache_b).run()
    assert resumed.stage_sources["circuit"] == "computed"
    assert_bit_identical(cold, resumed)
    # Byte identity of every artefact, not just value equality.
    assert cold_entry.stages_present() == entry.stages_present()
    for stage in entry.stages_present():
        assert artefact_bytes(cold_entry, stage) == artefact_bytes(entry, stage), stage
    assert entry.load_partial("circuit") is None


def test_resume_does_not_reevaluate_checkpointed_points(tmp_path):
    """The resumed MC loop starts after the persisted rows: its first
    store already carries strictly more rows than the crash left behind."""
    entry = ArtefactCache(tmp_path).entry_for(MCTINY)
    state = crash_mid_mc(entry)
    rows_at_crash = len(state["mc"]["nominal_rows"])

    seen = []

    class RecordingPartial(_StagePartial):
        def store(self, partial_state):
            super().store(partial_state)
            if isinstance(partial_state, dict) and "mc" in partial_state:
                seen.append(len(partial_state["mc"]["nominal_rows"]))

    flow = HierarchicalFlow.from_scenario(MCTINY)
    flow.circuit_stage(checkpoint=RecordingPartial(entry, "circuit"))
    assert seen, "the resumed MC loop should keep checkpointing"
    assert seen[0] == rows_at_crash + 1


def test_kept_stored_states_do_not_grow_with_later_points(tmp_path):
    """Each MC store hands over snapshots of the rows: a state a
    checkpoint keeps still holds the points it was stored with after the
    loop has appended later ones (and matches what reached the disk)."""
    entry = ArtefactCache(tmp_path).entry_for(MCTINY)
    kept = []

    class KeepingPartial(_StagePartial):
        def store(self, partial_state):
            super().store(partial_state)
            if isinstance(partial_state, dict) and "mc" in partial_state:
                rows = len(partial_state["mc"]["nominal_rows"])
                kept.append((rows, partial_state, entry.load_partial("circuit")["mc"]))

    flow = HierarchicalFlow.from_scenario(MCTINY)
    result = flow.circuit_stage(checkpoint=KeepingPartial(entry, "circuit"))
    assert len(kept) == len(result.model.variation.nominal) - 1 >= 2
    for index, (rows, state, on_disk) in enumerate(kept):
        assert rows == index + 1
        assert len(state["mc"]["nominal_rows"]) == rows
        assert len(state["mc"]["spread_rows"]) == rows
        assert state["mc"]["nominal_rows"] == on_disk["nominal_rows"]


def test_completed_model_build_clears_the_mc_subkey(tmp_path):
    """The MC rows go with the whole partial, which the runner deletes
    once the stage artefact is stored; the model build itself writes
    nothing after its last checkpointed point."""
    entry = ArtefactCache(tmp_path).entry_for(MCTINY)
    flow = HierarchicalFlow.from_scenario(MCTINY)
    result = flow.circuit_stage(checkpoint=_StagePartial(entry, "circuit"))
    points = len(result.model.variation.nominal)
    # The last write is the second-to-last point's: no rewrite dropping "mc".
    assert len(entry.load_partial("circuit")["mc"]["nominal_rows"]) == points - 1

    ExperimentRunner(MCTINY, cache_dir=tmp_path).run()
    assert entry.has("circuit")
    assert entry.load_partial("circuit") is None


def test_stale_mc_fingerprint_is_discarded_not_resumed(tmp_path):
    """A partial whose MC fingerprint no longer matches (different budget,
    seed or designs) restarts the loop -- and still matches a cold run."""
    cold = ExperimentRunner(MCTINY, cache_dir=tmp_path / "a").run()

    cache_b = tmp_path / "b"
    entry = ArtefactCache(cache_b).entry_for(MCTINY)
    state = crash_mid_mc(entry)
    state = dict(state)
    state["mc"] = dict(state["mc"])
    state["mc"]["fingerprint"] = dict(state["mc"]["fingerprint"], n_samples=9999)
    entry.store_partial("circuit", state)

    resumed = ExperimentRunner(MCTINY, cache_dir=cache_b).run()
    assert_bit_identical(cold, resumed)
    for stage in entry.stages_present():
        assert artefact_bytes(
            ArtefactCache(tmp_path / "a").entry_for(MCTINY), stage
        ) == artefact_bytes(entry, stage), stage
