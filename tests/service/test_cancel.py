"""End-to-end cancellation: DELETE mid-run parks the job in `cancelled`
at a checkpoint boundary without corrupting the cache, resubmitting
resumes from the persisted generation, and a SIGKILL mid-NSGA-II is
reclaimed and finished bit-identically (the ISSUE's acceptance
invariants)."""

import multiprocessing
import threading
import time

import pytest

from conftest import assert_artefacts_byte_identical, tiny_scenario
from repro.experiments.cache import ArtefactCache
from repro.experiments.runner import ExperimentRunner
from repro.service.store import SqliteJobStore
from repro.service.worker import worker_loop

#: Enough NSGA-II generations (~1.5 s serial) that a cancel or SIGKILL
#: reliably lands mid-optimisation, with tiny later stages so the tail of
#: the test stays fast.
SLOW_CIRCUIT = tiny_scenario(
    "cancel-e2e", seed=77, circuit_population=40, circuit_generations=60
)


def wait_for_partial_generation(entry, generation, timeout=60.0):
    """Block until the circuit partial reports at least ``generation``."""
    deadline = time.monotonic() + timeout
    while True:
        state = entry.load_partial("circuit")
        if state is not None and state.get("generation", 0) >= generation:
            return state
        assert time.monotonic() < deadline, "worker never reached the target generation"
        time.sleep(0.002)


@pytest.mark.slow
def test_cancel_running_job_parks_within_a_checkpoint_and_resumes(tmp_path):
    """DELETE /jobs/<id> against a running job: the worker observes the
    flag at the next generation boundary, the job parks in `cancelled`,
    the partial survives, and resubmitting finishes bit-identically."""
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=30.0)
    job, _ = store.submit(SLOW_CIRCUIT)
    entry = ArtefactCache(cache).entry_for(SLOW_CIRCUIT)

    worker = threading.Thread(
        target=worker_loop,
        args=(db, cache),
        kwargs={"lease_ttl": 30.0, "max_jobs": 1, "cancel_poll_interval": 0.01},
    )
    worker.start()
    wait_for_partial_generation(entry, 3)
    flagged = store.cancel(job.id)
    assert flagged.state in ("leased", "running")
    assert flagged.cancel_requested

    worker.join(timeout=60.0)
    assert not worker.is_alive()
    parked = store.get(job.id)
    assert parked.state == "cancelled"
    # Cancelled mid-optimisation: the stage artefact was never written,
    # the generation partial was -- and far before the final generation.
    assert not entry.has("circuit")
    state = entry.load_partial("circuit")
    assert state is not None
    assert state["generation"] < SLOW_CIRCUIT.circuit_generations
    assert ("cancel", "observed") in [
        (event["stage"], event["status"]) for event in store.events(job.id)
    ]

    # Resubmitting requeues and resumes from the persisted generation.
    requeued, created = store.submit(SLOW_CIRCUIT)
    assert created and requeued.state == "queued"
    executed = worker_loop(db, cache, lease_ttl=30.0, max_jobs=1)
    assert executed == 1
    assert store.get(job.id).state == "done"

    direct_cache = tmp_path / "direct"
    ExperimentRunner(SLOW_CIRCUIT, cache_dir=direct_cache).run()
    assert_artefacts_byte_identical(
        ArtefactCache(direct_cache).entry_for(SLOW_CIRCUIT), entry
    )


@pytest.mark.slow
def test_sigkill_mid_nsga2_is_reclaimed_and_finishes_bit_identically(tmp_path):
    """A worker SIGKILLed between NSGA-II generations (circuit stage
    unfinished) is reclaimed after lease expiry; the reclaiming worker
    resumes from the generation partial and the final artefacts are
    byte-identical to an uninterrupted run."""
    lease_ttl = 1.0
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=lease_ttl)
    job, _ = store.submit(SLOW_CIRCUIT)
    entry = ArtefactCache(cache).entry_for(SLOW_CIRCUIT)

    context = multiprocessing.get_context("spawn")
    worker_a = context.Process(
        target=worker_loop,
        args=(db, cache),
        kwargs={"lease_ttl": lease_ttl, "max_jobs": 1},
        daemon=True,
    )
    worker_a.start()
    wait_for_partial_generation(entry, 3)
    worker_a.kill()
    worker_a.join(timeout=10.0)
    # Killed mid-NSGA-II: the circuit artefact must not exist yet.
    assert not entry.has("circuit"), "worker A finished the stage; scenario too fast"
    killed = store.get(job.id)
    assert killed.state in ("leased", "running")

    time.sleep(lease_ttl + 0.2)
    executed = worker_loop(db, cache, lease_ttl=lease_ttl, max_jobs=1)
    assert executed == 1
    finished = store.get(job.id)
    assert finished.state == "done"
    assert finished.attempts == 2
    assert finished.worker != killed.worker
    assert entry.load_partial("circuit") is None  # consumed and cleared

    direct_cache = tmp_path / "direct"
    ExperimentRunner(SLOW_CIRCUIT, cache_dir=direct_cache).run()
    assert_artefacts_byte_identical(
        ArtefactCache(direct_cache).entry_for(SLOW_CIRCUIT), entry
    )


def test_cancel_queued_job_never_executes(tmp_path):
    db = tmp_path / "service.db"
    store = SqliteJobStore(db, lease_ttl=30.0)
    job, _ = store.submit(SLOW_CIRCUIT)
    store.cancel(job.id)
    executed = worker_loop(db, tmp_path / "cache", max_jobs=1, poll_interval=0.01)
    assert executed == 0
    assert store.get(job.id).state == "cancelled"
    entry = ArtefactCache(tmp_path / "cache").entry_for(SLOW_CIRCUIT)
    assert entry.stages_present() == []
