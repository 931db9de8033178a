"""Concurrency: submissions coalesce; a killed worker's job is reclaimed
and still finishes bit-identically (resume via the per-stage cache)."""

import multiprocessing
import threading
import time

import pytest

from conftest import assert_artefacts_byte_identical, tiny_scenario
from repro.experiments.cache import ArtefactCache
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ExperimentRunner
from repro.service.store import SqliteJobStore
from repro.service.worker import worker_loop

#: Slow enough (serial backend, fat Monte Carlo) to be killed mid-run,
#: fast enough to keep the test suite snappy.
SLOW = ScenarioConfig(
    name="kill-test",
    evaluation="serial",
    circuit_population=24,
    circuit_generations=6,
    system_population=12,
    system_generations=4,
    mc_samples_per_point=60,
    yield_samples=400,
    max_model_points=10,
    seed=23,
)


def test_concurrent_submissions_coalesce_to_one_job(live):
    """Many clients posting the same scenario race into a single job."""
    client, store, _ = live
    results = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        results.append(client.submit("fast-smoke", {"seed": 404}))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(results) == 8
    assert len({job["id"] for job in results}) == 1  # one job id for all
    assert sum(1 for job in results if job["created"]) == 1  # created once
    assert store.counts()["queued"] == 1  # one execution pending


@pytest.mark.slow
def test_service_workers_are_not_daemonic(tmp_path):
    """Service workers must not be daemonic: a job may open its own
    process pool (the SPICE evaluator's batch pool), which daemonic
    processes are forbidden to do."""
    from repro.service.worker import WorkerPool

    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=30.0)
    job, _ = store.submit(tiny_scenario("spawned-tiny", seed=29, n_workers=2))
    with WorkerPool(db, cache, n_workers=1, lease_ttl=30.0) as pool:
        assert pool._processes
        assert not any(process.daemon for process in pool._processes)
        deadline = time.monotonic() + 120.0
        while store.get(job.id).state not in ("done", "failed"):
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.2)
    finished = store.get(job.id)
    assert finished.state == "done", finished.error


@pytest.mark.slow
def test_killed_worker_job_is_reclaimed_and_finishes_bit_identically(tmp_path):
    lease_ttl = 1.0
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=lease_ttl)
    job, _ = store.submit(SLOW)

    # Worker A: a real spawned process; SIGKILL it once the first stage
    # checkpoint lands (it is mid-job: system/yield still unfinished).
    context = multiprocessing.get_context("spawn")
    worker_a = context.Process(
        target=worker_loop,
        args=(db, cache),
        kwargs={"lease_ttl": lease_ttl, "max_jobs": 1},
        daemon=True,
    )
    worker_a.start()
    entry = ArtefactCache(cache).entry_for(SLOW)
    deadline = time.monotonic() + 60.0
    while not entry.has("circuit"):
        assert time.monotonic() < deadline, "worker A never reached the first stage"
        assert worker_a.is_alive() or entry.has("circuit"), "worker A died early"
        time.sleep(0.02)
    worker_a.kill()
    worker_a.join(timeout=10.0)
    assert not entry.has("yield"), "worker A finished before the kill; slow scenario too fast"

    killed = store.get(job.id)
    assert killed.state in ("leased", "running")
    assert killed.attempts == 1

    # Worker B (in-process): the expired lease is reclaimed on claim; the
    # runner resumes from worker A's checkpoints instead of recomputing.
    time.sleep(lease_ttl + 0.2)
    executed = worker_loop(db, cache, lease_ttl=lease_ttl, max_jobs=1)
    assert executed == 1
    finished = store.get(job.id)
    assert finished.state == "done"
    assert finished.attempts == 2
    assert finished.worker != killed.worker

    # Bit-identity with an uninterrupted direct run of the same scenario.
    direct_cache = tmp_path / "direct"
    ExperimentRunner(SLOW, cache_dir=direct_cache).run()
    assert_artefacts_byte_identical(
        entry, ArtefactCache(direct_cache).entry_for(SLOW)
    )
    # The resumed run reports every stage (cached circuit included) from
    # worker B.  Worker A may or may not have recorded its circuit event
    # before the kill landed -- the checkpoint write precedes the event.
    events = store.events(job.id)
    b_stages = [
        event["stage"]
        for event in events
        if event["worker"] == finished.worker and event["status"] == "completed"
    ]
    assert b_stages == ["circuit", "system", "yield"]
