"""Worker loop and the pool supervisor: drain-mode reclaim regression, graceful
retirement, and queue-depth autoscaling."""

import json
import sqlite3
import threading
import time

import pytest

from faults import PartialGate
from repro.experiments.artifacts import LocalArtifactStore
from repro.experiments.cache import ArtefactCache, CacheEntry
from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import get_scenario
from repro.experiments.runner import ExperimentRunner
import repro.service.worker as worker_module
from repro.service.store import SqliteJobStore
from repro.service.worker import Autoscaler, execute_job, worker_loop

TINY = ScenarioConfig(
    name="worker-tiny",
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
    seed=37,
)

#: Reduced budget applied to every autoscaler burst job.
BURST_BUDGET = dict(
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
    evaluation="vectorised",
)


def test_drain_mode_waits_for_expired_lease_jobs(tmp_path, monkeypatch):
    """Regression: with max_jobs set, the loop used to break as soon as
    counts()['queued'] hit zero, ignoring a crashed peer's leased job
    whose lease had already expired -- the drain exited leaving
    reclaimable work behind.  Expired leases now count as pending."""
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=0.05)
    job, _ = store.submit(TINY)
    store.claim("ghost")
    store.start(job.id, "ghost")
    time.sleep(0.1)  # the ghost dies; its lease is now expired

    # Simulate losing one contended claim (a peer's probe raced ours):
    # claim returns None exactly once, with zero queued jobs and one
    # expired lease on the books -- the situation the old break mishandled.
    real_claim = SqliteJobStore.claim
    calls = {"n": 0}

    def racy_claim(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            return None
        return real_claim(self, *args, **kwargs)

    monkeypatch.setattr(SqliteJobStore, "claim", racy_claim)
    executed = worker_loop(db, cache, lease_ttl=30.0, poll_interval=0.01, max_jobs=1)
    assert executed == 1  # the drain reclaimed and finished the job
    assert store.get(job.id).state == "done"
    assert calls["n"] >= 2


@pytest.mark.parametrize(
    "field, backend",
    [
        ("evaluation", "process"),
        ("evaluation", "vectorized"),
        ("spice_engine", "compiled"),
        ("spice_engine", "reference"),
    ],
    ids=["process", "vectorized", "compiled", "reference"],
)
def test_job_naming_a_retired_backend_fails_without_killing_the_worker(
    tmp_path, field, backend
):
    """A job stored while ``process`` / ``vectorized`` were accepted
    backend names, or ``compiled`` / ``reference`` accepted SPICE engines,
    no longer resolves: it fails as an unresolvable scenario, and the same
    worker goes on to finish the next job."""
    db = tmp_path / "service.db"
    store = SqliteJobStore(db, lease_ttl=30.0)
    stale, _ = store.submit(TINY)
    with sqlite3.connect(db) as connection:
        connection.execute(
            "UPDATE jobs SET scenario_json = ? WHERE id = ?",
            (json.dumps(dict(TINY.as_dict(), **{field: backend})), stale.id),
        )
    healthy, _ = store.submit(TINY.with_overrides(seed=38))
    executed = worker_loop(db, tmp_path / "cache", lease_ttl=30.0, poll_interval=0.01, max_jobs=2)
    assert executed == 2
    failed = store.get(stale.id)
    assert failed.state == "failed"
    assert failed.error.startswith("unresolvable scenario")
    assert repr(backend) in failed.error
    assert store.get(healthy.id).state == "done"


def test_drain_mode_still_exits_on_a_truly_empty_queue(tmp_path):
    db = tmp_path / "service.db"
    started = time.monotonic()
    executed = worker_loop(db, tmp_path / "cache", max_jobs=3, poll_interval=0.01)
    assert executed == 0
    assert time.monotonic() - started < 5.0


def test_stop_event_retires_an_idle_worker(tmp_path):
    """A set stop event makes the loop exit instead of polling forever,
    even in max_jobs=None (service) mode."""

    class Event:
        def __init__(self):
            self._set = threading.Event()

        def set(self):
            self._set.set()

        def is_set(self):
            return self._set.is_set()

        def wait(self, timeout):
            return self._set.wait(timeout)

    stop = Event()
    stop.set()
    store = SqliteJobStore(tmp_path / "service.db")
    store.submit(TINY)  # even with work queued, a retired worker exits
    executed = worker_loop(
        tmp_path / "service.db", tmp_path / "cache", stop_event=stop
    )
    assert executed == 0
    assert store.counts()["queued"] == 1  # untouched: someone else's work now


def test_autoscaler_validation(tmp_path):
    with pytest.raises(ValueError):
        Autoscaler(tmp_path / "db", tmp_path / "c", min_workers=0)
    with pytest.raises(ValueError):
        Autoscaler(tmp_path / "db", tmp_path / "c", min_workers=3, max_workers=2)
    with pytest.raises(ValueError):
        Autoscaler(tmp_path / "db", tmp_path / "c", supervisor_interval=0.0)
    with pytest.raises(ValueError):
        Autoscaler(tmp_path / "db", tmp_path / "c", scale_up_after=0)


def test_autoscaler_tick_logic_without_processes(tmp_path, monkeypatch):
    """The scaling decisions, exercised deterministically: _tick reads the
    store and grows/shrinks the bookkeeping (process spawning stubbed)."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    scaler = Autoscaler(
        tmp_path / "service.db",
        tmp_path / "cache",
        min_workers=1,
        max_workers=3,
        scale_up_after=2,
        scale_down_after=2,
    )

    class FakeProcess:
        def is_alive(self):
            return True

        def join(self, timeout=None):
            pass

    class FakeEvent:
        def __init__(self):
            self.was_set = False

        def set(self):
            self.was_set = True

    def fake_grow():
        scaler._workers.append((FakeProcess(), FakeEvent()))

    monkeypatch.setattr(scaler, "_grow", fake_grow)
    fake_grow()  # the start()-time minimum worker

    # Sustained backlog grows the pool one worker per scale_up_after ticks.
    for seed in range(50, 56):
        store.submit(TINY.with_overrides(seed=seed))
    assert store.pending_count() == 6
    scaler._tick()
    assert scaler.size == 1  # one pressure tick: not yet
    scaler._tick()
    assert scaler.size == 2  # sustained: grew
    scaler._tick()
    scaler._tick()
    assert scaler.size == 3  # capped at max_workers from here on
    scaler._tick()
    scaler._tick()
    assert scaler.size == 3

    # Draining the queue shrinks back to the minimum, gracefully.
    for job in store.jobs(state="queued"):
        store.claim("w")
    for job in store.jobs(state="leased"):
        store.complete(job.id, "w", {})
    assert store.pending_count() == 0
    scaler._tick()
    assert scaler.size == 3  # one idle tick: not yet
    scaler._tick()
    assert scaler.size == 2
    scaler._tick()
    scaler._tick()
    assert scaler.size == 1
    scaler._tick()
    scaler._tick()
    assert scaler.size == 1  # never below min_workers


@pytest.mark.slow
def test_autoscaler_grows_under_burst_and_shrinks_when_drained(tmp_path):
    """The acceptance criterion, with real spawned workers: a burst of
    distinct submissions grows the pool, the drained queue shrinks it."""
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=30.0)
    for seed in range(900, 906):
        store.submit(ScenarioConfig(name=f"burst-{seed}", seed=seed, **BURST_BUDGET))

    scaler = Autoscaler(
        db,
        cache,
        min_workers=1,
        max_workers=3,
        lease_ttl=30.0,
        supervisor_interval=0.1,
        scale_up_after=1,
        scale_down_after=3,
    )
    deadline = time.monotonic() + 120.0
    with scaler:
        while scaler.size < 3:
            assert time.monotonic() < deadline, "pool never grew under backlog"
            time.sleep(0.05)
        while store.counts()["done"] < 6:
            assert time.monotonic() < deadline, "burst never drained"
            time.sleep(0.2)
        while scaler.size > 1:
            assert time.monotonic() < deadline, "pool never shrank after the drain"
            time.sleep(0.1)
        assert scaler.alive() >= 1
    assert scaler.size == 0  # stop() tore everything down
    assert store.counts()["done"] == 6


def test_autoscaler_reaps_crashed_workers_and_holds_the_floor(tmp_path, monkeypatch):
    """A dead worker must not count toward the size the backlog is
    compared against: it is reaped out of the pool and replaced up to
    min_workers, so scale-up never stalls behind a corpse."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    scaler = Autoscaler(
        tmp_path / "service.db",
        tmp_path / "cache",
        min_workers=1,
        max_workers=3,
        scale_up_after=1,
        scale_down_after=2,
    )

    class FakeProcess:
        def __init__(self, alive=True):
            self.alive = alive

        def is_alive(self):
            return self.alive

        def join(self, timeout=None):
            pass

    class FakeEvent:
        def set(self):
            pass

    def fake_grow():
        scaler._workers.append((FakeProcess(), FakeEvent()))

    monkeypatch.setattr(scaler, "_grow", fake_grow)
    fake_grow()
    store.submit(TINY)

    # The sole worker crashes: the next tick reaps the corpse, restores
    # the min_workers floor, and the pending job drives further growth.
    scaler._workers[0][0].alive = False
    scaler._tick()
    assert scaler.size == 1  # corpse reaped, floor restored
    assert all(process.is_alive() for process, _ in scaler._workers)


def test_supervisor_thread_survives_tick_exceptions(tmp_path, monkeypatch, caplog):
    scaler = Autoscaler(
        tmp_path / "db", tmp_path / "cache", min_workers=1, max_workers=2,
        supervisor_interval=0.01,
    )
    monkeypatch.setattr(
        scaler, "_tick", lambda: (_ for _ in ()).throw(RuntimeError("sqlite busy"))
    )

    class FakeProcess:
        def is_alive(self):
            return True

        def join(self, timeout=None):
            pass

        def terminate(self):
            pass

        def kill(self):
            pass

    class FakeEvent:
        def set(self):
            pass

    # Satisfy start()'s min_workers floor without real processes.
    monkeypatch.setattr(
        scaler,
        "_grow",
        lambda: scaler._workers.append((FakeProcess(), FakeEvent())),
    )
    scaler.start()
    try:
        time.sleep(0.1)
        assert scaler._thread.is_alive()  # the failing ticks did not kill it
    finally:
        scaler.stop()
    assert "supervision tick failed" in caplog.text


def test_fixed_pool_replaces_a_crashed_worker(tmp_path, monkeypatch):
    """A fixed pool (min == max) holds its size: the next _tick reaps a
    dead worker and spawns its replacement."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    scaler = Autoscaler(
        tmp_path / "service.db", tmp_path / "cache", min_workers=2, max_workers=2
    )

    class FakeProcess:
        def __init__(self):
            self.alive = True

        def is_alive(self):
            return self.alive

        def join(self, timeout=None):
            pass

    spawned = []

    def fake_spawn(*args, **kwargs):
        spawned.append(FakeProcess())
        return spawned[-1]

    monkeypatch.setattr(worker_module, "_spawn_worker", fake_spawn)
    monkeypatch.setattr(scaler._context, "Event", lambda: object(), raising=False)
    scaler._grow()
    scaler._grow()
    spawned[0].alive = False  # the oldest worker crashes
    scaler._tick()
    assert len(spawned) == 3
    assert [process for process, _ in scaler._workers] == spawned[1:]
    assert store.get_meta("workers") == 2


def test_scale_up_counts_in_flight_jobs_as_demand(tmp_path, monkeypatch):
    """A queued job must not starve behind a pool of busy workers: demand
    is queued + in-flight, so one long-running job plus one queued job
    exceeds a single-worker pool and triggers growth."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=3600.0)
    scaler = Autoscaler(
        tmp_path / "service.db",
        tmp_path / "cache",
        min_workers=1,
        max_workers=2,
        scale_up_after=2,
    )

    class FakeProcess:
        def is_alive(self):
            return True

        def join(self, timeout=None):
            pass

    def fake_grow():
        scaler._workers.append((FakeProcess(), object()))

    monkeypatch.setattr(scaler, "_grow", fake_grow)
    fake_grow()

    # Worker 0 is an hour into a job (live lease -> pending_count()==0).
    long_job, _ = store.submit(TINY)
    store.claim("w0")
    store.start(long_job.id, "w0")
    store.submit(TINY.with_overrides(seed=61))  # waits behind it
    assert store.pending_count() == 1  # only the queued job
    scaler._tick()
    scaler._tick()
    assert scaler.size == 2  # grew: demand (2) exceeded the pool (1)


# -- mid-stage progress events (SSE backbone) ---------------------------------------------


def test_execute_job_records_per_generation_progress(tmp_path):
    """A worker-executed job leaves a progress trail: one event per
    NSGA-II generation (with the live Pareto front) and per Monte Carlo
    batch, interleaved with the stage-completed markers, all on one
    gapless monotonic sequence.  The yield spans three batches of the
    runner's default size, so it streams per-batch events."""
    scenario = TINY.with_overrides(yield_samples=130)
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(scenario)
    assert worker_loop(store.path, tmp_path / "cache", lease_ttl=30.0, max_jobs=1) == 1
    assert store.get(job.id).state == "done"

    events = store.events(job.id)
    seqs = [event["seq"] for event in events]
    assert seqs == list(range(1, len(events) + 1))  # gapless, monotonic

    circuit_progress = [
        e for e in events if e["stage"] == "circuit" and e["status"] == "progress"
    ]
    assert circuit_progress, "no per-generation circuit events"
    generations = [e["payload"]["generation"] for e in circuit_progress]
    assert generations == sorted(generations)
    front = circuit_progress[-1]["payload"]["front"]
    assert front and all(isinstance(point, dict) for point in front)
    assert circuit_progress[-1]["payload"]["front_size"] >= len(front) > 0

    yield_progress = [
        e for e in events if e["stage"] == "yield" and e["status"] == "progress"
    ]
    assert yield_progress, "no per-batch yield events"
    done_counts = [e["payload"]["samples_done"] for e in yield_progress]
    assert done_counts == sorted(done_counts)
    assert all(e["payload"]["n_samples"] == scenario.yield_samples for e in yield_progress)

    completed = [e["stage"] for e in events if e["status"] == "completed"]
    assert completed == ["circuit", "system", "yield"]


def test_a_small_service_yield_runs_in_one_batch_like_repro_run(tmp_path, monkeypatch):
    """A worker runs a job's yield in the runner's default batch, like
    ``repro run``: a 20-sample yield is one batch, so the job stores no
    yield partial and streams no yield progress event, and its stage
    pickles equal a direct run's byte for byte."""
    stored = []
    store_partial = CacheEntry.store_partial

    def recording_store_partial(self, stage, state):
        stored.append(stage)
        return store_partial(self, stage, state)

    monkeypatch.setattr(CacheEntry, "store_partial", recording_store_partial)
    scenario = TINY.with_overrides(yield_samples=20)
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(scenario)
    assert worker_loop(store.path, tmp_path / "cache", lease_ttl=30.0, max_jobs=1) == 1
    assert store.get(job.id).state == "done"
    assert "circuit" in stored and "yield" not in stored
    assert ("yield", "progress") not in [
        (event["stage"], event["status"]) for event in store.events(job.id)
    ]

    ExperimentRunner(scenario, cache_dir=tmp_path / "direct").run()
    served = ArtefactCache(tmp_path / "cache").entry_for(scenario)
    direct = ArtefactCache(tmp_path / "direct").entry_for(scenario)
    assert served.stages_present() == direct.stages_present() == ["circuit", "system", "yield"]
    for stage in direct.stages_present():
        name = f"{stage}.pkl"
        assert (served.directory / name).read_bytes() == (direct.directory / name).read_bytes()


def test_a_service_job_computes_the_config_hash_once(tmp_path, monkeypatch):
    """The worker publishes, traces and runs the job under the runner's
    one config hash."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(TINY)
    calls = []
    config_hash = ScenarioConfig.config_hash

    def counted(self):
        calls.append(self.name)
        return config_hash(self)

    monkeypatch.setattr(ScenarioConfig, "config_hash", counted)
    assert worker_loop(store.path, tmp_path / "cache", lease_ttl=30.0, max_jobs=1) == 1
    assert store.get(job.id).state == "done"
    assert calls == [TINY.name]
    assert ArtefactCache(tmp_path / "cache").entry(job.id).read_trace()


def test_worker_job_records_one_circuit_event_per_generation(tmp_path):
    """The model build's Monte Carlo checkpoints share the circuit
    partial but are no new generation: a fast-smoke job whose front has
    several model points logs exactly one circuit progress event per
    NSGA-II generation (initial population included)."""
    scenario = get_scenario("fast-smoke").with_overrides(seed=10007)
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(scenario)
    assert worker_loop(store.path, tmp_path / "cache", lease_ttl=30.0, max_jobs=1) == 1
    assert store.get(job.id).state == "done"
    generations = [
        event["payload"]["generation"]
        for event in store.events(job.id)
        if event["stage"] == "circuit" and event["status"] == "progress"
    ]
    assert generations == list(range(scenario.circuit_generations + 1))


def test_degenerate_front_job_fails_with_the_typed_model_build_error(tmp_path):
    """A fast-smoke seed whose Pareto front degenerates ends ``failed``
    with the model build's typed error, naming the performance and the
    front size -- and its buffered circuit progress is still stored."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(get_scenario("fast-smoke").with_overrides(seed=10169))
    assert worker_loop(store.path, tmp_path / "cache", lease_ttl=30.0, max_jobs=1) == 1
    failed = store.get(job.id)
    assert failed.state == "failed"
    assert (
        "VariationModelError: cannot tabulate the 'kvco' spread over a Pareto"
        " front of 2 point(s)" in failed.error
    )
    assert ("circuit", "progress") in [(e["stage"], e["status"]) for e in store.events(job.id)]


# -- a lost lease -------------------------------------------------------------------------


class LeaseLosingStore(SqliteJobStore):
    """Answers "lost" to the first heartbeat once the job's circuit
    partial reached ``lose_after`` generations, and records every store
    exchange the worker makes after that answer."""

    def __init__(self, path, entry, lose_after):
        super().__init__(path, lease_ttl=30.0)
        self.entry = entry
        self.lose_after = lose_after
        self.lost_at_generation = None
        self.after_lost = []
        self.beat_thread = None

    def _exchange(self, name):
        if self.lost_at_generation is not None:
            self.after_lost.append(name)

    def heartbeat(self, job_id, worker):
        self.beat_thread = threading.current_thread()
        self._exchange("heartbeat")
        partial = self.entry.load_partial("circuit")
        if (
            self.lost_at_generation is None
            and partial is not None
            and partial["generation"] >= self.lose_after
        ):
            self.lost_at_generation = partial["generation"]
            return False
        return super().heartbeat(job_id, worker)

    def append_events(self, job_id, events):
        self._exchange("append_events")
        return super().append_events(job_id, events)

    def complete(self, job_id, worker, summary):
        self._exchange("complete")
        return super().complete(job_id, worker, summary)

    def fail(self, job_id, worker, error):
        self._exchange("fail")
        return super().fail(job_id, worker, error)

    def mark_cancelled(self, job_id, worker):
        self._exchange("mark_cancelled")
        return super().mark_cancelled(job_id, worker)


def test_a_beat_answered_lost_ends_the_job_at_the_next_boundary(tmp_path):
    """A worker whose beat answers "lost" stops its run at the next
    checkpoint boundary and tells the store nothing more: no event, no
    outcome; the job is left to whoever reclaims it.

    A gate holds the run after it stored generation ``lose_after`` until
    the heartbeat thread has answered "lost" and ended, so the generation
    the run stops at does not depend on host speed."""
    lose_after = 5
    scenario = TINY.with_overrides(
        name="worker-lost-lease", circuit_population=40, circuit_generations=200
    )
    entry = ArtefactCache(tmp_path / "cache").entry_for(scenario)
    store = LeaseLosingStore(tmp_path / "service.db", entry, lose_after=lose_after)
    store.submit(scenario)
    job = store.claim("w1")
    gate = PartialGate(LocalArtifactStore(tmp_path / "cache"), "circuit", lose_after)
    result = {}
    run = threading.Thread(
        target=lambda: result.update(
            executed=execute_job(store, job, gate, "w1", heartbeat_interval=0.05)
        )
    )
    run.start()
    assert gate.held.wait(60.0), "the run never reached the held generation"
    deadline = time.monotonic() + 30.0
    while store.lost_at_generation is None and time.monotonic() < deadline:
        time.sleep(0.01)
    # The heartbeat thread ends only once it has declared the lease lost.
    store.beat_thread.join(timeout=30.0)
    assert not store.beat_thread.is_alive()
    gate.release()
    run.join(timeout=60.0)
    assert not run.is_alive()
    executed = result["executed"]
    assert executed is None
    assert store.lost_at_generation is not None
    assert store.after_lost == []
    # The generation running when the beat answered ended the run.
    assert not entry.has("circuit")
    assert entry.load_partial("circuit")["generation"] <= store.lost_at_generation + 2
    assert store.get(job.id).state == "running"
    assert ("cancel", "observed") not in [
        (event["stage"], event["status"]) for event in store.events(job.id)
    ]


def test_worker_pool_publishes_size_to_meta(tmp_path):
    """healthz reads the worker count from the store's meta table; a
    fixed pool publishes it on start and zeroes it on stop."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    with Autoscaler(
        store.path, tmp_path / "cache", min_workers=2, max_workers=2, lease_ttl=30.0
    ):
        assert store.get_meta("workers") == 2
    assert store.get_meta("workers") == 0
    assert store.get_meta("shards") is None  # the pool size is the only key
