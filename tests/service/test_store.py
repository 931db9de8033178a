"""Job store unit tests: lifecycle, dedup, leases, claim order, events.

Contract tests here run against **both** backends (the ``any_store``
fixture: SQLite directly, and RemoteJobStore over a loopback
coordinator), proving wire parity of the whole JobStore surface.
Timing-sensitive lease tests and SQLite internals (meta table,
migrations) stay pinned to the local backend.
"""

import os
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.config import ScenarioConfig
from repro.service.store import ACTIVE_STATES, JOB_STATES, SqliteJobStore

TINY = ScenarioConfig(name="store-tiny", circuit_population=8, circuit_generations=2)


@pytest.fixture()
def store(any_store):
    """The JobStore contract under test, parametrised over backends."""
    return any_store


def test_submit_creates_queued_job_keyed_by_config_hash(store):
    job, created = store.submit(TINY)
    assert created
    assert job.id == TINY.config_hash()
    assert job.state == "queued"
    assert job.scenario == "store-tiny"
    assert job.resolve_scenario() == TINY
    assert store.counts()["queued"] == 1


def test_submit_dedups_on_config_hash_across_names_and_backends(store):
    job, created = store.submit(TINY)
    # Different name, different backend: same numbers, same job.
    twin = TINY.with_overrides(name="other-name", evaluation="vectorised")
    dup, dup_created = store.submit(twin)
    assert not dup_created
    assert dup.id == job.id
    assert store.counts()["queued"] == 1
    # A genuinely different configuration is a new job.
    other, other_created = store.submit(TINY.with_overrides(seed=99))
    assert other_created and other.id != job.id


def test_claim_lease_and_complete_lifecycle(store):
    job, _ = store.submit(TINY)
    claimed = store.claim("w1")
    assert claimed is not None and claimed.id == job.id
    assert claimed.state == "leased"
    assert claimed.worker == "w1"
    assert claimed.attempts == 1
    assert claimed.lease_expires > time.time()
    assert store.claim("w2") is None  # nothing else queued

    assert store.start(job.id, "w1")
    assert store.get(job.id).state == "running"
    assert store.heartbeat(job.id, "w1")
    assert store.complete(job.id, "w1", {"yield_percent": 100.0})
    done = store.get(job.id)
    assert done.state == "done"
    assert done.summary == {"yield_percent": 100.0}
    # Submitting a done configuration shares the finished job.
    again, created = store.submit(TINY)
    assert not created and again.state == "done"


def test_failed_jobs_are_requeued_on_resubmit(store):
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    assert store.fail(job.id, "w1", "boom")
    assert store.get(job.id).state == "failed"
    requeued, created = store.submit(TINY)
    assert created and requeued.state == "queued"
    assert requeued.attempts == 1  # attempt history survives the requeue
    assert requeued.error is None


def test_requeue_adopts_the_resubmissions_execution_fields(store):
    """Hash-excluded fields (backend, worker count) may differ between the
    failed submission and the corrective one; the requeue must store the
    NEW scenario so the worker honours the fix."""
    broken = TINY.with_overrides(evaluation="vectorised", n_workers=64)
    job, _ = store.submit(broken)
    store.claim("w1")
    store.fail(job.id, "w1", "pool cannot spawn")
    fixed = TINY.with_overrides(evaluation="serial", n_workers=2, name="tiny-fixed")
    assert fixed.config_hash() == broken.config_hash()  # same job id
    requeued, created = store.submit(fixed)
    assert created
    assert requeued.scenario == "tiny-fixed"
    resolved = requeued.resolve_scenario()
    assert resolved.evaluation == "serial"
    assert resolved.n_workers == 2


def test_expired_lease_is_reclaimed_by_next_claim(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.05)
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    time.sleep(0.1)
    # w1 died (no heartbeat): the claim path requeues and re-leases.
    reclaimed = store.claim("w2")
    assert reclaimed is not None and reclaimed.id == job.id
    assert reclaimed.worker == "w2"
    assert reclaimed.attempts == 2
    # w1's late terminal updates are ownership-checked no-ops now.
    assert not store.complete(job.id, "w1", {})
    assert not store.heartbeat(job.id, "w1")
    assert store.complete(job.id, "w2", {})


def test_heartbeat_extends_the_lease(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.3)
    job, _ = store.submit(TINY)
    store.claim("w1")
    for _ in range(3):
        time.sleep(0.15)
        assert store.heartbeat(job.id, "w1")
    assert store.requeue_expired() == 0
    assert store.get(job.id).state == "leased"


def test_claims_take_the_oldest_queued_job_first(store, sqlite_store):
    """Every worker claims with one rule: the smallest ``submitted_at``,
    ties broken by ``id`` -- whatever order the rows were inserted in."""
    ids = [store.submit(TINY.with_overrides(seed=seed))[0].id for seed in range(20, 26)]
    # Out of insertion order, with two ties (sqlite_store is the authority
    # behind both backends).
    submitted = dict(zip(ids, (3.0, 1.0, 2.0, 1.0, 2.0, 0.5)))
    connection = sqlite3.connect(sqlite_store.path)
    with connection:
        connection.executemany(
            "UPDATE jobs SET submitted_at=? WHERE id=?",
            [(at, job_id) for job_id, at in submitted.items()],
        )
    connection.close()
    oldest_first = sorted(ids, key=lambda job_id: (submitted[job_id], job_id))
    assert [store.claim(f"w{index}").id for index in range(len(ids))] == oldest_first
    assert store.claim("w") is None


def test_events_are_ordered_and_payloads_roundtrip(store):
    job, _ = store.submit(TINY)
    store.record_event(job.id, "circuit", "completed", "w1", {"front_size": 3.0})
    store.record_event(job.id, "system", "completed", "w1", {"front_size": 8.0})
    store.record_event(job.id, "yield", "completed", "w1", None)
    events = store.events(job.id)
    assert [event["seq"] for event in events] == [1, 2, 3]
    assert [event["stage"] for event in events] == ["circuit", "system", "yield"]
    assert events[0]["payload"] == {"front_size": 3.0}
    assert events[2]["payload"] is None
    assert store.events("nonexistent") == []


def test_jobs_listing_and_state_filter(store):
    store.submit(TINY)
    store.submit(TINY.with_overrides(seed=99))
    assert len(store.jobs()) == 2
    assert len(store.jobs(state="queued")) == 2
    assert store.jobs(state="done") == []
    with pytest.raises(ValueError):
        store.jobs(state="exploded")


def test_store_validation_and_constants(tmp_path):
    with pytest.raises(ValueError):
        SqliteJobStore(tmp_path / "x.db", lease_ttl=0)
    assert set(ACTIVE_STATES) < set(JOB_STATES)
    assert store_is_persistent(tmp_path)


def store_is_persistent(tmp_path):
    """State written by one SqliteJobStore instance is visible to a fresh one."""
    first = SqliteJobStore(tmp_path / "p.db")
    job, _ = first.submit(TINY)
    second = SqliteJobStore(tmp_path / "p.db")
    return second.get(job.id) is not None and second.get(job.id).state == "queued"


# -- lease-expiry regressions -------------------------------------------------------------


def test_heartbeat_refuses_to_revive_an_expired_lease(tmp_path):
    """Regression: a worker stalled past its TTL must not extend the lease
    -- expiry is authoritative, matching the docstring's 'the worker
    should stop executing' contract (previously the UPDATE lacked the
    lease_expires >= now guard and revived the job, racing a reclaim)."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.05)
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    time.sleep(0.1)  # lease expired, nobody reclaimed yet
    assert not store.heartbeat(job.id, "w1")
    # The job is still reclaimable work for a live peer.
    assert store.pending_count() == 1
    reclaimed = store.claim("w2")
    assert reclaimed is not None and reclaimed.worker == "w2"


def test_pending_count_includes_expired_leases(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.05)
    assert store.pending_count() == 0
    job, _ = store.submit(TINY)
    assert store.pending_count() == 1  # queued
    store.claim("w1")
    assert store.pending_count() == 0  # live lease: a healthy peer's business
    time.sleep(0.1)
    assert store.pending_count() == 1  # expired lease: reclaimable
    second, _ = store.submit(TINY.with_overrides(seed=31))
    assert store.pending_count() == 2  # queued + expired
    assert second.state == "queued"


# -- cancellation lifecycle ---------------------------------------------------------------


def test_cancel_queued_job_is_immediate(store):
    job, _ = store.submit(TINY)
    cancelled = store.cancel(job.id)
    assert cancelled.state == "cancelled"
    assert not cancelled.cancel_requested
    assert cancelled.finished_at is not None
    assert store.counts()["cancelled"] == 1
    # A cancelled job is not claimable.
    assert store.claim("w1") is None


def test_cancel_running_job_flags_then_worker_parks_it(store):
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    flagged = store.cancel(job.id)
    assert flagged.state == "running"  # still the worker's until it observes
    assert flagged.cancel_requested
    assert store.append_events(job.id, []) == ([], True)  # the worker's poll
    # The worker observes the flag at a checkpoint boundary and parks it.
    assert store.mark_cancelled(job.id, "w1")
    parked = store.get(job.id)
    assert parked.state == "cancelled"
    assert not parked.cancel_requested
    # Late terminal updates from the (stopped) worker are no-ops.
    assert not store.complete(job.id, "w1", {})
    assert not store.fail(job.id, "w1", "boom")


def test_cancel_terminal_and_unknown_jobs_are_rejected(store):
    with pytest.raises(KeyError):
        store.cancel("deadbeef")
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.complete(job.id, "w1", {})
    with pytest.raises(ValueError):
        store.cancel(job.id)  # done
    requeued, _ = store.submit(TINY.with_overrides(seed=41))
    store.cancel(requeued.id)
    with pytest.raises(ValueError):
        store.cancel(requeued.id)  # already cancelled


def test_mark_cancelled_is_ownership_checked(store):
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    assert not store.mark_cancelled(job.id, "w2")  # not the owner
    assert store.get(job.id).state == "running"


def test_resubmitting_a_cancelled_job_requeues_it(store):
    job, _ = store.submit(TINY)
    store.cancel(job.id)
    requeued, created = store.submit(TINY)
    assert created
    assert requeued.state == "queued"
    assert not requeued.cancel_requested
    assert requeued.error is None


def test_expired_lease_with_cancel_request_parks_cancelled(tmp_path):
    """A cancel raised against a worker that then died must win over the
    requeue: the operator asked for the job to stop."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.05)
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    store.cancel(job.id)  # flag only: the job is running
    time.sleep(0.1)  # w1 dies, the lease expires
    assert store.requeue_expired() == 0  # parked cancelled, not requeued
    parked = store.get(job.id)
    assert parked.state == "cancelled"
    assert not parked.cancel_requested
    assert store.claim("w2") is None


def test_cancelled_is_a_known_state_everywhere(store):
    job, _ = store.submit(TINY)
    store.cancel(job.id)
    assert "cancelled" in JOB_STATES
    assert "cancelled" not in ACTIVE_STATES
    assert [j.id for j in store.jobs(state="cancelled")] == [job.id]
    assert store.counts()["cancelled"] == 1


def test_store_migrates_pre_cancellation_databases(tmp_path):
    """A service.db written before the cancel_requested column existed is
    upgraded in place on open."""
    import sqlite3

    path = tmp_path / "old.db"
    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE jobs (
            id TEXT PRIMARY KEY, scenario TEXT NOT NULL,
            scenario_json TEXT NOT NULL, state TEXT NOT NULL,
            submitted_at REAL NOT NULL, started_at REAL, finished_at REAL,
            worker TEXT, lease_expires REAL,
            attempts INTEGER NOT NULL DEFAULT 0, error TEXT, summary_json TEXT
        );
        CREATE TABLE events (
            job_id TEXT NOT NULL, seq INTEGER NOT NULL, created_at REAL NOT NULL,
            stage TEXT NOT NULL, status TEXT NOT NULL, worker TEXT,
            payload_json TEXT, PRIMARY KEY (job_id, seq)
        );
        """
    )
    connection.execute(
        "INSERT INTO jobs (id, scenario, scenario_json, state, submitted_at)"
        " VALUES ('abc123', 'legacy', '{}', 'queued', 1.0)"
    )
    connection.commit()
    connection.close()

    store = SqliteJobStore(path)
    legacy = store.get("abc123")
    assert legacy is not None
    assert legacy.cancel_requested is False


def test_completion_clears_a_raced_cancel_flag(store):
    """A cancel requested after the job's last checkpoint boundary loses
    the race: the job completes and the stale flag is dropped with it."""
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    store.cancel(job.id)
    assert store.complete(job.id, "w1", {"yield_percent": 100.0})
    finished = store.get(job.id)
    assert finished.state == "done"
    assert not finished.cancel_requested


def test_cancel_parks_an_expired_lease_job_immediately(tmp_path):
    """Cancelling a job whose worker is dead (lease expired) must not
    wait for a worker that may never come: it parks in `cancelled` right
    away instead of merely raising the flag."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=0.05)
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    time.sleep(0.1)  # w1 died; nobody is polling cancel_requested
    cancelled = store.cancel(job.id)
    assert cancelled.state == "cancelled"
    assert not cancelled.cancel_requested
    # The dead worker's late updates bounce off the terminal state.
    assert not store.complete(job.id, "w1", {})
    assert not store.mark_cancelled(job.id, "w1")


# -- event streaming primitives (SSE backbone) --------------------------------------------


def test_events_since_resumes_after_a_sequence_number(store):
    job, _ = store.submit(TINY)
    for generation in range(5):
        store.record_event(job.id, "circuit", "progress", "w1", {"generation": generation})
    assert [e["seq"] for e in store.events_since(job.id)] == [1, 2, 3, 4, 5]
    tail = store.events_since(job.id, after_seq=3)
    assert [e["seq"] for e in tail] == [4, 5]
    assert [e["payload"]["generation"] for e in tail] == [3, 4]
    assert store.events_since(job.id, after_seq=5) == []
    assert store.events_since("nonexistent") == []


def test_record_event_returns_the_assigned_seq(store):
    job, _ = store.submit(TINY)
    assert store.record_event(job.id, "circuit", "progress", "w1", None) == 1
    assert store.record_event(job.id, "circuit", "completed", "w1", None) == 2


def _progress(stage, worker="w1", **payload):
    return {"stage": stage, "status": "progress", "worker": worker, "payload": payload or None}


def test_append_events_gives_one_batch_consecutive_ordered_seqs(store):
    job, _ = store.submit(TINY)
    assert store.record_event(job.id, "circuit", "progress", "w1", None) == 1
    batch = [_progress("circuit", generation=g) for g in range(3)] + [
        {"stage": "circuit", "status": "completed", "worker": "w1", "payload": None}
    ]
    seqs, cancel_requested = store.append_events(job.id, batch)
    assert seqs == [2, 3, 4, 5]
    assert cancel_requested is False
    events = store.events(job.id)
    assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
    assert [(e["stage"], e["status"]) for e in events[1:]] == [
        ("circuit", "progress")
    ] * 3 + [("circuit", "completed")]
    assert [e["payload"]["generation"] for e in events[1:4]] == [0, 1, 2]
    assert {e["worker"] for e in events} == {"w1"}


def test_empty_append_appends_nothing_but_answers_the_cancel_flag(store):
    job, _ = store.submit(TINY)
    store.claim("w1")
    store.start(job.id, "w1")
    assert store.append_events(job.id, []) == ([], False)
    store.cancel(job.id)
    before = store.events(job.id)
    assert store.append_events(job.id, []) == ([], True)
    assert store.events(job.id) == before  # the poll wrote nothing


def test_append_events_to_an_unknown_job_raises_key_error(store):
    """No orphan events: SQLite raises KeyError, the coordinator answers
    404, which the remote store maps back to KeyError."""
    with pytest.raises(KeyError):
        store.append_events("0123456789abcdef", [_progress("circuit")])
    with pytest.raises(KeyError):
        store.append_events("0123456789abcdef", [])
    assert store.events_since("0123456789abcdef") == []


def test_cancel_records_its_event_atomically(store):
    """The cancel event is written inside store.cancel()'s transaction, so
    no event can ever be appended after a job turns terminal -- the
    invariant SSE end-of-stream detection rests on."""
    job, _ = store.submit(TINY)
    store.cancel(job.id)
    events = store.events(job.id)
    assert [(e["stage"], e["status"]) for e in events] == [("cancel", "requested")]
    # Flag-raise path (running job) records the request event too.
    other, _ = store.submit(TINY.with_overrides(seed=77))
    store.claim("w1")
    store.start(other.id, "w1")
    store.cancel(other.id)
    assert ("cancel", "requested") in [
        (e["stage"], e["status"]) for e in store.events(other.id)
    ]


# -- pagination and counts ----------------------------------------------------------------


def test_jobs_pagination_windows(store):
    for seed in range(5):
        store.submit(TINY.with_overrides(seed=1000 + seed))
    assert len(store.jobs()) == 5
    first = store.jobs(limit=2, offset=0)
    second = store.jobs(limit=2, offset=2)
    third = store.jobs(limit=2, offset=4)
    assert [len(first), len(second), len(third)] == [2, 2, 1]
    ids = [j.id for j in first + second + third]
    assert len(set(ids)) == 5  # disjoint windows cover everything
    assert store.jobs(limit=2, offset=10) == []


def test_count_matches_listing(store):
    for seed in range(3):
        store.submit(TINY.with_overrides(seed=2000 + seed))
    store.cancel(store.jobs()[0].id)
    assert store.count() == 3
    assert store.count(state="queued") == 2
    assert store.count(state="cancelled") == 1
    with pytest.raises(ValueError):
        store.count(state="exploded")


# -- meta key-value store -----------------------------------------------------------------


def test_meta_roundtrip_and_cross_instance_visibility(sqlite_store, tmp_path):
    store = sqlite_store  # the meta table is a SQLite-backend internal
    assert store.get_meta("workers") is None
    assert store.get_meta("workers", default=0) == 0
    store.set_meta("workers", 4)
    assert store.get_meta("workers") == 4
    store.set_meta("workers", 2)  # upsert overwrites
    assert store.get_meta("workers") == 2
    # Visible from a second instance on the same path (the healthz reader
    # is a different process than the worker pool that publishes).
    twin = SqliteJobStore(tmp_path / "service.db", lease_ttl=60.0)
    assert twin.get_meta("workers") == 2


# -- connections: one per thread, per process ---------------------------------------------


def test_one_connection_per_thread_is_reused_across_calls(tmp_path, monkeypatch):
    opened = []
    connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        opened.append(connection)
        return connection

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    job, _ = store.submit(TINY)
    for _ in range(5):
        store.get(job.id)
        store.record_event(job.id, "circuit", "progress")
    assert store.claim("w1").id == job.id
    assert len(opened) == 1  # the constructor's connection, reused by every call

    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(store.get, job.id).result().state == "leased"
        other = pool.submit(store._connection).result()
    assert len(opened) == 2
    assert other is opened[1] and other is not opened[0]
    assert store._connection() is opened[0]


def test_forked_child_opens_its_own_connection(sqlite_store):
    store = sqlite_store
    job, _ = store.submit(TINY)
    inherited = store._connection()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into pytest
        code = 1
        try:
            os.close(read)
            fresh = store._connection() is not inherited
            claimed = store.claim("child")
            code = 0 if fresh and claimed is not None and claimed.id == job.id else 1
            os.write(write, b"ok" if code == 0 else b"bad")
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        report = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert report == b"ok" and os.waitstatus_to_exitcode(status) == 0
    # The parent's cached connection is untouched and sees the child's claim.
    assert store._connection() is inherited
    assert store.get(job.id).worker == "child"


def test_cached_connection_reads_commits_from_other_threads(sqlite_store):
    """No read snapshot outlives a statement: a thread's cached connection
    sees a write another thread committed after its previous read."""
    store = sqlite_store
    job, _ = store.submit(TINY)
    with ThreadPoolExecutor(max_workers=1) as reader:
        assert reader.submit(store.get, job.id).result().state == "queued"
        assert reader.submit(store.claim, "w-probe").result() is not None
        assert store.start(job.id, "w-probe")  # committed on this thread
        assert reader.submit(store.get, job.id).result().state == "running"
        assert store.complete(job.id, "w-probe", {"yield_percent": 1.0})
        assert reader.submit(store.get, job.id).result().state == "done"


def test_exclusive_session_rolls_back_and_keeps_the_connection_usable(sqlite_store):
    store = sqlite_store
    job, _ = store.submit(TINY)
    connection = store._connection()
    with pytest.raises(RuntimeError, match="boom"):
        with store._session(exclusive=True) as session:
            session.execute("UPDATE jobs SET state='failed' WHERE id=?", (job.id,))
            raise RuntimeError("boom")
    assert not connection.in_transaction
    assert store.get(job.id).state == "queued"  # the update was rolled back
    assert store.claim("w1").id == job.id  # a fresh exclusive session works
    assert store._connection() is connection
