"""Distributed execution end-to-end: a remote worker over loopback HTTP
produces artefacts bit-identical to ``repro run``, including after a
SIGKILL-and-reclaim mid-circuit-stage under fault injection and after a
full network partition (the ISSUE's acceptance invariants).

Faults come from :mod:`faults` -- seeded drops/duplicates on the byte
transport, a switchable :class:`~faults.Partition`, and the store-level
:class:`~faults.FlakyStore` -- and every fault test asserts its faults
actually fired, so a silently-healthy harness cannot go green.
"""

import contextlib
import multiprocessing
import threading
import time

import pytest

from conftest import assert_artefacts_byte_identical, tiny_scenario
from faults import CountingTransport, FlakyStore, FlakyTransport, PartialGate, Partition
from repro.experiments.artifacts import HttpArtifactStore, HttpTransport
from repro.experiments.cache import ArtefactCache
from repro.experiments.registry import get_scenario
from repro.experiments.runner import ExperimentRunner
from repro.service.api import make_async_server
from repro.service.remote import RemoteJobStore
from repro.service.store import SqliteJobStore
from repro.service.worker import remote_worker_loop, run_worker


def wait_for_partial_generation(entry, generation, timeout=60.0):
    """Block until the circuit partial reports at least ``generation``."""
    deadline = time.monotonic() + timeout
    while True:
        state = entry.load_partial("circuit")
        if state is not None and state.get("generation", 0) >= generation:
            return state
        assert time.monotonic() < deadline, "worker never reached the target generation"
        time.sleep(0.002)


@contextlib.contextmanager
def serving(tmp_path, lease_ttl):
    """A loopback coordinator with its own lease TTL: ``(authority, url)``."""
    authority = SqliteJobStore(tmp_path / "coordinator.db", lease_ttl=lease_ttl)
    server = make_async_server("127.0.0.1", 0, authority, tmp_path / "coordinator-cache")
    host, port = server.start()
    try:
        yield authority, f"http://{host}:{port}"
    finally:
        server.shutdown()


def first_resumed_generation(authority, job_id, worker):
    """The generation of ``worker``'s first circuit progress event."""
    return next(
        event["payload"]["generation"]
        for event in authority.events(job_id)
        if event["worker"] == worker
        and event["stage"] == "circuit"
        and event["status"] == "progress"
    )


# -- the healthy path ------------------------------------------------------------------


def test_remote_worker_executes_bit_identically(coordinator, tmp_path):
    """A job submitted to the coordinator and executed by a loopback
    HTTP worker lands bit-identical artefacts in the coordinator cache,
    the worker's read-through cache, and a direct ``repro run``."""
    scenario = tiny_scenario("distributed-basic", seed=101)
    remote = RemoteJobStore(coordinator.url)
    job, created = remote.submit(scenario)
    assert created

    worker_cache = tmp_path / "worker-cache"
    executed = remote_worker_loop(
        coordinator.url, worker_cache, max_jobs=1, poll_interval=0.05
    )
    assert executed == 1

    done = coordinator.store.get(job.id)
    assert done.state == "done"
    assert done.summary is not None
    completed = [
        event["stage"]
        for event in coordinator.store.events(job.id)
        if event["status"] == "completed"
    ]
    assert "circuit" in completed and "yield" in completed

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    direct = ArtefactCache(direct_cache).entry_for(scenario)
    assert_artefacts_byte_identical(
        direct, ArtefactCache(coordinator.cache_dir).entry_for(scenario)
    )
    assert_artefacts_byte_identical(
        direct, ArtefactCache(worker_cache).entry_for(scenario)
    )


def test_remote_fast_smoke_job_pins_its_wire_traffic(coordinator, tmp_path):
    """One remote ``fast-smoke`` job asks the coordinator only what it
    cannot know: no per-name artefact probe on a fresh job (absence comes
    from the listing its pushes are answered with), no separate cancel
    poll (the flag rides the events exchange), progress events batched
    into the stage-completion and cancel-poll exchanges, and no partial
    checkpoint on the wire for a job that ends within one heartbeat
    interval -- at most 12 exchanges from claim to outcome -- and
    artefacts byte-identical to a direct run."""
    scenario = get_scenario("fast-smoke").with_overrides(seed=10007)
    transport = CountingTransport(HttpTransport(coordinator.url))
    store = RemoteJobStore(coordinator.url, transport=transport)
    job, _ = store.submit(scenario)
    submitted = len(transport.log)
    worker_cache = tmp_path / "worker-cache"
    started = time.monotonic()
    executed = remote_worker_loop(
        coordinator.url,
        worker_cache,
        max_jobs=1,
        poll_interval=0.05,
        store=store,
        artifacts=HttpArtifactStore(coordinator.url, worker_cache, transport=transport),
    )
    elapsed = time.monotonic() - started
    assert executed == 1 and coordinator.store.get(job.id).state == "done"
    # Partials are published on the heartbeat (every ttl/3 = 10 s here):
    # a job this short puts none on the wire, so it deletes none either.
    assert elapsed < coordinator.store.lease_ttl / 3.0
    assert not [line for line in transport.log if ".partial.pkl" in line], transport.log

    job_log = [
        line for line in transport.log[submitted:] if not line.endswith("/heartbeat")
    ]
    assert not [line for line in job_log if line.endswith("/flags")]
    assert not [line for line in job_log if line.startswith(f"GET /v1/artifacts/{job.id}/")]
    stages = [
        event["stage"]
        for event in coordinator.store.events(job.id)
        if event["status"] == "completed"
    ]
    assert stages == ["circuit", "system", "yield"]
    # The cancel poll runs once per interval (min(1 s, ttl/6) = 1 s here)
    # at most; every other events exchange carries a stage completion.
    cancel_polls = int(elapsed / min(1.0, coordinator.store.lease_ttl / 6.0))
    assert job_log.count(f"POST /v1/jobs/{job.id}/events") <= len(stages) + cancel_polls
    assert len(job_log) <= 12 + cancel_polls, job_log

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    direct = ArtefactCache(direct_cache).entry_for(scenario)
    assert_artefacts_byte_identical(
        direct, ArtefactCache(coordinator.cache_dir).entry_for(scenario)
    )
    assert_artefacts_byte_identical(direct, ArtefactCache(worker_cache).entry_for(scenario))


# -- mid-stage partials, published on the heartbeat -----------------------------------


def test_long_job_has_its_latest_partial_on_the_coordinator_within_one_beat(tmp_path):
    """A partial stored locally reaches the coordinator with the first
    live heartbeat after it, so the coordinator is never more than one
    heartbeat interval (ttl/3) behind the worker."""
    scenario = tiny_scenario(
        "publish-on-beat", seed=91, circuit_population=40, circuit_generations=200
    )
    lease_ttl = 1.2
    interval = lease_ttl / 3.0
    with serving(tmp_path, lease_ttl) as (authority, url):
        authority.submit(scenario)
        local = ArtefactCache(tmp_path / "cache-a").entry_for(scenario)
        coordinator_entry = ArtefactCache(tmp_path / "coordinator-cache").entry_for(scenario)
        worker = threading.Thread(
            target=remote_worker_loop,
            args=(url, tmp_path / "cache-a"),
            kwargs={"max_jobs": 1, "poll_interval": 0.05},
            daemon=True,
        )
        worker.start()
        stored = wait_for_partial_generation(local, 20)["generation"]
        stored_at = time.monotonic()
        published = wait_for_partial_generation(coordinator_entry, stored)
        # One interval until the next beat, plus that beat's exchange
        # and the PUT on a busy loopback.
        assert time.monotonic() - stored_at < interval + 0.4
        assert published["generation"] < scenario.circuit_generations
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert authority.jobs()[0].state == "done"
    # The stage's end deleted the published partial.
    assert coordinator_entry.load_partial("circuit") is None


def partial_puts(log):
    """Indices of the partial-checkpoint PUTs in a transport log."""
    return [
        index
        for index, line in enumerate(log)
        if line.startswith("PUT ") and line.endswith(".partial.pkl")
    ]


class LeaseLosingStore(RemoteJobStore):
    """A remote store whose heartbeats answer "lost" once a partial was
    published, noting where the artifact log stood at that answer."""

    def __init__(self, url, artifact_log):
        super().__init__(url)
        self.artifact_log = artifact_log
        self.lost_at = None

    def heartbeat(self, job_id, worker):
        alive = super().heartbeat(job_id, worker) and self.lost_at is None
        if alive and partial_puts(self.artifact_log):
            self.lost_at = len(self.artifact_log)
            alive = False
        return alive


def test_nothing_is_published_after_a_beat_answers_lost(tmp_path):
    """A worker told its lease is lost publishes no partial any more,
    neither on a later beat nor before its terminal outcome."""
    scenario = tiny_scenario(
        "publish-lost", seed=92, circuit_population=40, circuit_generations=200
    )
    with serving(tmp_path, lease_ttl=1.2) as (authority, url):
        authority.submit(scenario)
        transport = CountingTransport(HttpTransport(url))
        store = LeaseLosingStore(url, transport.log)
        remote_worker_loop(
            url,
            tmp_path / "cache-a",
            max_jobs=1,
            poll_interval=0.05,
            store=store,
            artifacts=HttpArtifactStore(url, tmp_path / "cache-a", transport=transport),
        )
    assert store.lost_at is not None, "no beat answered lost while the job ran"
    assert partial_puts(transport.log)  # a live beat published
    assert all(index < store.lost_at for index in partial_puts(transport.log)), transport.log


def test_remote_cancel_publishes_the_last_local_partial_before_cancelled(
    coordinator, tmp_path
):
    """A cancel observed mid-NSGA-II publishes the worker's newest local
    partial before the ``cancelled`` outcome, so a resubmission on any
    host resumes from it (no beat publishes anything at this TTL)."""
    scenario = tiny_scenario(
        "publish-cancel", seed=93, circuit_population=40, circuit_generations=200
    )
    job, _ = coordinator.store.submit(scenario)
    transport = CountingTransport(HttpTransport(coordinator.url))
    worker_cache = tmp_path / "worker-cache"
    worker = threading.Thread(
        target=remote_worker_loop,
        args=(coordinator.url, worker_cache),
        kwargs={
            "max_jobs": 1,
            "poll_interval": 0.05,
            "cancel_poll_interval": 0.05,
            "store": RemoteJobStore(coordinator.url, transport=transport),
            "artifacts": HttpArtifactStore(coordinator.url, worker_cache, transport=transport),
        },
        daemon=True,
    )
    worker.start()
    wait_for_partial_generation(ArtefactCache(worker_cache).entry_for(scenario), 3)
    coordinator.store.cancel(job.id)
    worker.join(timeout=60.0)
    assert not worker.is_alive()
    assert coordinator.store.get(job.id).state == "cancelled"

    name = "circuit.partial.pkl"
    on_coordinator = coordinator.cache_dir / job.id / name
    local = worker_cache / job.id / name
    assert on_coordinator.read_bytes() == local.read_bytes()
    state = ArtefactCache(coordinator.cache_dir).entry(job.id).load_partial("circuit")
    assert 3 <= state["generation"] < scenario.circuit_generations
    put = transport.log.index(f"PUT /v1/artifacts/{job.id}/{name}")
    assert put < transport.log.index(f"POST /v1/jobs/{job.id}/outcome")
    assert transport.log.count(f"PUT /v1/artifacts/{job.id}/{name}") == 1


def test_remote_worker_trace_lands_on_coordinator_under_job_trace_id(
    coordinator, tmp_path
):
    """The remote worker's spans (including its process-pool children)
    travel to the coordinator as ``trace.jsonl`` under the submitting
    job's trace id, and the claim response advertises that id in the
    ``X-Repro-Trace`` header."""
    scenario = tiny_scenario("distributed-trace", seed=404)
    remote = RemoteJobStore(coordinator.url)
    job, _ = remote.submit(scenario)

    claimed = remote.claim("w-probe")
    assert claimed.id == job.id
    # The coordinator stamps the job's trace id on the claim response.
    assert remote.last_trace_id == job.id
    # Release the probe's lease so the real worker can claim the job.
    assert coordinator.store.requeue_expired() == 0  # lease still live
    coordinator.store.mark_cancelled(job.id, "w-probe")
    resubmitted, _ = remote.submit(scenario)  # requeues the parked job
    assert resubmitted.id == job.id

    executed = remote_worker_loop(
        coordinator.url, tmp_path / "worker-cache", max_jobs=1, poll_interval=0.05
    )
    assert executed == 1
    assert coordinator.store.get(job.id).state == "done"

    entry = ArtefactCache(coordinator.cache_dir).entry_for(scenario)
    spans = entry.read_trace()
    assert spans, "no trace.jsonl reached the coordinator"
    assert {record["trace_id"] for record in spans} == {job.id}
    names = {record["name"] for record in spans}
    assert "worker.execute_job" in names
    assert "runner.run" in names and "stage.circuit" in names
    # The worker root span carries the worker identity.
    root = next(record for record in spans if record["name"] == "worker.execute_job")
    assert root["parent_id"] is None
    assert root["attrs"]["job_id"] == job.id
    # Remote round-trips were themselves traced from the worker side.
    assert "remote.roundtrip" in names


def test_unclaimed_poll_has_no_trace_header(coordinator):
    """An empty claim must not advertise a trace id."""
    remote = RemoteJobStore(coordinator.url)
    assert remote.claim("w-idle") is None
    assert remote.last_trace_id is None


# -- store-level fault injection -------------------------------------------------------


def test_worker_survives_dropped_progress_events(tmp_path):
    """Progress events are advisory: a store that drops most of them
    must not affect the run's outcome."""
    scenario = tiny_scenario("distributed-flaky-events", seed=210)
    sqlite = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    sqlite.submit(scenario)
    flaky = FlakyStore(sqlite, seed=11, drop=0.7, methods=("append_events",))

    executed = run_worker(
        flaky, tmp_path / "cache", "w-flaky", max_jobs=1, poll_interval=0.01
    )
    assert executed == 1
    job = sqlite.jobs()[0]
    assert job.state == "done"
    assert flaky.faults_fired() >= 1, "no event was ever dropped -- test is vacuous"


def test_dropped_outcome_is_reclaimed_after_lease_expiry(tmp_path):
    """A worker whose terminal ``complete`` never reaches the store must
    not count the job as executed; after lease expiry a healthy worker
    reclaims it and completes instantly from the cache."""
    scenario = tiny_scenario("distributed-lost-outcome", seed=211)
    lease_ttl = 0.5
    sqlite = SqliteJobStore(tmp_path / "service.db", lease_ttl=lease_ttl)
    job, _ = sqlite.submit(scenario)
    flaky = FlakyStore(sqlite, seed=3, drop=1.0, methods=("complete",))

    executed = run_worker(
        flaky, tmp_path / "cache", "w-cut", max_jobs=1, poll_interval=0.01
    )
    assert executed == 0, "a lost outcome must not count as an execution"
    assert flaky.faults_fired() >= 1
    stranded = sqlite.get(job.id)
    assert stranded.state == "running" and stranded.worker == "w-cut"

    time.sleep(lease_ttl + 0.2)
    executed = run_worker(
        sqlite, tmp_path / "cache", "w-heal", max_jobs=1, poll_interval=0.01
    )
    assert executed == 1
    healed = sqlite.get(job.id)
    assert healed.state == "done"
    assert healed.attempts == 2 and healed.worker == "w-heal"


# -- wire-level fault injection --------------------------------------------------------


@pytest.mark.slow
def test_sigkill_remote_worker_reclaims_bit_identically_under_faults(tmp_path):
    """The ISSUE's acceptance invariant: a remote worker SIGKILLed
    mid-NSGA-II is reclaimed after coordinator-side lease expiry by a
    second remote worker running over a *faulty* wire (dropped
    heartbeats/events, duplicated artifact PUTs), and the final
    artefacts are byte-identical to an uninterrupted ``repro run``.

    Worker A publishes its partial on each live heartbeat (every ttl/3),
    so it dies a beat or so into the NSGA-II run; the job is sized so
    that B still has at least 50 of its 200 generations to compute, and
    B polls at every generation boundary: at least 50 events exchanges,
    well past the 7th matching exchange on which the seeded drop
    schedule (seed 5, p = 0.3) fires its first drop."""
    generations = 200
    scenario = tiny_scenario(
        "distributed-kill", seed=88, circuit_population=40, circuit_generations=generations
    )
    lease_ttl = 1.0
    authority = SqliteJobStore(tmp_path / "coordinator.db", lease_ttl=lease_ttl)
    coordinator_cache = tmp_path / "coordinator-cache"
    server = make_async_server("127.0.0.1", 0, authority, coordinator_cache)
    host, port = server.start()
    url = f"http://{host}:{port}"
    try:
        job, _ = authority.submit(scenario)
        coordinator_entry = ArtefactCache(coordinator_cache).entry_for(scenario)

        context = multiprocessing.get_context("spawn")
        worker_a = context.Process(
            target=remote_worker_loop,
            args=(url, tmp_path / "cache-a"),
            kwargs={"max_jobs": 1, "poll_interval": 0.05},
            daemon=True,
        )
        worker_a.start()
        # The worker publishes its circuit partial on each live beat;
        # once generation 3 or later is visible there, kill it.
        wait_for_partial_generation(coordinator_entry, 3)
        worker_a.kill()
        worker_a.join(timeout=10.0)
        assert not coordinator_entry.has("circuit"), "worker A finished the stage"
        published = coordinator_entry.load_partial("circuit")["generation"]
        assert 3 <= published <= generations - 50, published
        killed = authority.get(job.id)
        assert killed.state in ("leased", "running")

        time.sleep(lease_ttl + 0.3)
        # Worker B reclaims over a hostile wire: ~30% of heartbeat and
        # event exchanges dropped, every artifact PUT duplicated.
        store_transport = FlakyTransport(
            HttpTransport(url), seed=5, drop=0.3, match=r"heartbeat|events"
        )
        artifact_transport = FlakyTransport(
            HttpTransport(url), seed=6, duplicate=1.0, match=r"^PUT "
        )
        executed = remote_worker_loop(
            url,
            tmp_path / "cache-b",
            max_jobs=1,
            poll_interval=0.05,
            cancel_poll_interval=0.0,
            worker_name="worker-b",
            store=RemoteJobStore(url, transport=store_transport, retry_delay=0.01),
            artifacts=HttpArtifactStore(
                url, tmp_path / "cache-b", transport=artifact_transport
            ),
        )
        assert executed == 1
        finished = authority.get(job.id)
        assert finished.state == "done"
        assert finished.attempts == 2
        assert finished.worker == "worker-b" != killed.worker
        # B resumed from A's last publication.
        assert first_resumed_generation(authority, job.id, "worker-b") == published + 1
        # The harness genuinely injected faults.
        assert store_transport.faults_fired("drop") >= 1
        assert artifact_transport.faults_fired("duplicate") >= 4
    finally:
        server.shutdown()

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    direct = ArtefactCache(direct_cache).entry_for(scenario)
    assert_artefacts_byte_identical(direct, coordinator_entry)
    assert_artefacts_byte_identical(
        direct, ArtefactCache(tmp_path / "cache-b").entry_for(scenario)
    )


class BeatWatchingStore(RemoteJobStore):
    """Remembers the thread that sends the job's heartbeats."""

    beat_thread = None

    def heartbeat(self, job_id, worker):
        self.beat_thread = threading.current_thread()
        return super().heartbeat(job_id, worker)


@pytest.mark.slow
def test_partitioned_worker_loses_lease_and_peer_resumes_from_partial(tmp_path):
    """A network partition mid-circuit-stage: the cut worker cannot
    heartbeat, so once no beat has been acknowledged for a lease TTL it
    declares the lease lost and stops at its next generation; the
    coordinator expires the lease on its own clock, and a healthy peer
    resumes from the last partial the coordinator received --
    bit-identically.

    A gate holds the cut worker after it stored generation ``held_at``
    until its heartbeat thread has declared the lease lost, so the
    generation it stops at does not depend on host speed: the peer still
    has at least 50 of the job's 200 generations to compute."""
    generations = 200
    held_at = 8
    scenario = tiny_scenario(
        "distributed-partition", seed=55, circuit_population=40, circuit_generations=generations
    )
    lease_ttl = 1.0
    interval = lease_ttl / 3.0
    authority = SqliteJobStore(tmp_path / "coordinator.db", lease_ttl=lease_ttl)
    coordinator_cache = tmp_path / "coordinator-cache"
    server = make_async_server("127.0.0.1", 0, authority, coordinator_cache)
    host, port = server.start()
    url = f"http://{host}:{port}"
    try:
        job, _ = authority.submit(scenario)
        coordinator_entry = ArtefactCache(coordinator_cache).entry_for(scenario)

        partition = Partition()
        store_transport = FlakyTransport(HttpTransport(url), seed=1, partition=partition)
        artifact_transport = FlakyTransport(
            HttpTransport(url), seed=2, partition=partition
        )
        store_a = BeatWatchingStore(
            url, transport=store_transport, retries=2, retry_delay=0.01
        )
        gate = PartialGate(
            HttpArtifactStore(
                url,
                tmp_path / "cache-a",
                transport=artifact_transport,
                retries=2,
                retry_delay=0.01,
            ),
            "circuit",
            held_at,
        )
        stop = threading.Event()
        result = {}
        worker_a = threading.Thread(
            target=lambda: result.update(
                executed=remote_worker_loop(
                    url,
                    tmp_path / "cache-a",
                    max_jobs=1,
                    poll_interval=0.05,
                    stop_event=stop,
                    worker_name="worker-a",
                    store=store_a,
                    artifacts=gate,
                )
            ),
            daemon=True,
        )
        worker_a.start()
        assert gate.held.wait(60.0), "worker never reached the held generation"
        # One generation's duration, timed on worker A's partial stores.
        generation_s = gate.generation_s(1, held_at)
        # The held generation reaches the coordinator on a live beat.
        wait_for_partial_generation(coordinator_entry, held_at)
        local_a = ArtefactCache(tmp_path / "cache-a").entry_for(scenario)
        partition.cut()
        cut_at = time.monotonic()
        stop.set()
        # The heartbeat thread ends only once it has declared the lease lost.
        store_a.beat_thread.join(timeout=30.0)
        assert not store_a.beat_thread.is_alive()
        gate.release()
        worker_a.join(timeout=30.0)
        returned_s = time.monotonic() - cut_at
        assert not worker_a.is_alive()
        # Its last acknowledged beat came before the cut, the first beat a
        # full TTL after it declares the lease lost, and the run stops at
        # the next generation boundary (plus scheduling slack).
        bound_s = lease_ttl + interval + generation_s
        assert returned_s < bound_s + 0.5, (returned_s, bound_s)
        assert not local_a.has("circuit")
        assert local_a.load_partial("circuit")["generation"] < generations - 50
        # None of worker A's work after the cut reached the coordinator:
        # no execution is credited.
        assert result["executed"] == 0
        assert store_transport.faults_fired("partition") >= 1
        assert artifact_transport.faults_fired("partition") >= 1
        assert not coordinator_entry.has("circuit")
        checkpoint = coordinator_entry.load_partial("circuit")
        assert checkpoint is not None
        published = checkpoint["generation"]
        assert 3 <= published <= generations - 50, published

        # Coordinator-clock lease expiry is the recovery trigger.
        deadline = time.monotonic() + 10.0
        requeued = 0
        while requeued == 0 and time.monotonic() < deadline:
            requeued = authority.requeue_expired()
            time.sleep(0.05)
        assert requeued == 1

        executed = remote_worker_loop(
            url,
            tmp_path / "cache-b",
            max_jobs=1,
            poll_interval=0.05,
            worker_name="worker-b",
        )
        assert executed == 1
        finished = authority.get(job.id)
        assert finished.state == "done"
        assert finished.attempts == 2 and finished.worker == "worker-b"
        assert first_resumed_generation(authority, job.id, "worker-b") == published + 1
    finally:
        server.shutdown()

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    assert_artefacts_byte_identical(
        ArtefactCache(direct_cache).entry_for(scenario), coordinator_entry
    )
