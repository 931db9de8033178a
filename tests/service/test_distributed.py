"""Distributed execution end-to-end: a remote worker over loopback HTTP
produces artefacts bit-identical to ``repro run``, including after a
SIGKILL-and-reclaim mid-circuit-stage under fault injection and after a
full network partition (the ISSUE's acceptance invariants).

Faults come from :mod:`faults` -- seeded drops/duplicates on the byte
transport, a switchable :class:`~faults.Partition`, and the store-level
:class:`~faults.FlakyStore` -- and every fault test asserts its faults
actually fired, so a silently-healthy harness cannot go green.
"""

import multiprocessing
import threading
import time

import pytest

from conftest import assert_artefacts_byte_identical, tiny_scenario
from faults import FlakyStore, FlakyTransport, Partition
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


class CountingTransport:
    """Passes every exchange through, logging ``"METHOD path"``."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def base_url(self):
        return self.inner.base_url

    def request(self, method, path, body=None, headers=None):
        self.log.append(f"{method} {path}")
        return self.inner.request(method, path, body, headers)


def test_remote_fast_smoke_job_pins_its_wire_traffic(coordinator, tmp_path):
    """One remote ``fast-smoke`` job downloads the circuit partial at most
    twice (the NSGA-II resume probe and the model build's, not once per
    Monte Carlo point) and still lands artefacts byte-identical to a
    direct run."""
    scenario = get_scenario("fast-smoke").with_overrides(seed=10007)
    transport = CountingTransport(HttpTransport(coordinator.url))
    store = RemoteJobStore(coordinator.url, transport=transport)
    job, _ = store.submit(scenario)
    worker_cache = tmp_path / "worker-cache"
    executed = remote_worker_loop(
        coordinator.url,
        worker_cache,
        max_jobs=1,
        poll_interval=0.05,
        store=store,
        artifacts=HttpArtifactStore(coordinator.url, worker_cache, transport=transport),
    )
    assert executed == 1 and coordinator.store.get(job.id).state == "done"
    partial = f"/v1/artifacts/{job.id}/circuit.partial.pkl"
    assert transport.log.count(f"PUT {partial}") >= 2  # the Monte Carlo points were checkpointed
    assert transport.log.count(f"GET {partial}") <= 2

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    direct = ArtefactCache(direct_cache).entry_for(scenario)
    assert_artefacts_byte_identical(
        direct, ArtefactCache(coordinator.cache_dir).entry_for(scenario)
    )
    assert_artefacts_byte_identical(direct, ArtefactCache(worker_cache).entry_for(scenario))


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
    flaky = FlakyStore(sqlite, seed=11, drop=0.7, methods=("record_event",))

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
    artefacts are byte-identical to an uninterrupted ``repro run``."""
    scenario = tiny_scenario(
        "distributed-kill", seed=88, circuit_population=40, circuit_generations=60
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
        # The worker pushes its per-generation circuit partials to the
        # coordinator; once generation 3 is visible there, kill it.
        wait_for_partial_generation(coordinator_entry, 3)
        worker_a.kill()
        worker_a.join(timeout=10.0)
        assert not coordinator_entry.has("circuit"), "worker A finished the stage"
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


@pytest.mark.slow
def test_partitioned_worker_loses_lease_and_peer_resumes_from_partial(tmp_path):
    """A network partition mid-circuit-stage: the cut worker keeps
    computing but cannot heartbeat, the coordinator expires its lease on
    its own clock, and a healthy peer resumes from the last partial the
    coordinator received -- bit-identically."""
    scenario = tiny_scenario(
        "distributed-partition", seed=55, circuit_population=40, circuit_generations=60
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

        partition = Partition()
        store_transport = FlakyTransport(HttpTransport(url), seed=1, partition=partition)
        artifact_transport = FlakyTransport(
            HttpTransport(url), seed=2, partition=partition
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
                    store=RemoteJobStore(
                        url, transport=store_transport, retries=2, retry_delay=0.01
                    ),
                    artifacts=HttpArtifactStore(
                        url,
                        tmp_path / "cache-a",
                        transport=artifact_transport,
                        retries=2,
                        retry_delay=0.01,
                    ),
                )
            ),
            daemon=True,
        )
        worker_a.start()
        wait_for_partial_generation(coordinator_entry, 3)
        partition.cut()
        stop.set()
        worker_a.join(timeout=30.0)
        assert not worker_a.is_alive()
        # The partitioned worker finished its computation locally, but
        # none of it reached the coordinator: no execution is credited.
        assert result["executed"] == 0
        assert store_transport.faults_fired("partition") >= 1
        assert artifact_transport.faults_fired("partition") >= 1
        assert not coordinator_entry.has("circuit")
        checkpoint = coordinator_entry.load_partial("circuit")
        assert checkpoint is not None and checkpoint["generation"] >= 3

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
    finally:
        server.shutdown()

    direct_cache = tmp_path / "direct"
    ExperimentRunner(scenario, cache_dir=direct_cache).run()
    assert_artefacts_byte_identical(
        ArtefactCache(direct_cache).entry_for(scenario), coordinator_entry
    )
