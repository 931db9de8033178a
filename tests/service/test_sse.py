"""Live SSE streaming: replay-then-tail, Last-Event-ID reconnect, and
concurrent subscribers.

The contract under test: ``GET /v1/jobs/<id>/events`` first replays every
persisted event in sequence order, then tails new events as they land,
and closes with an ``event: end`` frame once the job is terminal.  A
reconnect with ``Last-Event-ID: n`` resumes exactly after ``n`` -- no
gaps, no duplicates -- because events are persisted (gapless monotonic
``seq``) before any subscriber sees them.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.experiments.config import ScenarioConfig
from repro.service.api import make_async_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import SqliteJobStore
from repro.service.worker import run_worker, worker_loop

TINY = ScenarioConfig(
    name="sse-tiny",
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
    seed=53,
)


@pytest.fixture()
def live(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, tmp_path / "cache")
    host, port = server.start()
    client = ServiceClient(f"http://{host}:{port}")
    client.wait_until_ready()
    yield client, store, tmp_path / "cache"
    server.shutdown()


def collect(client, job_id, last_event_id=None):
    """Drain one stream to its end frame; returns (events, end_frame)."""
    events = []
    for event in client.stream_events(job_id, last_event_id=last_event_id):
        if event.get("event") == "end":
            return events, event
        events.append(event)
    raise AssertionError("stream finished without an end frame")


def test_stream_replays_persisted_events_then_ends(live):
    client, store, _ = live
    job, _ = store.submit(TINY)
    for generation in range(3):
        store.record_event(job.id, "circuit", "progress", "w1", {"generation": generation})
    store.cancel(job.id)  # terminal: the stream must replay and close

    events, end = collect(client, job.id)
    assert [e["seq"] for e in events] == [1, 2, 3, 4]
    assert [e["payload"]["generation"] for e in events[:3]] == [0, 1, 2]
    assert (events[3]["stage"], events[3]["status"]) == ("cancel", "requested")
    assert end["state"] == "cancelled"


def test_stream_tails_live_events_recorded_mid_subscription(live):
    client, store, _ = live
    job, _ = store.submit(TINY)
    store.record_event(job.id, "circuit", "progress", "w1", {"generation": 0})

    received = []
    failures = []

    def subscribe():
        try:
            received.append(collect(client, job.id))
        except Exception as error:  # noqa: BLE001 - surfaced by the assert below
            failures.append(error)

    thread = threading.Thread(target=subscribe)
    thread.start()
    time.sleep(0.6)  # let the subscriber replay event 1 and go idle
    store.record_event(job.id, "circuit", "progress", "w1", {"generation": 1})
    time.sleep(0.6)
    store.record_event(job.id, "system", "completed", "w1", None)
    store.cancel(job.id)
    thread.join(timeout=15.0)
    assert not thread.is_alive() and not failures, failures

    events, end = received[0]
    assert [e["seq"] for e in events] == [1, 2, 3, 4]
    assert events[1]["payload"] == {"generation": 1}
    assert end["state"] == "cancelled"


def test_last_event_id_reconnect_is_gap_and_duplicate_free(live):
    client, store, _ = live
    job, _ = store.submit(TINY)
    for generation in range(6):
        store.record_event(job.id, "circuit", "progress", "w1", {"generation": generation})

    # First subscription: read a prefix, then drop the connection.
    prefix = []
    stream = client.stream_events(job.id)
    for event in stream:
        prefix.append(event)
        if event["seq"] == 3:
            stream.close()  # client vanishes mid-stream
            break

    # More events land while disconnected.
    store.record_event(job.id, "yield", "progress", "w1", {"samples_done": 4})
    store.cancel(job.id)

    # Reconnect with Last-Event-ID = last seq seen.
    tail, end = collect(client, job.id, last_event_id=prefix[-1]["seq"])
    seqs = [e["seq"] for e in prefix] + [e["seq"] for e in tail]
    assert seqs == list(range(1, 9))  # gap-free, duplicate-free
    assert end["state"] == "cancelled"

    # The ?after= query form is equivalent (curl-friendly).
    requery, _ = collect(client, job.id, last_event_id=None)
    assert [e["seq"] for e in requery] == list(range(1, 9))


def test_two_concurrent_subscribers_see_identical_sequences(live):
    client, store, _ = live
    job, _ = store.submit(TINY)
    store.record_event(job.id, "circuit", "progress", "w1", {"generation": 0})

    results = {}
    failures = []

    def subscribe(name):
        try:
            results[name] = collect(client, job.id)
        except Exception as error:  # noqa: BLE001
            failures.append(error)

    threads = [
        threading.Thread(target=subscribe, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.6)
    for generation in range(1, 4):
        store.record_event(job.id, "circuit", "progress", "w1", {"generation": generation})
        time.sleep(0.3)
    store.cancel(job.id)
    for thread in threads:
        thread.join(timeout=15.0)
    assert not failures, failures
    assert set(results) == {"a", "b"}

    events_a, end_a = results["a"]
    events_b, end_b = results["b"]
    assert events_a == events_b  # byte-for-byte identical event dicts
    assert end_a == end_b
    assert [e["seq"] for e in events_a] == [1, 2, 3, 4, 5]


def test_stream_of_unknown_job_is_404(live):
    client, _, _ = live
    with pytest.raises(ServiceError) as excinfo:
        next(client.stream_events("deadbeef"))
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown_job"


def test_stream_rejects_malformed_last_event_id(live):
    client, store, _ = live
    job, _ = store.submit(TINY)
    with pytest.raises(ServiceError) as excinfo:
        next(client.stream_events(job.id, last_event_id="banana"))
    assert excinfo.value.status == 400
    assert excinfo.value.code == "invalid_last_event_id"


def test_sse_wire_format_over_raw_http(live):
    """The raw bytes follow the SSE wire format: ``id:``/``event:``/
    ``data:`` fields, blank-line frame delimiters, JSON payloads."""
    client, store, _ = live
    job, _ = store.submit(TINY)
    store.record_event(job.id, "circuit", "progress", "w1", {"generation": 0})
    store.cancel(job.id)

    request = urllib.request.Request(
        f"{client.base_url}/v1/jobs/{job.id}/events", headers={"Accept": "text/event-stream"}
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        assert response.headers["Content-Type"].startswith("text/event-stream")
        raw = response.read().decode("utf-8")
    frames = [frame for frame in raw.split("\n\n") if frame.strip()]
    assert len(frames) == 3  # two events + end
    first = frames[0].split("\n")
    assert first[0] == "id: 1"
    assert first[1].startswith("data: ")
    assert json.loads(first[1][len("data: "):])["payload"] == {"generation": 0}
    assert "event: end" in frames[-1]


def test_streamed_job_executed_by_a_worker_end_to_end(live):
    """Integration: subscribe first, then let a real worker pass execute
    the job -- generation fronts and yield batches arrive live, the end
    frame reports ``done``, and the persisted log equals the streamed one.
    The yield spans three batches of the runner's default size, so it
    streams per-batch events."""
    client, store, cache = live
    job = client.submit("fast-smoke", {
        "circuit_population": 8,
        "circuit_generations": 2,
        "system_population": 8,
        "system_generations": 2,
        "mc_samples_per_point": 4,
        "yield_samples": 130,
        "max_model_points": 6,
        "seed": 53,
    })

    received = []
    failures = []

    def subscribe():
        try:
            received.append(collect(client, job["id"]))
        except Exception as error:  # noqa: BLE001
            failures.append(error)

    thread = threading.Thread(target=subscribe)
    thread.start()
    time.sleep(0.3)
    assert worker_loop(store.path, cache, lease_ttl=30.0, max_jobs=1) == 1
    thread.join(timeout=60.0)
    assert not thread.is_alive() and not failures, failures

    events, end = received[0]
    assert end["state"] == "done"
    stages = [(e["stage"], e["status"]) for e in events]
    assert ("circuit", "progress") in stages
    assert ("yield", "progress") in stages
    assert [s for s, status in stages if status == "completed"] == [
        "circuit",
        "system",
        "yield",
    ]
    # The streamed log is exactly the persisted log.
    assert events == store.events(job["id"])


class TerminalSnapshotStore:
    """Delegates to a job store, snapshotting the job's persisted events
    the moment the worker records its terminal outcome."""

    def __init__(self, inner):
        self.inner = inner
        self.at_terminal = None

    def __getattr__(self, name):
        value = getattr(self.inner, name)
        if name not in ("complete", "fail", "mark_cancelled"):
            return value

        def terminal(job_id, *args, **kwargs):
            self.at_terminal = self.inner.events(job_id)
            return value(job_id, *args, **kwargs)

        return terminal


@pytest.mark.parametrize("seed, state", [(53, "done"), (10169, "failed")])
def test_job_events_are_stored_before_its_state_turns_terminal(live, seed, state):
    """The worker buffers progress events between cancel polls; every one
    is stored before the terminal outcome, so the stream -- which drains
    once after it sees a terminal state -- ends with the job's full log.
    Seed 10169 fails in the model build with circuit progress still
    buffered (no stage completed to flush it)."""
    client, store, cache = live
    overrides = {} if state == "failed" else {
        "circuit_population": 8,
        "circuit_generations": 2,
        "mc_samples_per_point": 4,
        "yield_samples": 10,
        "max_model_points": 6,
    }
    job = client.submit("fast-smoke", dict(overrides, seed=seed))
    received = []
    thread = threading.Thread(target=lambda: received.append(collect(client, job["id"])))
    thread.start()
    proxy = TerminalSnapshotStore(store)
    assert run_worker(proxy, cache, "w-sse", max_jobs=1, poll_interval=0.01) == 1
    thread.join(timeout=60.0)
    assert not thread.is_alive()

    events, end = received[0]
    assert end["state"] == state == store.get(job["id"]).state
    assert proxy.at_terminal == store.events(job["id"]) == events
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert ("circuit", "progress") in [(e["stage"], e["status"]) for e in events]
