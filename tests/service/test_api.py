"""HTTP API tests: routing, validation, and service-vs-CLI bit-identity."""

import pickle

import numpy as np
import pytest

from conftest import tiny_scenario
from repro.experiments.cache import ArtefactCache
from repro.experiments.report import report_payload
from repro.experiments.runner import ExperimentRunner
from repro.service.api import ExperimentService
from repro.service.client import ServiceError
from repro.service.store import SqliteJobStore
from repro.service.worker import worker_loop

TINY = tiny_scenario("api-tiny", seed=17)

#: Overrides turning the registered fast-smoke into TINY's numbers, so the
#: HTTP tests submit through the real registry path.
TINY_OVERRIDES = {
    "circuit_population": 8,
    "circuit_generations": 2,
    "system_population": 8,
    "system_generations": 2,
    "mc_samples_per_point": 4,
    "yield_samples": 10,
    "max_model_points": 6,
    "seed": 17,
}


@pytest.fixture()
def service(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    return ExperimentService(store, tmp_path / "cache")


# The ``live`` fixture (asyncio server + ready client) comes from conftest.


# -- application-level routing (no sockets) ----------------------------------------------


def test_scenarios_listing_includes_hashes(service):
    status, payload = service.scenarios()
    assert status == 200
    by_name = {entry["name"]: entry for entry in payload["scenarios"]}
    assert "fast-smoke" in by_name and "table2" in by_name
    assert by_name["table2"]["config_hash"]


def test_submit_validation_errors(service):
    assert service.submit({})[0] == 400
    assert service.submit({"scenario": 7})[0] == 400
    assert service.submit({"scenario": "fast-smoke", "overrides": "seed=1"})[0] == 400
    status, payload = service.submit({"scenario": "no-such-scenario"})
    assert status == 404
    assert payload["error"]["code"] == "unknown_scenario"
    assert "unknown scenario" in payload["error"]["message"]
    status, payload = service.submit(
        {"scenario": "fast-smoke", "overrides": {"n_stages": 4}}
    )
    assert status == 400
    assert payload["error"]["code"] == "invalid_overrides"
    assert "invalid overrides" in payload["error"]["message"]
    status, payload = service.submit(
        {"scenario": "fast-smoke", "overrides": {"not_a_field": 1}}
    )
    assert status == 400


def test_submit_created_then_dedup(service):
    status, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 17}})
    assert status == 201 and job["created"]
    status, dup = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 17}})
    assert status == 200 and not dup["created"]
    assert dup["id"] == job["id"]


def test_job_and_report_unknown_id(service):
    assert service.job("deadbeef")[0] == 404
    assert service.report("deadbeef")[0] == 404


def test_report_before_completion_is_409(service):
    _, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 17}})
    status, payload = service.report(job["id"])
    assert status == 409
    assert payload["state"] == "queued"


def test_jobs_state_filter_validation(service):
    assert service.jobs(state="exploded")[0] == 400
    assert service.jobs()[0] == 200


# -- live HTTP end to end -----------------------------------------------------------------


def test_claim_body_needs_only_a_worker_name(live):
    """``POST /v1/claim`` leases a job from ``{"worker": ...}`` alone;
    extra keys (an older worker's shard fields) are ignored."""
    client, store, _ = live
    first, _ = store.submit(TINY)
    second, _ = store.submit(TINY.with_overrides(seed=18))
    bare = client._request("POST", "/v1/claim", {"worker": "w-bare"})["job"]
    assert bare["worker"] == "w-bare"
    assert store.get(bare["id"]).state == "leased"
    legacy = {"worker": "w-old", "shard_index": 5, "shard_count": 2}
    old = client._request("POST", "/v1/claim", legacy)["job"]
    assert old["worker"] == "w-old"
    assert {bare["id"], old["id"]} == {first.id, second.id}


def test_http_routes_and_errors(live):
    client, store, _ = live
    assert client.health()["status"] == "ok"
    assert any(entry["name"] == "fast-smoke" for entry in client.scenarios())
    with pytest.raises(ServiceError) as excinfo:
        client.job("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.submit("no-such-scenario")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/no/such/route")
    assert excinfo.value.status == 404


def test_service_execution_is_bit_identical_to_direct_run(live, tmp_path):
    """The acceptance invariant: an HTTP-submitted job produces the same
    report payload and bit-identical cache artefacts as a direct
    ExperimentRunner run of the same scenario."""
    client, store, service_cache = live

    job = client.submit("fast-smoke", TINY_OVERRIDES)
    assert job["created"] and job["state"] == "queued"
    # Drain the queue with one in-process worker pass (the real worker
    # code path, minus process spawning).
    executed = worker_loop(
        store.path, service_cache, lease_ttl=30.0, max_jobs=1
    )
    assert executed == 1

    finished = client.wait(job["id"], timeout=10.0)
    assert finished["state"] == "done"
    events = client.job(job["id"])["events"]
    # Completed stage markers in order; progress events (one per NSGA-II
    # generation / Monte Carlo batch) ride alongside them.
    assert [e["stage"] for e in events if e["status"] == "completed"] == [
        "circuit",
        "system",
        "yield",
    ]
    assert any(e["status"] == "progress" for e in events)

    # Direct run of the same configuration into a separate cache.
    direct_cache = tmp_path / "direct-cache"
    direct = ExperimentRunner(TINY, cache_dir=direct_cache).run()

    # 1. The HTTP report equals what `repro report --json` prints locally
    #    (modulo the submitted scenario's name and the job fields).
    http_report = client.report(job["id"])
    local_report = report_payload(TINY, direct_cache)
    assert http_report["stages_present"] == local_report["stages_present"]
    http_summary = dict(http_report["summary"])
    local_summary = dict(local_report["summary"])
    for volatile in ("elapsed_seconds", "stages", "scenario"):
        http_summary.pop(volatile, None)
        local_summary.pop(volatile, None)
    assert http_summary == local_summary  # exact float equality
    assert http_report["config_hash"] == TINY.config_hash()

    # 2. The cache artefacts themselves are bit-identical: exact array
    #    equality across every stage pickle.
    service_entry = ArtefactCache(service_cache).entry_for(TINY)
    direct_entry = ArtefactCache(direct_cache).entry_for(TINY)
    assert service_entry.stages_present() == direct_entry.stages_present()
    for stage in service_entry.stages_present():
        assert _artefacts_equal(service_entry.load(stage), direct_entry.load(stage)), stage

    # 3. Front arrays, explicitly.
    service_front = service_entry.load("system").optimisation.front
    direct_front = direct_entry.load("system").optimisation.front
    assert np.array_equal(
        np.vstack([ind.objectives for ind in service_front]),
        np.vstack([ind.objectives for ind in direct_front]),
    )
    assert np.array_equal(
        np.vstack([ind.parameters for ind in service_front]),
        np.vstack([ind.parameters for ind in direct_front]),
    )
    assert direct.report.summary()["yield_percent"] == http_report["summary"]["yield_percent"]


def _artefacts_equal(a, b) -> bool:
    """Bit-exact comparison via the pickle byte streams.

    Pickle round-trips floats and numpy arrays exactly, so two artefacts
    produced by bit-identical computations serialise to identical bytes.
    """
    return pickle.dumps(a, protocol=4) == pickle.dumps(b, protocol=4)


# -- cancellation (DELETE /jobs/<id>) -----------------------------------------------------


def test_cancel_routes_at_application_level(service):
    assert service.cancel("deadbeef")[0] == 404
    status, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 17}})
    assert status == 201
    status, cancelled = service.cancel(job["id"])
    assert status == 200  # queued -> cancelled immediately
    assert cancelled["state"] == "cancelled"
    status, payload = service.cancel(job["id"])
    assert status == 409  # already terminal
    assert payload["state"] == "cancelled"
    # A cancel event is recorded for observability.
    status, detail = service.job(job["id"])
    assert ("cancel", "requested") in [
        (event["stage"], event["status"]) for event in detail["events"]
    ]


def test_cancel_running_job_returns_202(service):
    _, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 18}})
    service.store.claim("w1")
    service.store.start(job["id"], "w1")
    status, flagged = service.cancel(job["id"])
    assert status == 202
    assert flagged["state"] == "running"
    assert flagged["cancel_requested"]


def test_cancel_done_job_is_409(service):
    _, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 19}})
    service.store.claim("w1")
    service.store.complete(job["id"], "w1", {})
    status, payload = service.cancel(job["id"])
    assert status == 409
    assert payload["state"] == "done"


def test_http_delete_route_and_client_cancel(live):
    client, store, _ = live
    with pytest.raises(ServiceError) as excinfo:
        client.cancel("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("DELETE", "/no/such/route")
    assert excinfo.value.status == 404

    job = client.submit("fast-smoke", dict(TINY_OVERRIDES, seed=99))
    cancelled = client.cancel(job["id"])
    assert cancelled["state"] == "cancelled"
    # cancelled is terminal for the waiter.
    assert client.wait(job["id"], timeout=5.0)["state"] == "cancelled"
    assert [j["id"] for j in client.jobs(state="cancelled")] == [job["id"]]


# -- client URL-encoding regression -------------------------------------------------------


def test_jobs_state_filter_is_url_encoded(live):
    """Regression: the state filter used to be f-string-interpolated into
    the path; reserved characters now round-trip and come back as the
    server's clean 400 instead of a mangled request."""
    client, _, _ = live
    for hostile in ("no such/state?", "a&b=c", "exploded#frag"):
        with pytest.raises(ServiceError) as excinfo:
            list(client.jobs(state=hostile))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_state_filter"
        message = excinfo.value.payload["error"]["message"]
        assert "unknown job state" in message
        assert hostile.split("#")[0] in message


# -- client disconnects ------------------------------------------------------------------


def test_disconnecting_socket_does_not_kill_the_server(live):
    """A real half-closed connection: open a socket, fire a request, slam
    it shut before reading; the server must keep answering."""
    import socket

    client, _, _ = live
    host, port = client.base_url.replace("http://", "").split(":")
    for _ in range(3):
        raw = socket.create_connection((host, int(port)))
        raw.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        raw.close()  # gone before the response is written
    assert client.health()["status"] == "ok"


def test_client_terminal_states_match_the_stores():
    """client.TERMINAL_STATES is a deliberate copy (the client stays free
    of the store's dependency chain); drift would make wait() poll
    forever on a state the server considers finished."""
    from repro.service import client, store

    assert set(client.TERMINAL_STATES) == set(store.TERMINAL_STATES)


# -- observability (GET /v1/metrics, GET /v1/jobs/<id>/trace) -----------------------------


def test_trace_endpoint_404_and_409(service):
    assert service.trace("deadbeef")[0] == 404
    _, job = service.submit({"scenario": "fast-smoke", "overrides": {"seed": 17}})
    status, payload = service.trace(job["id"])
    assert status == 409
    assert payload["error"]["code"] == "trace_not_ready"
    assert payload["state"] == "queued"


def test_trace_endpoint_serves_executed_job(live):
    client, store, service_cache = live
    job = client.submit("fast-smoke", TINY_OVERRIDES)
    assert worker_loop(store.path, service_cache, lease_ttl=30.0, max_jobs=1) == 1
    payload = client.trace(job["id"])
    assert payload["job_id"] == job["id"]
    assert payload["trace_id"] == job["id"]  # trace id == config hash == job id
    assert payload["span_count"] == len(payload["spans"]) > 0
    names = {span["name"] for span in payload["spans"]}
    assert "worker.execute_job" in names
    assert "runner.run" in names
    assert "stage.circuit" in names


def test_metrics_exposition_end_to_end(live):
    import urllib.request

    client, store, service_cache = live
    job = client.submit("fast-smoke", TINY_OVERRIDES)
    assert worker_loop(store.path, service_cache, lease_ttl=30.0, max_jobs=1) == 1
    client.wait(job["id"], timeout=10.0)

    with urllib.request.urlopen(client.base_url + "/v1/metrics", timeout=10.0) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")

    lines = text.splitlines()
    # Store-derived gauges refresh at scrape time.
    assert 'repro_jobs{state="done"} 1' in lines
    assert "# TYPE repro_jobs gauge" in lines
    # The coordinator's own route latencies are histograms with route-
    # pattern labels (bounded cardinality, not raw paths).
    assert "# TYPE repro_http_request_seconds histogram" in lines
    assert any(
        line.startswith("repro_http_request_seconds_bucket{") and 'route="/v1/jobs"' in line
        for line in lines
    )
    # Every line is well-formed: comment or `name{labels} value`.
    for line in lines:
        assert line.startswith("#") or " " in line
