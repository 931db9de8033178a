"""Asyncio HTTP core: routing, keep-alive, /v1 versioning, error envelope,
pagination, and the static dashboard."""

import json
import logging
import socket

import pytest

from repro.service.api import make_async_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import Request, Response, Router, error_payload, sse_event
from repro.service.store import SqliteJobStore


@pytest.fixture()
def live(tmp_path):
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, tmp_path / "cache")
    host, port = server.start()
    client = ServiceClient(f"http://{host}:{port}")
    client.wait_until_ready()
    yield client, store, (host, port)
    server.shutdown()


def _raw(host, port, blob, *, recv_all=True):
    """Fire raw bytes at the server; return everything it sends back."""
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.sendall(blob)
    sock.shutdown(socket.SHUT_WR)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        if not recv_all:
            break
    sock.close()
    return b"".join(chunks)


# -- router unit tests --------------------------------------------------------------------


def test_router_matches_literal_and_captured_segments():
    router = Router()
    router.add("GET", "/v1/jobs", "list")
    router.add("GET", "/v1/jobs/{job_id}", "detail")
    router.add("GET", "/v1/jobs/{job_id}/events", "events")
    assert router.match_route("GET", "/v1/jobs") == ("list", {}, "/v1/jobs")
    assert router.match_route("GET", "/v1/jobs/abc123") == (
        "detail",
        {"job_id": "abc123"},
        "/v1/jobs/{job_id}",
    )
    assert router.match_route("GET", "/v1/jobs/abc123/events") == (
        "events",
        {"job_id": "abc123"},
        "/v1/jobs/{job_id}/events",
    )
    assert router.match_route("POST", "/v1/jobs/abc123") is None  # wrong method
    assert router.match_route("GET", "/v1/jobs/a/b/c") is None  # capture is single-segment
    assert router.match_route("GET", "/v2/jobs") is None


def test_request_keep_alive_semantics():
    def request(version, connection=None):
        headers = {"connection": connection} if connection else {}
        return Request("GET", "/", {}, headers, b"", {}, version)

    assert request("HTTP/1.1").keep_alive
    assert not request("HTTP/1.1", "close").keep_alive
    assert not request("HTTP/1.0").keep_alive
    assert request("HTTP/1.0", "keep-alive").keep_alive


def test_sse_event_wire_format():
    frame = sse_event(json.dumps({"a": 1}), event="end", event_id=7)
    assert frame == b'id: 7\nevent: end\ndata: {"a": 1}\n\n'
    assert sse_event("x") == b"data: x\n\n"


def test_error_payload_shape():
    payload = error_payload("unknown_job", "no such job", state="done")
    assert payload == {
        "error": {"code": "unknown_job", "message": "no such job"},
        "state": "done",
    }


def test_response_json_sorts_keys():
    response = Response.json(200, {"b": 1, "a": 2})
    assert response.body == b'{"a": 2, "b": 2}' or json.loads(response.body) == {
        "a": 2,
        "b": 1,
    }


# -- live wire behaviour ------------------------------------------------------------------


def test_keep_alive_serves_multiple_requests_on_one_connection(live):
    _, _, (host, port) = live
    blob = (
        b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        b"GET /v1/scenarios HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    raw = _raw(host, port, blob)
    assert raw.count(b"HTTP/1.1 200") == 2
    assert b'"scenarios"' in raw


def test_shutdown_with_an_idle_keep_alive_client_is_clean(tmp_path, caplog):
    """Stopping the server drops open keep-alive links without the event
    loop reporting the cancelled connection handlers as errors."""
    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, tmp_path / "cache")
    host, port = server.start()
    client = ServiceClient(f"http://{host}:{port}")
    client.health()  # leaves the client's link open and idle
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        server.shutdown()
    assert [record.getMessage() for record in caplog.records] == []


def test_malformed_request_line_gets_a_400_envelope(live):
    _, _, (host, port) = live
    raw = _raw(host, port, b"NONSENSE\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400")
    body = raw.split(b"\r\n\r\n", 1)[1]
    assert json.loads(body)["error"]["code"] == "malformed_request"


def test_oversized_headers_get_431(live):
    _, _, (host, port) = live
    huge = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n"
    raw = _raw(host, port, huge)
    assert raw.startswith(b"HTTP/1.1 431")
    assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]["code"] == "headers_too_large"


def test_oversized_body_gets_413(live):
    _, _, (host, port) = live
    body = b"x" * ((1 << 20) + 1)
    head = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
    )
    raw = _raw(host, port, head + body)
    assert raw.startswith(b"HTTP/1.1 413")
    assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]["code"] == "body_too_large"


def test_unframeable_bodies_get_one_response_and_a_closed_link(live):
    """A chunked body or a negative Content-Length is refused once; the
    body bytes are never parsed as a second request."""
    _, _, (host, port) = live
    chunked = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        b'1a\r\n{"scenario": "fast-smoke"}\r\n0\r\n\r\n'
    )
    negative = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n{}"
    for blob, status, code in (
        (chunked, b"501", "unsupported_transfer_encoding"),
        (negative, b"400", "malformed_request"),
    ):
        raw = _raw(host, port, blob)
        assert raw.count(b"HTTP/1.1 ") == 1, raw
        assert raw.startswith(b"HTTP/1.1 " + status)
        assert b"Connection: close\r\n" in raw
        assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]["code"] == code


# -- versioning: /v1 only -----------------------------------------------------------------


def test_unversioned_paths_answer_unknown_route(live):
    _, _, (host, port) = live
    for path in ("/healthz", "/scenarios", "/jobs"):
        raw = _raw(host, port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        assert raw.startswith(b"HTTP/1.1 404")
        payload = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert payload["error"]["code"] == "unknown_route"


def test_healthz_reports_counts_version_and_pool(live):
    client, store, _ = live
    health = client.health()
    from repro import __version__

    assert health["status"] == "ok"
    assert health["version"] == __version__
    assert set(health["jobs"]) == {"queued", "leased", "running", "done", "failed", "cancelled"}
    assert health["pending"] == 0
    assert health["workers"] == 0  # no pool attached in this fixture
    client.submit("fast-smoke", {"seed": 612})
    assert client.health()["jobs"]["queued"] == 1


# -- pagination ---------------------------------------------------------------------------


def test_jobs_pagination_envelope_and_client_iterator(live):
    client, _, _ = live
    for seed in range(7):
        client.submit("fast-smoke", {"seed": 9000 + seed})

    page = client._request("GET", "/v1/jobs?limit=3&offset=0")
    assert {"jobs", "total", "limit", "offset", "next_offset"} <= set(page)
    assert page["total"] == 7 and len(page["jobs"]) == 3 and page["next_offset"] == 3
    last = client._request("GET", "/v1/jobs?limit=3&offset=6")
    assert len(last["jobs"]) == 1 and last["next_offset"] is None

    # The client's iterator walks every page transparently.
    everything = list(client.jobs(page_size=2))
    assert len(everything) == 7
    assert len({job["id"] for job in everything}) == 7


def test_pagination_validation_errors(live):
    client, _, _ = live
    for query in ("limit=0", "limit=-1", "limit=1001", "offset=-1", "limit=banana"):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs?{query}")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_pagination"


# -- uniform error envelope: every route, every failure mode ------------------------------


def test_error_envelope_contract_sweep(live):
    """Every error the API can produce carries the same envelope:
    ``{"error": {"code", "message"}}`` with a machine-readable code."""
    client, store, (host, port) = live
    job = client.submit("fast-smoke", {"seed": 711})

    cases = [
        ("GET", "/v1/jobs/deadbeef", None, 404, "unknown_job"),
        ("DELETE", "/v1/jobs/deadbeef", None, 404, "unknown_job"),
        ("GET", "/v1/jobs/deadbeef/report", None, 404, "unknown_job"),
        ("GET", "/no/such/route", None, 404, "unknown_route"),
        ("POST", "/v1/scenarios", None, 404, "unknown_route"),
        ("GET", "/v1/jobs?state=exploded", None, 400, "invalid_state_filter"),
        ("GET", "/v1/jobs?limit=0", None, 400, "invalid_pagination"),
        ("POST", "/v1/jobs", {}, 400, "malformed_body"),
        ("POST", "/v1/jobs", {"scenario": 7}, 400, "malformed_body"),
        ("POST", "/v1/jobs", {"scenario": "nope"}, 404, "unknown_scenario"),
        (
            "POST",
            "/v1/jobs",
            {"scenario": "fast-smoke", "overrides": {"bogus_field": 1}},
            400,
            "invalid_overrides",
        ),
        ("GET", f"/v1/jobs/{job['id']}/report", None, 409, "report_not_ready"),
        ("GET", f"/v1/jobs/{job['id']}/events?after=banana", None, 400, "invalid_last_event_id"),
    ]
    for method, path, body, status, code in cases:
        with pytest.raises(ServiceError) as excinfo:
            client._request(method, path, body)
        error = excinfo.value
        assert error.status == status, (path, error.status)
        assert error.code == code, (path, error.code)
        envelope = error.payload["error"]
        assert set(envelope) == {"code", "message"} and envelope["message"]

    # Terminal-state conflict carries the state as a top-level extra.
    client.cancel(job["id"])
    with pytest.raises(ServiceError) as excinfo:
        client.cancel(job["id"])
    assert excinfo.value.status == 409
    assert excinfo.value.code == "already_terminal"
    assert excinfo.value.payload["state"] == "cancelled"


# -- static dashboard ---------------------------------------------------------------------


def test_dashboard_and_static_assets_are_served(live):
    import urllib.request

    _, _, (host, port) = live
    with urllib.request.urlopen(f"http://{host}:{port}/") as response:
        assert response.headers["Content-Type"].startswith("text/html")
        index = response.read().decode()
    assert "/static/app.js" in index and "/static/style.css" in index
    for name, content_type, marker in (
        ("app.js", "application/javascript", "EventSource"),
        ("style.css", "text/css", "--accent"),
    ):
        with urllib.request.urlopen(f"http://{host}:{port}/static/{name}") as response:
            assert response.headers["Content-Type"].startswith(content_type)
            assert marker in response.read().decode()


def test_static_serving_refuses_traversal_and_unknown_files(live):
    client, _, (host, port) = live
    for path in (
        "/static/.hidden",
        "/static/no-such-file.js",
        "/static/style.exe",
    ):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", path)
        assert excinfo.value.status == 404
    # Multi-segment paths never match the single-segment route at all.
    raw = _raw(host, port, b"GET /static/../api.py HTTP/1.1\r\nHost: x\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 404")


def test_client_error_from_response_shapes():
    typed = ServiceError.from_response(
        404, {"error": {"code": "unknown_job", "message": "gone"}}
    )
    assert typed.code == "unknown_job" and typed.status == 404
    assert "unknown_job" in str(typed) and "gone" in str(typed)
    legacy = ServiceError.from_response(400, {"error": "plain text"})
    assert legacy.code == "unknown" and "plain text" in str(legacy)
    opaque = ServiceError.from_response(502, "<html>bad gateway</html>")
    assert opaque.code == "unknown" and opaque.status == 502
