"""Thin HTTP client of the experiment service (stdlib only).

JSON calls travel over the keep-alive
:class:`~repro.experiments.artifacts.HttpTransport` (one connection per
calling thread); the SSE stream opens its own connection.  Speaks the
versioned ``/v1`` API: typed errors
(:class:`ServiceError` with the server's machine-readable ``code``),
transparent pagination of the job listing, and live Server-Sent-Events
streaming via :meth:`ServiceClient.stream_events`.  Used by the ``repro
submit|status|jobs|events`` subcommands, the service tests and the
throughput benchmark; any HTTP client (curl included) speaks the same
API.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.artifacts import HttpTransport

__all__ = ["ServiceClient", "ServiceError"]

#: Job states a waiter treats as final.  Deliberately duplicated from
#: :data:`repro.service.store.TERMINAL_STATES` (the client must stay
#: importable without the store's dependency chain); a test in
#: tests/service/test_api.py asserts the two stay in sync.
TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceError(RuntimeError):
    """An HTTP error response from the service.

    Attributes
    ----------
    code:
        The machine-readable error code from the ``{"error": {"code",
        "message"}}`` envelope (``"unknown"`` when the body carried none
        -- e.g. a proxy's HTML error page).
    status:
        The HTTP status.
    message:
        The human-readable message from the envelope.
    payload:
        The full parsed response body.
    """

    def __init__(
        self,
        code: str,
        status: int,
        message: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message or payload}")
        self.code = code
        self.status = status
        self.message = message
        self.payload = payload if payload is not None else {}

    @classmethod
    def from_response(cls, status: int, payload: Any) -> "ServiceError":
        """Build from a parsed error body (envelope or anything else)."""
        code, message = "unknown", None
        if isinstance(payload, dict):
            error = payload.get("error")
            if isinstance(error, dict):  # the /v1 envelope
                code = str(error.get("code", "unknown"))
                message = error.get("message")
            elif error is not None:  # pre-/v1 {"error": "text"} bodies
                message = str(error)
        if not isinstance(payload, dict):
            payload = {"error": payload}
        return cls(code, status, message, payload)


class ServiceClient:
    """Talk to one experiment service instance.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8321``.
    timeout:
        Per-request socket timeout in seconds.  Also bounds how long an
        SSE stream may go completely silent; the server's keep-alive
        comments arrive well inside the default.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.transport = HttpTransport(self.base_url, timeout=timeout)

    # -- plumbing ------------------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, raw = self.transport.request(
            method,
            path,
            json.dumps(body).encode("utf-8") if body is not None else None,
            {"Content-Type": "application/json"} if body is not None else None,
        )
        if status < 400:
            return json.loads(raw.decode("utf-8"))
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": f"HTTP {status}"}
        raise ServiceError.from_response(status, payload)

    # -- API -----------------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness plus job counts, pool size and server version."""
        return self._request("GET", "/v1/healthz")

    def scenarios(self) -> List[Dict[str, Any]]:
        """The registered scenarios, each with its config hash."""
        return self._request("GET", "/v1/scenarios")["scenarios"]

    def submit(
        self, scenario: str, overrides: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Submit a scenario; returns the (possibly deduplicated) job.

        The returned dict is the job row plus ``created`` -- ``False``
        means an equivalent configuration was already queued, running or
        done, and this submission shares it.
        """
        body: Dict[str, Any] = {"scenario": scenario}
        if overrides:
            body["overrides"] = overrides
        return self._request("POST", "/v1/jobs", body)

    def portfolios(self) -> List[Dict[str, Any]]:
        """The registered portfolios, each with its per-child config hashes."""
        return self._request("GET", "/v1/portfolios")["portfolios"]

    def submit_portfolio(self, name: str) -> Dict[str, Any]:
        """Submit a portfolio's children (``POST /v1/portfolios/<name>/jobs``).

        Returns ``{"portfolio", "jobs", "created", "deduplicated"}`` where
        each job row carries ``created`` -- ``False`` meaning an
        equivalent configuration (often a plain registered scenario with
        the same budgets) already has a job, which this submission joins.
        """
        return self._request("POST", f"/v1/portfolios/{name}/jobs", {})

    def portfolio_report(self, name: str) -> Dict[str, Any]:
        """The merged cross-technology report of a portfolio's children."""
        return self._request("GET", f"/v1/portfolios/{name}/report")

    def job(self, job_id: str) -> Dict[str, Any]:
        """Job status plus its status events: every non-progress event and
        the newest progress event of each stage.  The full event log is
        :meth:`events` (the SSE replay) or the job's report."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(
        self, state: Optional[str] = None, page_size: int = 100
    ) -> Iterator[Dict[str, Any]]:
        """Iterate all jobs, newest first (optionally filtered by state).

        A generator that pages through ``GET /v1/jobs`` transparently,
        following the envelope's ``next_offset`` until exhausted -- the
        caller never sees the pagination.  The filter is URL-encoded, so a
        state containing reserved characters round-trips to the server
        verbatim and comes back as a clean ``400`` instead of mangling the
        request path.
        """
        offset: Optional[int] = 0
        while offset is not None:
            parameters: Dict[str, Any] = {"limit": page_size, "offset": offset}
            if state:
                parameters["state"] = state
            query = urllib.parse.urlencode(parameters)
            page = self._request("GET", f"/v1/jobs?{query}")
            yield from page["jobs"]
            offset = page.get("next_offset")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job (``DELETE /v1/jobs/<id>``); returns the updated job.

        A queued job comes back already ``cancelled``; for a running one
        the returned job carries ``cancel_requested`` and parks in
        ``cancelled`` once the worker reaches its next checkpoint
        boundary (poll with :meth:`wait` -- ``cancelled`` is terminal).
        """
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def report(self, job_id: str) -> Dict[str, Any]:
        """The job's cached JSON report (``repro report --json`` payload)."""
        return self._request("GET", f"/v1/jobs/{job_id}/report")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's span trace (``GET /v1/jobs/<id>/trace``)."""
        return self._request("GET", f"/v1/jobs/{job_id}/trace")

    # -- streaming -----------------------------------------------------------------------

    def stream_events(
        self, job_id: str, last_event_id: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Stream a job's progress events live (``GET /v1/jobs/<id>/events``).

        Yields each event as a dict (the job-store event record: ``seq``,
        ``stage``, ``status``, ``payload``...), starting with the full
        replayed history (or everything after ``last_event_id``) and
        continuing with live events as the worker emits them.  When the
        job reaches a terminal state the server sends an ``end`` frame --
        yielded as ``{"event": "end", "state": <terminal state>}`` -- and
        the generator returns.

        Reconnection is the caller's loop: on a dropped connection, call
        again with ``last_event_id`` set to the last seen ``seq`` and the
        sequence continues without gaps or duplicates.
        """
        headers: Dict[str, str] = {"Accept": "text/event-stream"}
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(last_event_id)
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/events", headers=headers
        )
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = {"error": str(error)}
            raise ServiceError.from_response(error.code, payload) from None
        with response:
            event_type = None
            data_lines: List[str] = []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keep-alive comment
                if line == "":  # frame boundary
                    if data_lines:
                        data = json.loads("\n".join(data_lines))
                        if event_type == "end":
                            yield {"event": "end", "state": data.get("state")}
                            return
                        yield data
                    event_type, data_lines = None, []
                    continue
                field, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if field == "event":
                    event_type = value
                elif field == "data":
                    data_lines.append(value)
                # "id" is implicit in each event's "seq"; "retry" ignored.

    # -- conveniences --------------------------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 600.0, poll_interval: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the job.

        Raises
        ------
        TimeoutError
            If the job is still pending after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']!r} after {timeout:.0f}s"
                )
            time.sleep(poll_interval)

    def wait_until_ready(self, timeout: float = 10.0, poll_interval: float = 0.1) -> None:
        """Block until the server answers ``/v1/healthz`` (startup race guard)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.base_url} not ready after {timeout:.0f}s"
                    ) from None
                time.sleep(poll_interval)
