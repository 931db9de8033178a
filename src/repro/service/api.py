"""HTTP API of the experiment service: versioned routes, SSE streaming.

:func:`make_async_server` builds the front end on the stdlib-asyncio
:class:`~repro.service.http.AsyncHTTPServer`: one event loop, HTTP/1.1
keep-alive, hundreds of concurrent connections, live Server-Sent-Events
streams, and the static dashboard.  All blocking
:class:`~repro.service.base.JobStore` work crosses its thread-pool
bridge, so the loop never blocks on SQLite.

Every route lives under ``/v1``; an unversioned path answers the
router's 404 ``unknown_route`` envelope::

    GET    /v1/healthz                 liveness, job counts, pool size, version
    GET    /v1/scenarios               the scenario registry, with config hashes
    GET    /v1/jobs?state=&limit=&offset=
                                       paginated job listing, newest first
    POST   /v1/jobs                    submit {"scenario": ..., "overrides": ...}
    GET    /v1/jobs/<id>               job status + its status events (below)
    GET    /v1/jobs/<id>/events       live SSE stream (the full event log);
                                       with Accept: application/json, the
                                       persisted events as one JSON body
    GET    /v1/jobs/<id>/report       the cached JSON report
    GET    /v1/jobs/<id>/trace        the job's span trace (timing profile)
    DELETE /v1/jobs/<id>               cancel (200 parked / 202 flagged / 409)
    GET    /v1/metrics                 Prometheus text exposition
    GET    /                           the dashboard

The distributed worker protocol (PR 8) rides the same ``/v1`` surface --
these are what :class:`~repro.service.remote.RemoteJobStore` speaks, and
the coordinator's store (and therefore the coordinator's *clock*) stays
authoritative for lease expiry::

    POST   /v1/claim                   lease the oldest queued job
    POST   /v1/jobs/<id>/lease         leased -> running (ownership-checked)
    POST   /v1/jobs/<id>/heartbeat     extend the lease
    POST   /v1/jobs/<id>/events        append a batch of progress events;
                                       answers the cancel flag (the poll)
    POST   /v1/jobs/<id>/outcome       record done / failed / cancelled
    POST   /v1/requeue-expired         requeue every expired lease
    GET    /v1/artifacts/<hash>        the names stored under one hash
    GET    /v1/artifacts/<hash>/<name> download one artifact (raw bytes)
    PUT    /v1/artifacts/<hash>/<name> upload (atomic replace; idempotent);
                                       answers the hash's names, like GET
    DELETE /v1/artifacts/<hash>/<name> drop (mid-stage partials on completion)

Every error answers the uniform envelope ``{"error": {"code":
"<machine_code>", "message": "<human text>"}}`` (plus occasional
top-level context fields such as the job ``state`` on a 409).

A status answer carries every non-progress event plus the newest
progress event of each stage, so a client polling a job does not pay
for its whole log on every poll.  The full log is on the events route:
the SSE stream replays the job's persisted events (monotonic per-job
``seq`` as the SSE ``id:``) and then tails new ones -- per-NSGA-II-
generation Pareto fronts and per-Monte-Carlo-batch yield estimates --
until the job reaches a terminal state, which it announces as an
``event: end`` frame.  Reconnecting with ``Last-Event-ID`` (or
``?after=<seq>``) resumes gap-free and duplicate-free.

Submissions deduplicate on the scenario's config hash: two clients
posting the same configuration receive the *same* job id, and only one
worker computes it.  ``overrides`` accepts any
:class:`~repro.experiments.config.ScenarioConfig` field -- execution
fields (``evaluation``, ``n_workers``) do not change the hash, so they
also dedup onto the canonical job.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro import __version__
from repro.experiments.artifacts import ARTIFACT_NAME_RE
from repro.experiments.cache import CacheEntry
from repro.experiments.config import ScenarioConfig
from repro.experiments.portfolio import (
    get_portfolio,
    list_portfolios,
    merged_portfolio_report,
)
from repro.experiments.registry import get_scenario, list_scenarios
from repro.experiments.report import report_payload
from repro.obs import metrics as obs_metrics
from repro.service.http import (
    AsyncHTTPServer,
    Request,
    Response,
    Router,
    error_payload,
    error_response,
    sse_comment,
    sse_event,
)
from repro.service.base import TERMINAL_STATES, JobStore

__all__ = [
    "ExperimentService",
    "AsyncServiceServer",
    "make_async_server",
    "DEFAULT_PORT",
]

DEFAULT_PORT = 8321

#: Default / maximum page size of ``GET /v1/jobs``.
DEFAULT_PAGE_SIZE = 100
MAX_PAGE_SIZE = 1000

#: Seconds between store polls while tailing an SSE stream.
SSE_POLL_INTERVAL = 0.2

#: Idle seconds between SSE keep-alive comments (defeats proxy timeouts).
SSE_KEEPALIVE_INTERVAL = 15.0

#: (status, payload) pair every service method returns.
ServiceResponse = Tuple[int, Dict[str, Any]]

#: The JSON route table: (method, pattern, endpoint).  The server
#: registers each pattern under ``/v1``.
JSON_ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("GET", "/healthz", "health"),
    ("GET", "/scenarios", "scenarios"),
    ("GET", "/portfolios", "portfolios"),
    ("POST", "/portfolios/{name}/jobs", "submit_portfolio"),
    ("GET", "/portfolios/{name}/report", "portfolio_report"),
    ("GET", "/jobs", "jobs"),
    ("POST", "/jobs", "submit"),
    ("GET", "/jobs/{job_id}", "job"),
    ("DELETE", "/jobs/{job_id}", "cancel"),
    ("GET", "/jobs/{job_id}/report", "report"),
    ("GET", "/jobs/{job_id}/trace", "trace"),
    # The distributed worker protocol (RemoteJobStore's wire surface).
    ("POST", "/claim", "claim"),
    ("POST", "/requeue-expired", "requeue_expired"),
    ("POST", "/jobs/{job_id}/lease", "lease"),
    ("POST", "/jobs/{job_id}/heartbeat", "heartbeat"),
    ("POST", "/jobs/{job_id}/events", "append_events"),
    ("POST", "/jobs/{job_id}/outcome", "outcome"),
)

#: config hashes are lowercase hex (the scenario hash is 16 chars today;
#: the range tolerates future widening without accepting path garbage).
_HASH_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Response header carrying the job's trace id on a successful claim, so
#: remote workers join their spans to the coordinator-known trace.
TRACE_HEADER = "X-Repro-Trace"

def _claim_trace_headers(
    endpoint: str, status: int, payload: Dict[str, Any]
) -> List[Tuple[str, str]]:
    """``X-Repro-Trace`` for claim responses that actually carry a job.

    The trace id *is* the job id (the scenario's config hash), so the
    header costs nothing to compute -- but sending it explicitly keeps
    the wire contract honest if the two ever diverge.
    """
    if endpoint != "claim" or status != 200:
        return []
    job = payload.get("job") if isinstance(payload, dict) else None
    if not isinstance(job, dict) or not job.get("id"):
        return []
    return [(TRACE_HEADER, str(job["id"]))]


_registry = obs_metrics.get_registry()
#: Successful claims handed out through this service, by worker.
WORKER_CLAIMS = _registry.counter(
    "repro_worker_claims_total", "Jobs leased to workers", ("worker",)
)
#: Terminal outcomes accepted through this service.
WORKER_OUTCOMES = _registry.counter(
    "repro_worker_outcomes_total",
    "Accepted terminal job outcomes, by kind",
    ("outcome",),
)

_STATIC_DIR = Path(__file__).parent / "static"

_STATIC_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".svg": "image/svg+xml",
    ".png": "image/png",
    ".ico": "image/x-icon",
}


def _status_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every non-progress event plus the newest progress event per stage,
    in sequence order: the event view of a status answer."""
    newest = {event["stage"]: event["seq"] for event in events if event["status"] == "progress"}
    return [
        event
        for event in events
        if event["status"] != "progress" or newest[event["stage"]] == event["seq"]
    ]


def _error(status: int, code: str, message: str, **extra: Any) -> ServiceResponse:
    """(status, envelope) -- the service-method flavour of the envelope."""
    return status, error_payload(code, message, **extra)


class ExperimentService:
    """The service's request-independent application logic.

    Every public method returns a ``(status, payload)`` pair; the HTTP
    front end is a thin route-and-serialise shim around it, which keeps
    the whole API unit-testable without sockets.
    """

    def __init__(self, store: JobStore, cache_dir: Path) -> None:
        self.store = store
        self.cache_dir = Path(cache_dir)

    # -- routes --------------------------------------------------------------------------

    def health(self) -> ServiceResponse:
        """Liveness plus the numbers probes and autoscalers assert on."""
        return 200, {
            "status": "ok",
            "version": __version__,
            "jobs": self.store.counts(),
            "pending": self.store.pending_count(),
            "workers": int(self.store.get_meta("workers", 0)),
            "lease_ttl": self.store.lease_ttl,
        }

    def scenarios(self) -> ServiceResponse:
        return 200, {
            "scenarios": [
                dict(scenario.as_dict(), config_hash=scenario.config_hash())
                for scenario in list_scenarios()
            ]
        }

    def portfolios(self) -> ServiceResponse:
        return 200, {
            "portfolios": [portfolio.as_dict() for portfolio in list_portfolios()]
        }

    def submit_portfolio(self, name: str) -> ServiceResponse:
        """Fan one portfolio submission out into per-technology child jobs.

        Children dedup by config hash exactly like plain submissions: a
        child whose hash matches an existing job (or a registered scenario
        someone already ran) reports ``created: false``.
        """
        try:
            portfolio = get_portfolio(name)
        except KeyError as error:
            return _error(404, "unknown_portfolio", str(error.args[0]))
        jobs = []
        created_count = 0
        for child in portfolio.child_scenarios():
            job, created = self.store.submit(child)
            jobs.append(dict(job.as_dict(), created=created))
            created_count += int(created)
        return (201 if created_count else 200), {
            "portfolio": portfolio.name,
            "jobs": jobs,
            "created": created_count,
            "deduplicated": len(jobs) - created_count,
        }

    def portfolio_report(self, name: str) -> ServiceResponse:
        """The merged cross-technology report of a portfolio's children."""
        try:
            portfolio = get_portfolio(name)
        except KeyError as error:
            return _error(404, "unknown_portfolio", str(error.args[0]))
        payload = merged_portfolio_report(portfolio, self.cache_dir)
        for child in payload["children"]:
            job = self.store.get(child["config_hash"])
            child["job_state"] = job.state if job is not None else None
        return 200, payload

    def jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[object] = None,
        offset: Optional[object] = None,
    ) -> ServiceResponse:
        """Paginated job listing, newest first.

        ``limit`` / ``offset`` arrive as raw query strings; the envelope
        carries ``total`` and ``next_offset`` (``None`` once exhausted) so
        clients can page without counting.
        """
        try:
            limit = DEFAULT_PAGE_SIZE if limit is None else int(limit)
            offset = 0 if offset is None else int(offset)
        except (TypeError, ValueError):
            return _error(
                400, "invalid_pagination", "limit and offset must be integers"
            )
        if not (1 <= limit <= MAX_PAGE_SIZE) or offset < 0:
            return _error(
                400,
                "invalid_pagination",
                f"limit must be 1..{MAX_PAGE_SIZE} and offset >= 0",
            )
        try:
            jobs = self.store.jobs(state=state, limit=limit, offset=offset)
            total = self.store.count(state=state)
        except ValueError as error:
            return _error(400, "invalid_state_filter", str(error))
        return 200, {
            "jobs": [job.as_dict() for job in jobs],
            "total": total,
            "limit": limit,
            "offset": offset,
            "next_offset": offset + limit if offset + limit < total else None,
        }

    def submit(self, body: Dict[str, Any]) -> ServiceResponse:
        if isinstance(body, dict) and isinstance(body.get("config"), dict):
            # Full-configuration submission (the RemoteJobStore path): the
            # worker-side store holds a ScenarioConfig, not a registry
            # name, so it ships the complete as_dict() serialisation.
            try:
                scenario = ScenarioConfig.from_dict(body["config"])
            except (KeyError, TypeError, ValueError) as error:
                return _error(400, "invalid_config", f"invalid scenario config: {error}")
            job, created = self.store.submit(scenario)
            return (201 if created else 200), dict(job.as_dict(), created=created)
        if not isinstance(body, dict) or not isinstance(body.get("scenario"), str):
            return _error(
                400,
                "malformed_body",
                "body must be {'scenario': name, 'overrides': {...}?}",
            )
        overrides = body.get("overrides") or {}
        if not isinstance(overrides, dict):
            return _error(
                400, "malformed_body", "'overrides' must be an object of scenario fields"
            )
        try:
            scenario = get_scenario(body["scenario"])
        except KeyError as error:
            return _error(404, "unknown_scenario", str(error.args[0]))
        if overrides:
            try:
                scenario = scenario.with_overrides(**overrides)
            except (TypeError, ValueError, KeyError) as error:
                return _error(400, "invalid_overrides", f"invalid overrides: {error}")
        job, created = self.store.submit(scenario)
        return (201 if created else 200), dict(job.as_dict(), created=created)

    def job(self, job_id: str) -> ServiceResponse:
        job = self.store.get(job_id)
        if job is None:
            return _error(404, "unknown_job", f"unknown job {job_id!r}")
        return 200, dict(job.as_dict(), events=_status_events(self.store.events(job_id)))

    def cancel(self, job_id: str) -> ServiceResponse:
        try:
            job = self.store.cancel(job_id)
        except KeyError:
            return _error(404, "unknown_job", f"unknown job {job_id!r}")
        except ValueError as error:
            job = self.store.get(job_id)
            return _error(
                409,
                "already_terminal",
                str(error),
                state=job.state if job else None,
            )
        # 200: parked in `cancelled` right away (it was queued).  202: the
        # request was recorded (in-transaction with a cancel event) and
        # the executing worker will park the job at its next checkpoint
        # boundary.
        return (200 if job.state == "cancelled" else 202), job.as_dict()

    def report(self, job_id: str) -> ServiceResponse:
        job = self.store.get(job_id)
        if job is None:
            return _error(404, "unknown_job", f"unknown job {job_id!r}")
        try:
            scenario = job.resolve_scenario()
        except (KeyError, TypeError, ValueError) as error:
            return _error(500, "scenario_unreadable", f"job scenario is unreadable: {error}")
        payload = report_payload(
            scenario, self.cache_dir, events=self.store.events(job_id)
        )
        if payload is None:
            return _error(
                409,
                "report_not_ready",
                f"job {job_id} has no cached artefacts yet",
                state=job.state,
            )
        return 200, dict(payload, job_id=job_id, state=job.state)

    def trace(self, job_id: str) -> ServiceResponse:
        """The job's span trace (``trace.jsonl``), as JSON.

        The trace lands next to the stage pickles -- written directly by
        local workers, shipped over ``PUT /v1/artifacts`` by remote
        ones -- so serving it is one file read.
        """
        job = self.store.get(job_id)
        if job is None:
            return _error(404, "unknown_job", f"unknown job {job_id!r}")
        spans = CacheEntry(self.cache_dir / job_id).read_trace()
        if not spans:
            return _error(
                409,
                "trace_not_ready",
                f"job {job_id} has no recorded trace yet",
                state=job.state,
            )
        return 200, {
            "job_id": job_id,
            "state": job.state,
            "trace_id": spans[0].get("trace_id", job_id),
            "span_count": len(spans),
            "spans": spans,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition: process registry + store gauges.

        Counters and histograms describe *this* process (the
        coordinator: route latencies, artifact transfers, claims).
        Job-state counts and pool metadata live in the store -- the
        cross-process source of truth -- and are refreshed into gauges
        at scrape time.
        """
        registry = obs_metrics.get_registry()
        job_states = registry.gauge(
            "repro_jobs", "Jobs currently in each lifecycle state", ("state",)
        )
        for state, count in self.store.counts().items():
            job_states.set(count, state=state)
        registry.gauge("repro_workers", "Local worker pool size").set(
            int(self.store.get_meta("workers", 0))
        )
        return obs_metrics.render_prometheus(registry)

    # -- the distributed worker protocol -------------------------------------------------
    #
    # Remote workers never evaluate lease expiry themselves: every check
    # below runs against the coordinator store's clock, so there is
    # exactly one authority for "this worker still owns this job".

    @staticmethod
    def _worker_name(body: Optional[Dict[str, Any]]) -> Optional[str]:
        worker = (body or {}).get("worker")
        return worker if isinstance(worker, str) and worker else None

    def claim(self, body: Optional[Dict[str, Any]]) -> ServiceResponse:
        """Lease the oldest queued job for a (remote) worker."""
        worker = self._worker_name(body)
        if worker is None:
            return _error(400, "malformed_body", "body must carry a 'worker' name")
        job = self.store.claim(worker)
        if job is not None:
            WORKER_CLAIMS.inc(worker=worker)
        return 200, {
            "job": job.as_dict() if job is not None else None,
            "lease_ttl": self.store.lease_ttl,
        }

    def lease(self, job_id: str, body: Optional[Dict[str, Any]]) -> ServiceResponse:
        """Flip a leased job to running (the worker began executing)."""
        worker = self._worker_name(body)
        if worker is None:
            return _error(400, "malformed_body", "body must carry a 'worker' name")
        return 200, {"ok": self.store.start(job_id, worker)}

    def heartbeat(self, job_id: str, body: Optional[Dict[str, Any]]) -> ServiceResponse:
        """Extend a lease.  The cancel flag travels on the worker's
        events exchange (:meth:`append_events`), not here."""
        worker = self._worker_name(body)
        if worker is None:
            return _error(400, "malformed_body", "body must carry a 'worker' name")
        return 200, {"ok": self.store.heartbeat(job_id, worker)}

    def append_events(self, job_id: str, body: Optional[Dict[str, Any]]) -> ServiceResponse:
        """Append a remote worker's buffered progress events, in order, and
        answer the job's cancel flag: the worker's cancel poll.

        Body ``{"events": [{"stage", "status", "worker"?, "payload"?}, ...]}``
        (an empty list is the bare poll); answers ``{"seqs": [...],
        "cancel_requested": bool}``.
        """
        events = (body or {}).get("events")
        if not isinstance(events, list):
            return _error(400, "malformed_body", "body must carry an 'events' list")
        batch = []
        for event in events:
            stage = event.get("stage") if isinstance(event, dict) else None
            status = event.get("status") if isinstance(event, dict) else None
            if not (isinstance(stage, str) and stage and isinstance(status, str) and status):
                return _error(400, "malformed_body", "every event needs 'stage' and 'status'")
            payload, worker = event.get("payload"), event.get("worker")
            if payload is not None and not isinstance(payload, dict):
                return _error(400, "malformed_body", "'payload' must be an object")
            if worker is not None and not isinstance(worker, str):
                return _error(400, "malformed_body", "'worker' must be a string")
            batch.append({"stage": stage, "status": status, "worker": worker, "payload": payload})
        try:
            seqs, cancel_requested = self.store.append_events(job_id, batch)
        except KeyError:
            return _error(404, "unknown_job", f"unknown job {job_id!r}")
        return 200, {"seqs": seqs, "cancel_requested": cancel_requested}

    def outcome(self, job_id: str, body: Optional[Dict[str, Any]]) -> ServiceResponse:
        """Record a terminal outcome (ownership-checked by the store)."""
        worker = self._worker_name(body)
        if worker is None:
            return _error(400, "malformed_body", "body must carry a 'worker' name")
        outcome = (body or {}).get("outcome")
        if outcome == "done":
            summary = (body or {}).get("summary")
            if not isinstance(summary, dict):
                return _error(400, "malformed_body", "'done' needs a 'summary' object")
            ok = self.store.complete(job_id, worker, summary)
        elif outcome == "failed":
            error = (body or {}).get("error")
            if not isinstance(error, str):
                return _error(400, "malformed_body", "'failed' needs an 'error' string")
            ok = self.store.fail(job_id, worker, error)
        elif outcome == "cancelled":
            ok = self.store.mark_cancelled(job_id, worker)
        else:
            return _error(
                400, "malformed_body", "outcome must be done, failed or cancelled"
            )
        if ok:
            WORKER_OUTCOMES.inc(outcome=outcome)
        return 200, {"ok": ok}

    def requeue_expired(self) -> ServiceResponse:
        """Requeue every expired lease (maintenance; claim also does this)."""
        return 200, {"requeued": self.store.requeue_expired()}

    # -- shared dispatch -----------------------------------------------------------------

    def call_endpoint(
        self,
        endpoint: str,
        params: Dict[str, str],
        query: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> ServiceResponse:
        """Invoke one :data:`JSON_ROUTES` endpoint from parsed request parts.

        The single place that maps route names to method signatures.
        """
        if endpoint == "health":
            return self.health()
        if endpoint == "scenarios":
            return self.scenarios()
        if endpoint == "portfolios":
            return self.portfolios()
        if endpoint == "submit_portfolio":
            return self.submit_portfolio(params["name"])
        if endpoint == "portfolio_report":
            return self.portfolio_report(params["name"])
        if endpoint == "jobs":
            return self.jobs(
                state=query.get("state"),
                limit=query.get("limit"),
                offset=query.get("offset"),
            )
        if endpoint == "submit":
            if body is None:
                return _error(400, "malformed_body", "request body must be a JSON object")
            return self.submit(body)
        if endpoint == "job":
            return self.job(params["job_id"])
        if endpoint == "cancel":
            return self.cancel(params["job_id"])
        if endpoint == "report":
            return self.report(params["job_id"])
        if endpoint == "trace":
            return self.trace(params["job_id"])
        if endpoint == "claim":
            return self.claim(body)
        if endpoint == "lease":
            return self.lease(params["job_id"], body)
        if endpoint == "heartbeat":
            return self.heartbeat(params["job_id"], body)
        if endpoint == "append_events":
            return self.append_events(params["job_id"], body)
        if endpoint == "outcome":
            return self.outcome(params["job_id"], body)
        if endpoint == "requeue_expired":
            return self.requeue_expired()
        raise ValueError(f"unknown endpoint {endpoint!r}")  # pragma: no cover


# -- the asyncio front end ---------------------------------------------------------------


class AsyncServiceServer(AsyncHTTPServer):
    """The asyncio front end: JSON routes, SSE streaming, the dashboard.

    JSON endpoints run the blocking :class:`ExperimentService` methods on
    the thread-pool bridge; the SSE endpoint holds its connection inside
    the event loop and polls the store (also through the bridge) for new
    events, so hundreds of subscribers cost no threads.
    """

    def __init__(self, host: str, port: int, service: ExperimentService) -> None:
        self.service = service
        router = Router()
        for method, pattern, endpoint in JSON_ROUTES:
            router.add(method, f"/v1{pattern}", self._json_handler(endpoint))
        router.add("GET", "/v1/jobs/{job_id}/events", self._events_handler())
        router.add("GET", "/v1/metrics", self._metrics_handler())
        router.add("GET", "/v1/artifacts/{config_hash}", self._artifact_listing_handler())
        for method in ("GET", "PUT", "DELETE"):
            router.add(
                method,
                "/v1/artifacts/{config_hash}/{name}",
                self._artifact_handler(method),
            )
        router.add("GET", "/", self._static_handler("index.html"))
        router.add("GET", "/static/{name}", self._static_handler())
        super().__init__(host, port, router)
        # Stage pickles are megabytes; only the artifact routes may
        # exceed the JSON body cap.
        self.large_body_prefixes = ("/v1/artifacts/",)

    # -- JSON ----------------------------------------------------------------------------

    def _json_handler(self, endpoint: str):
        async def handle(request: Request) -> Response:
            body: Optional[Dict[str, Any]] = None
            if request.method == "POST":
                try:
                    body = json.loads(request.body.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    body = None
                if not isinstance(body, dict):
                    body = None
            status, payload = await self.call(
                self.service.call_endpoint,
                endpoint,
                request.params,
                request.query,
                body,
            )
            headers = _claim_trace_headers(endpoint, status, payload)
            return Response.json(status, payload, headers=headers)

        return handle

    def _metrics_handler(self):
        async def handle(request: Request) -> Response:
            text = await self.call(self.service.metrics_text)
            return Response(
                200,
                text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )

        return handle

    # -- artifacts -----------------------------------------------------------------------

    def _artifact_handler(self, method: str):
        """Raw-bytes artifact exchange against the coordinator's cache.

        The on-disk layout *is* the artefact cache's
        (``<cache_dir>/<config_hash>/<name>``), so the coordinator's
        cache directory serves double duty: local workers write it
        directly, remote workers read and write the same files over
        these routes, and the byte-identity comparison between the two
        is a plain file compare.  PUT replaces atomically (temp file +
        rename), which makes duplicated or retried uploads of the same
        content-addressed artifact harmless, and answers the hash's
        listing (as ``GET /v1/artifacts/<hash>`` does), so a writer learns
        what the coordinator holds without asking separately.
        """

        async def handle(request: Request) -> Response:
            config_hash = request.params["config_hash"]
            name = request.params["name"]
            if not _HASH_RE.match(config_hash) or not ARTIFACT_NAME_RE.match(name):
                return error_response(
                    404, "unknown_artifact", f"no such artifact: {config_hash}/{name}"
                )
            path = self.service.cache_dir / config_hash / name
            if method == "GET":
                payload = await self.call(self._read_file, path)
                if payload is None:
                    return error_response(
                        404, "unknown_artifact", f"no such artifact: {config_hash}/{name}"
                    )
                return Response(200, payload, content_type="application/octet-stream")
            if method == "PUT":
                names = await self.call(self._write_file, path, request.body)
                return Response.json(200, {"config_hash": config_hash, "names": names})
            await self.call(self._delete_file, path)
            return Response(204)

        return handle

    def _artifact_listing_handler(self):
        """The artifact names stored under one config hash, sorted.

        One answer to every "is it there?" question a remote worker has
        about the hash: an unknown hash lists no names (200), it is not
        an error.
        """

        async def handle(request: Request) -> Response:
            config_hash = request.params["config_hash"]
            if not _HASH_RE.match(config_hash):
                return error_response(
                    404, "unknown_artifact", f"no such artifact hash: {config_hash}"
                )
            names = await self.call(self._list_names, self.service.cache_dir / config_hash)
            return Response.json(200, {"config_hash": config_hash, "names": names})

        return handle

    @staticmethod
    def _list_names(directory: Path) -> List[str]:
        try:
            return sorted(name for name in os.listdir(directory) if ARTIFACT_NAME_RE.match(name))
        except (FileNotFoundError, NotADirectoryError):
            return []

    @staticmethod
    def _read_file(path: Path) -> Optional[bytes]:
        try:
            return path.read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return None

    @classmethod
    def _write_file(cls, path: Path, payload: bytes) -> List[str]:
        path.parent.mkdir(parents=True, exist_ok=True)
        CacheEntry._atomic_write(path, payload)
        return cls._list_names(path.parent)

    @staticmethod
    def _delete_file(path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    # -- SSE -----------------------------------------------------------------------------

    def _events_handler(self):
        async def handle(request: Request) -> Response:
            job_id = request.params["job_id"]
            job = await self.call(self.service.store.get, job_id)
            if job is None:
                return error_response(404, "unknown_job", f"unknown job {job_id!r}")
            raw = request.headers.get("last-event-id") or request.query.get("after") or "0"
            try:
                after = int(raw)
            except ValueError:
                return error_response(
                    400, "invalid_last_event_id", f"not an event sequence: {raw!r}"
                )
            if "application/json" in request.headers.get("accept", ""):
                # The persisted log past ``after``, without tailing.
                events = await self.call(self.service.store.events_since, job_id, after)
                return Response.json(200, {"events": events})
            return Response.event_stream(self._event_stream(job_id, after))

        return handle

    async def _event_stream(self, job_id: str, after: int) -> AsyncIterator[bytes]:
        """Replay events past ``after``, then tail until the job ends.

        Every frame's ``id:`` is the event's per-job ``seq``, which is
        what makes ``Last-Event-ID`` reconnection gap-free and duplicate-
        free: the store's sequences are gapless and strictly monotonic,
        and the replay query is simply ``seq > after``.
        """
        last = after
        idle = 0.0
        while True:
            events = await self.call(self.service.store.events_since, job_id, last)
            for event in events:
                last = event["seq"]
                yield sse_event(json.dumps(event, sort_keys=True), event_id=last)
            job = await self.call(self.service.store.get, job_id)
            if job is None or job.state in TERMINAL_STATES:
                # Terminal-state events (the worker's final stage event,
                # the in-transaction cancel event) are persisted *before*
                # the state flips, so one more fetch drains everything.
                for event in await self.call(
                    self.service.store.events_since, job_id, last
                ):
                    last = event["seq"]
                    yield sse_event(json.dumps(event, sort_keys=True), event_id=last)
                state = job.state if job is not None else "unknown"
                yield sse_event(
                    json.dumps({"state": state}), event="end", event_id=last
                )
                return
            if events:
                idle = 0.0
            elif idle >= SSE_KEEPALIVE_INTERVAL:
                yield sse_comment()
                idle = 0.0
            await asyncio.sleep(SSE_POLL_INTERVAL)
            idle += SSE_POLL_INTERVAL

    # -- the dashboard -------------------------------------------------------------------

    def _static_handler(self, fixed_name: Optional[str] = None):
        async def handle(request: Request) -> Response:
            name = fixed_name or request.params.get("name", "")
            # {name} matches one path segment only; dot-names are rejected
            # outright so no traversal or hidden file can ever resolve.
            if name.startswith(".") or "/" in name or "\\" in name:
                return error_response(404, "unknown_route", f"no such asset: {name!r}")
            path = _STATIC_DIR / name
            suffix = path.suffix.lower()
            if suffix not in _STATIC_TYPES or not path.is_file():
                return error_response(404, "unknown_route", f"no such asset: {name!r}")
            body = await self.call(path.read_bytes)
            return Response(200, body, content_type=_STATIC_TYPES[suffix])

        return handle


def make_async_server(
    host: str,
    port: int,
    store: JobStore,
    cache_dir: Path,
) -> AsyncServiceServer:
    """Build the asyncio server (``port=0`` picks a free one on start)."""
    return AsyncServiceServer(host, port, ExperimentService(store, cache_dir))
