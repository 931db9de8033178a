"""The network-reach job store: the coordinator's ``/v1`` API as a
:class:`~repro.service.base.JobStore`.

A remote worker process runs the exact same loop as a local one; the
only difference is which backend its store calls resolve to.  Every
method here is one (or two) HTTP exchanges against the coordinator,
whose :class:`~repro.service.store.SqliteJobStore` stays the single
authority -- in particular for **lease expiry**: this class never
compares timestamps itself, it only learns it lost a lease when the
coordinator's ownership-checked updates answer ``ok: false``.

Fault tolerance: the transport raises
:class:`~repro.experiments.artifacts.ArtifactTransportError` on network
loss, and every exchange is retried a bounded number of times.  All
protocol operations are safe under retry (and under network-level
duplication):

* ``heartbeat`` extends the same lease again,
* ``append_events`` at worst duplicates a batch of advisory progress
  events (and answers the cancel flag again),
* terminal outcomes reconcile: when a retried ``outcome`` call answers
  ``ok: false`` because the first (response-lost) attempt already
  landed, the store confirms the job reached the intended terminal
  state and reports success.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import ArtifactTransportError, HttpTransport
from repro.experiments.config import ScenarioConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import base
from repro.service.base import Job

__all__ = ["RemoteJobStore", "RemoteStoreError"]

#: Fallback lease TTL until the coordinator's value has been learned.
DEFAULT_LEASE_TTL = 60.0

_registry = obs_metrics.get_registry()
#: Coordinator round-trips performed by this worker process.
REMOTE_ROUNDTRIPS = _registry.counter(
    "repro_remote_roundtrips_total",
    "JSON exchanges with the coordinator, by method",
    ("method",),
)
#: Round-trips retried after a transport-level loss.
REMOTE_RETRIES = _registry.counter(
    "repro_remote_retries_total",
    "Coordinator exchanges retried after transient network failures",
)


class RemoteStoreError(RuntimeError):
    """The coordinator answered an unexpected HTTP status."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"coordinator answered {status} {code}: {message}")
        self.status = status
        self.code = code


class RemoteJobStore(base.JobStore):
    """Worker-side job store speaking the coordinator's ``/v1`` API.

    Parameters
    ----------
    base_url:
        The coordinator, e.g. ``http://127.0.0.1:8321``.
    transport:
        Injectable byte transport (the fault-injection harness wraps
        it); defaults to a plain :class:`HttpTransport`.
    retries / retry_delay:
        Bounded retry policy for transient network failures.
    timeout:
        Per-request timeout of the default transport.
    """

    def __init__(
        self,
        base_url: str,
        transport: Optional[HttpTransport] = None,
        retries: int = 3,
        retry_delay: float = 0.05,
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.transport = transport or HttpTransport(self.base_url, timeout=timeout)
        self.retries = max(1, int(retries))
        self.retry_delay = float(retry_delay)
        self._lease_ttl: Optional[float] = None
        #: Trace id the coordinator attached to the last successful
        #: claim (``X-Repro-Trace`` response header); the worker opens
        #: the job's trace under this id so coordinator-side and
        #: worker-side spans merge into one ``trace.jsonl``.
        self.last_trace_id: Optional[str] = None

    # -- plumbing ------------------------------------------------------------------------

    @property
    def lease_ttl(self) -> float:
        """The coordinator's lease TTL (learned lazily, cached)."""
        if self._lease_ttl is None:
            try:
                health = self._json("GET", "/v1/healthz")
                self._lease_ttl = float(health.get("lease_ttl") or DEFAULT_LEASE_TTL)
            except (ArtifactTransportError, RemoteStoreError):
                return DEFAULT_LEASE_TTL
        return self._lease_ttl

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok_statuses: Tuple[int, ...] = (200, 201, 202),
    ) -> Dict[str, Any]:
        """One JSON exchange with bounded retries on transport loss."""
        data, _ = self._exchange(method, path, body, ok_statuses)
        return data

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok_statuses: Tuple[int, ...] = (200, 201, 202),
    ) -> Tuple[Dict[str, Any], bool]:
        """Bounded-retry JSON exchange; also reports response loss.

        Returns ``(data, lossy)`` where ``lossy`` is ``True`` when at
        least one attempt died on the wire before a later one succeeded
        -- the only situation in which the earlier attempt may have
        landed server-side (the at-least-once ambiguity outcome
        reconciliation must resolve).
        """
        payload = (
            json.dumps(body, sort_keys=True).encode("utf-8") if body is not None else None
        )
        REMOTE_ROUNDTRIPS.inc(method=method)
        last_error: Optional[ArtifactTransportError] = None
        with obs_trace.span("remote.roundtrip", method=method, path=path):
            for attempt in range(self.retries):
                try:
                    status, raw = self.transport.request(
                        method,
                        path,
                        payload,
                        {"Content-Type": "application/json", "Accept": "application/json"},
                    )
                    break
                except ArtifactTransportError as error:
                    last_error = error
                    if attempt + 1 < self.retries:
                        REMOTE_RETRIES.inc()
                        time.sleep(self.retry_delay * (attempt + 1))
            else:
                assert last_error is not None
                raise last_error
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = {}
        if status not in ok_statuses:
            envelope = data.get("error") if isinstance(data, dict) else None
            code = (envelope or {}).get("code", "unknown")
            message = (envelope or {}).get("message", raw[:200].decode("latin-1"))
            raise RemoteStoreError(status, code, message)
        return (data if isinstance(data, dict) else {}), last_error is not None

    # -- submission ----------------------------------------------------------------------

    def submit(self, scenario: ScenarioConfig) -> Tuple[Job, bool]:
        data = self._json("POST", "/v1/jobs", {"config": scenario.as_dict()})
        return Job.from_dict(data), bool(data.get("created"))

    # -- worker side ---------------------------------------------------------------------

    def claim(self, worker: str) -> Optional[Job]:
        data = self._json("POST", "/v1/claim", {"worker": worker})
        if data.get("lease_ttl"):
            self._lease_ttl = float(data["lease_ttl"])
        job = data.get("job")
        headers = getattr(self.transport, "last_response_headers", None) or {}
        self.last_trace_id = headers.get("x-repro-trace") if job else None
        return Job.from_dict(job) if job else None

    def start(self, job_id: str, worker: str) -> bool:
        data = self._json("POST", f"/v1/jobs/{job_id}/lease", {"worker": worker})
        return bool(data.get("ok"))

    def heartbeat(self, job_id: str, worker: str) -> bool:
        data = self._json("POST", f"/v1/jobs/{job_id}/heartbeat", {"worker": worker})
        return bool(data.get("ok"))

    def _outcome(
        self, job_id: str, worker: str, terminal: str, extra: Dict[str, Any]
    ) -> bool:
        data, lossy = self._exchange(
            "POST",
            f"/v1/jobs/{job_id}/outcome",
            dict(extra, worker=worker, outcome=terminal),
        )
        if data.get("ok"):
            return True
        # At-least-once reconciliation -- but only when THIS exchange
        # lost a response mid-retry (``lossy``), the one case where an
        # earlier attempt may already have landed and turned the job
        # terminal.  Then, an ``ok: false`` answer with the job in the
        # intended terminal state *credited to this worker* is our own
        # duplicate: report success.  A clean ``ok: false`` (no wire
        # loss) is an authoritative lost lease, exactly like the SQLite
        # backend's ownership check.
        if not lossy:
            return False
        job = self.get(job_id)
        return job is not None and job.state == terminal and job.worker == worker

    def complete(self, job_id: str, worker: str, summary: Dict[str, Any]) -> bool:
        return self._outcome(job_id, worker, "done", {"summary": summary})

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        return self._outcome(job_id, worker, "failed", {"error": error})

    def mark_cancelled(self, job_id: str, worker: str) -> bool:
        return self._outcome(job_id, worker, "cancelled", {})

    def requeue_expired(self) -> int:
        data = self._json("POST", "/v1/requeue-expired")
        return int(data.get("requeued") or 0)

    # -- cancellation --------------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        try:
            data = self._json("DELETE", f"/v1/jobs/{job_id}")
        except RemoteStoreError as error:
            if error.status == 404:
                raise KeyError(f"unknown job {job_id!r}") from error
            if error.status == 409:
                raise ValueError(str(error)) from error
            raise
        return Job.from_dict(data)

    # -- progress events -----------------------------------------------------------------

    def append_events(
        self, job_id: str, events: Sequence[Dict[str, Any]]
    ) -> Tuple[List[int], bool]:
        try:
            data = self._json(
                "POST", f"/v1/jobs/{job_id}/events", {"events": list(events)}
            )
        except RemoteStoreError as error:
            if error.status == 404:
                raise KeyError(f"unknown job {job_id!r}") from error
            raise
        seqs = [int(seq) for seq in data.get("seqs") or []]
        return seqs, bool(data.get("cancel_requested"))

    def events_since(self, job_id: str, after_seq: int = 0) -> List[Dict[str, Any]]:
        # The events route answers the full log as JSON to this store's
        # Accept header; a status answer carries only its status view.
        try:
            data = self._json("GET", f"/v1/jobs/{job_id}/events?after={int(after_seq)}")
        except RemoteStoreError as error:
            if error.status == 404:
                return []  # contract parity: unknown job -> no events
            raise
        return data.get("events") or []

    # -- queries -------------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        try:
            data = self._json("GET", f"/v1/jobs/{job_id}")
        except RemoteStoreError as error:
            if error.status == 404:
                return None
            raise
        return Job.from_dict(data)

    def jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Job]:
        collected: List[Job] = []
        page_offset = int(offset)
        remaining = None if limit is None else int(limit)
        while True:
            page_size = 100 if remaining is None else max(1, min(remaining, 100))
            query = f"?limit={page_size}&offset={page_offset}"
            if state is not None:
                query += f"&state={state}"
            try:
                data = self._json("GET", f"/v1/jobs{query}")
            except RemoteStoreError as error:
                if error.code == "invalid_state_filter":
                    raise ValueError(str(error)) from error
                raise
            page = [Job.from_dict(job) for job in data.get("jobs") or []]
            collected.extend(page)
            if remaining is not None:
                remaining -= len(page)
                if remaining <= 0:
                    return collected[: int(limit)]
            if data.get("next_offset") is None or not page:
                return collected
            page_offset = int(data["next_offset"])

    def count(self, state: Optional[str] = None) -> int:
        query = "?limit=1"
        if state is not None:
            query += f"&state={state}"
        try:
            data = self._json("GET", f"/v1/jobs{query}")
        except RemoteStoreError as error:
            if error.code == "invalid_state_filter":
                raise ValueError(str(error)) from error
            raise
        return int(data.get("total") or 0)

    def pending_count(self) -> int:
        return int(self._json("GET", "/v1/healthz").get("pending") or 0)

    def counts(self) -> Dict[str, int]:
        counts = self._json("GET", "/v1/healthz").get("jobs") or {}
        return {state: int(counts.get(state, 0)) for state in base.JOB_STATES}
