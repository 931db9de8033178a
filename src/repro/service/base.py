"""The abstract job-store interface and shared job data model.

PR 8 splits the single-host SQLite queue into an *interface* plus two
implementations, so the same worker loop can run against either:

* :class:`~repro.service.store.SqliteJobStore` -- the local store
  (coordinator side; also the single-host deployment).
* :class:`~repro.service.remote.RemoteJobStore` -- the same contract
  spoken over the coordinator's ``/v1`` HTTP API from another machine.

Everything that is *policy* rather than storage lives here: the job
lifecycle states, the dedup key (job id == config hash), the claim
order, and the :class:`Job` value object that both backends return.

The contract every backend must honour:

* ``submit`` coalesces on the scenario's config hash -- one execution
  per unique configuration, whatever the backend.
* ``claim`` atomically leases the oldest queued job (by
  ``submitted_at``, then ``id``); expired leases are reclaimed first.  **Lease expiry is authoritative on the
  coordinator's clock** -- a remote worker never evaluates expiry
  itself, it only learns it lost the lease when ``heartbeat`` /
  ``complete`` / ``fail`` / ``mark_cancelled`` return ``False``.
* Terminal updates are ownership-checked (job id *and* worker name), so
  a worker that lost its lease cannot record an outcome.
* Per-job event sequences are gapless and strictly monotonic -- the
  ``Last-Event-ID`` SSE resumption contract.  ``append_events`` appends
  a whole batch in one transaction and answers the job's cancel flag in
  the same call: it is the worker's only progress-and-cancel exchange.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig

__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
]

#: Every job lifecycle state, in progression order.
JOB_STATES = ("queued", "leased", "running", "done", "failed", "cancelled")

#: States in which a submission dedups onto the existing job.
ACTIVE_STATES = ("queued", "leased", "running", "done")

#: States a job can never leave by itself (a new submission requeues
#: ``failed`` / ``cancelled``; ``done`` is shared as-is).
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One job record, as a plain value object shared by all backends."""

    id: str
    scenario: str
    scenario_config: Dict[str, Any]
    state: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker: Optional[str] = None
    lease_expires: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    summary: Optional[Dict[str, Any]] = field(default=None)
    #: Cancellation requested while leased/running; the executing worker
    #: observes it at its next checkpoint boundary.
    cancel_requested: bool = False

    def resolve_scenario(self) -> ScenarioConfig:
        """Rebuild the submitted scenario (raises on foreign metadata)."""
        return ScenarioConfig.from_dict(self.scenario_config)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible view served by the HTTP API."""
        return {
            "id": self.id,
            "scenario": self.scenario,
            "scenario_config": self.scenario_config,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "lease_expires": self.lease_expires,
            "attempts": self.attempts,
            "error": self.error,
            "summary": self.summary,
            "cancel_requested": self.cancel_requested,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        """Rebuild a :class:`Job` from :meth:`as_dict` output (the shape
        the ``/v1`` API serves); unknown keys are ignored so a newer
        coordinator can talk to an older worker."""
        return cls(
            id=payload["id"],
            scenario=payload["scenario"],
            scenario_config=payload["scenario_config"],
            state=payload["state"],
            submitted_at=payload["submitted_at"],
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            worker=payload.get("worker"),
            lease_expires=payload.get("lease_expires"),
            attempts=int(payload.get("attempts") or 0),
            error=payload.get("error"),
            summary=payload.get("summary"),
            cancel_requested=bool(payload.get("cancel_requested", False)),
        )


class JobStore(abc.ABC):
    """Abstract persistent job queue with leases and progress events.

    The method surface the worker loop, the API service and the CLI
    program against.  Implementations must provide a ``lease_ttl``
    attribute (seconds a claim or heartbeat keeps a job leased); for the
    remote backend it mirrors the coordinator's value.
    """

    lease_ttl: float

    # -- submission ----------------------------------------------------------------------

    @abc.abstractmethod
    def submit(self, scenario: ScenarioConfig) -> Tuple[Job, bool]:
        """Enqueue a scenario, deduplicating on its config hash.

        Returns ``(job, created)``; ``created`` is ``False`` when an
        active job for the same configuration already existed.
        """

    # -- worker side ---------------------------------------------------------------------

    @abc.abstractmethod
    def claim(self, worker: str) -> Optional[Job]:
        """Atomically lease the oldest queued job, or ``None``."""

    @abc.abstractmethod
    def start(self, job_id: str, worker: str) -> bool:
        """Mark a leased job as running; ``False`` if the lease was lost."""

    @abc.abstractmethod
    def heartbeat(self, job_id: str, worker: str) -> bool:
        """Extend the lease; ``False`` means stop executing the job."""

    @abc.abstractmethod
    def complete(self, job_id: str, worker: str, summary: Dict[str, Any]) -> bool:
        """Record a successful run (ownership-checked)."""

    @abc.abstractmethod
    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """Record a failed run (ownership-checked)."""

    @abc.abstractmethod
    def requeue_expired(self) -> int:
        """Requeue every job whose lease expired; returns how many."""

    # -- cancellation --------------------------------------------------------------------

    @abc.abstractmethod
    def cancel(self, job_id: str) -> Job:
        """Request cancellation; ``KeyError`` unknown, ``ValueError`` terminal."""

    @abc.abstractmethod
    def mark_cancelled(self, job_id: str, worker: str) -> bool:
        """Park a job after observing its cancel flag (ownership-checked)."""

    # -- progress events -----------------------------------------------------------------

    @abc.abstractmethod
    def append_events(
        self, job_id: str, events: Sequence[Dict[str, Any]]
    ) -> Tuple[List[int], bool]:
        """Append a batch of progress events, in order, atomically.

        Each event is ``{"stage", "status", "worker", "payload"}``
        (``worker`` and ``payload`` may be ``None``).  Returns the
        per-job sequence numbers the batch received (consecutive, in
        batch order) and the job's ``cancel_requested`` flag, so one
        exchange serves both a worker's progress report and its cancel
        poll; an empty batch appends nothing and only answers the flag.

        Raises ``KeyError`` for an unknown job (no orphan events).
        """

    def record_event(
        self,
        job_id: str,
        stage: str,
        status: str,
        worker: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append one progress event; returns its per-job sequence number."""
        event = {"stage": stage, "status": status, "worker": worker, "payload": payload}
        seqs, _ = self.append_events(job_id, [event])
        return seqs[0]

    @abc.abstractmethod
    def events_since(self, job_id: str, after_seq: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq > after_seq``, oldest first."""

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """All progress events of one job, oldest first."""
        return self.events_since(job_id, 0)

    # -- queries -------------------------------------------------------------------------

    @abc.abstractmethod
    def get(self, job_id: str) -> Optional[Job]:
        """One job by id, or ``None``."""

    @abc.abstractmethod
    def jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Job]:
        """Jobs (optionally filtered by state), newest first."""

    @abc.abstractmethod
    def count(self, state: Optional[str] = None) -> int:
        """Total number of jobs, optionally in one state."""

    @abc.abstractmethod
    def pending_count(self) -> int:
        """Jobs a worker could run right now: queued plus expired leases."""

    @abc.abstractmethod
    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero-filled for all known states)."""
