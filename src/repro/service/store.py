"""SQLite (WAL) implementation of the :class:`~repro.service.base.JobStore`
interface -- the coordinator-side (and single-host) job store.

One row per *unique experiment configuration*: the job id **is** the
scenario's :meth:`~repro.experiments.config.ScenarioConfig.config_hash`,
so concurrent submissions of the same configuration -- whatever their
scenario name -- coalesce onto one job and therefore one computation.
That mirrors the artefact cache, which is keyed by the same hash.

Job lifecycle::

    queued --claim--> leased --start--> running --+--> done
      ^  |                                        |
      |  +-- cancel ---------- cancel_requested --+--> failed
      |                  (worker observes)        |
      +--------- lease expiry / requeue ----------+--> cancelled

* ``queued``  -- submitted, waiting for a worker.
* ``leased``  -- claimed by a worker (lease with an expiry timestamp).
* ``running`` -- the worker started executing; it heartbeats to extend
  the lease.
* ``done`` / ``failed`` / ``cancelled`` -- terminal.  Submitting a
  failed or cancelled configuration again requeues it.

Cancellation is cooperative: :meth:`SqliteJobStore.cancel` moves a
*queued* job straight to ``cancelled``, while a leased/running job only
gets its ``cancel_requested`` flag raised -- the executing worker polls
the flag (through a :class:`~repro.cancel.CancelToken`) at its
checkpoint boundaries, persists its mid-stage partial, and then parks
the job in ``cancelled`` via :meth:`SqliteJobStore.mark_cancelled`.
Resubmitting the same configuration requeues it, and the worker resumes
from the persisted generation/batch bit-identically.

A worker that dies mid-job stops heartbeating; once its lease expires the
job is atomically flipped back to ``queued`` and another worker picks it
up.  Because workers execute jobs through the resumable
:class:`~repro.experiments.runner.ExperimentRunner`, the reclaiming worker
resumes from the per-stage (and mid-yield partial) checkpoints instead of
recomputing -- crashes cost at most one stage batch, and the final
artefacts stay bit-identical.

All state lives in one SQLite database.  WAL mode plus short immediate
transactions make the store safe for many concurrent workers and API
threads on one host (the scale the stdlib HTTP front end targets);
``claim`` is the only contended operation and touches one row.  Each
thread of each process keeps one connection open across calls.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.obs import metrics as obs_metrics
from repro.service import base
from repro.service.base import (
    ACTIVE_STATES,
    JOB_STATES,
    TERMINAL_STATES,
    Job,
)

__all__ = [
    "Job",
    "SqliteJobStore",
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
]

_log = logging.getLogger("repro.service.store")

#: Expired leases reclaimed by :meth:`SqliteJobStore.requeue_expired`
#: (directly, or lazily on a claim).  Each one is a worker that died --
#: or stalled past its TTL -- mid-job; a healthy fleet holds this at 0.
LEASE_EXPIRIES = obs_metrics.get_registry().counter(
    "repro_lease_expiries_total", "Expired job leases requeued or parked"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             TEXT PRIMARY KEY,     -- the scenario's config_hash
    scenario       TEXT NOT NULL,        -- registry name at submission time
    scenario_json  TEXT NOT NULL,        -- full ScenarioConfig.as_dict()
    state          TEXT NOT NULL,
    submitted_at   REAL NOT NULL,
    started_at     REAL,
    finished_at    REAL,
    worker         TEXT,
    lease_expires  REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    error          TEXT,
    summary_json   TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, submitted_at);
CREATE TABLE IF NOT EXISTS events (
    job_id       TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    stage        TEXT NOT NULL,
    status       TEXT NOT NULL,
    worker       TEXT,
    payload_json TEXT,
    PRIMARY KEY (job_id, seq)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        scenario=row["scenario"],
        scenario_config=json.loads(row["scenario_json"]),
        state=row["state"],
        submitted_at=row["submitted_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        worker=row["worker"],
        lease_expires=row["lease_expires"],
        attempts=row["attempts"],
        error=row["error"],
        summary=json.loads(row["summary_json"]) if row["summary_json"] else None,
        cancel_requested=bool(row["cancel_requested"]),
    )


class SqliteJobStore(base.JobStore):
    """SQLite-backed persistent job queue with leases and progress events.

    Parameters
    ----------
    path:
        Database file.  Parent directories are created; every worker
        process and API thread opens its own :class:`SqliteJobStore` on
        the same path.
    lease_ttl:
        Seconds a claim (and each subsequent heartbeat) keeps a job leased
        before it is considered abandoned and requeued.
    """

    def __init__(self, path: os.PathLike, lease_ttl: float = 60.0) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.path = Path(path)
        self.lease_ttl = float(lease_ttl)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        with self._session() as connection:
            connection.executescript(_SCHEMA)
            # Databases written before cancellation existed lack the
            # column; CREATE TABLE IF NOT EXISTS will not add it.
            columns = {
                row["name"]
                for row in connection.execute("PRAGMA table_info(jobs)").fetchall()
            }
            if "cancel_requested" not in columns:
                connection.execute(
                    "ALTER TABLE jobs ADD COLUMN"
                    " cancel_requested INTEGER NOT NULL DEFAULT 0"
                )

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use.

        Cached per thread (``sqlite3`` connections are single-thread) and
        per process: the cache is keyed by pid, so a child forked after
        the store was used opens its own connection and never uses -- or
        closes -- the inherited one, which SQLite forbids.
        """
        connections = self._local.__dict__.setdefault("by_pid", {})
        connection = connections.get(os.getpid())
        if connection is None:
            connection = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
            connection.row_factory = sqlite3.Row
            # WAL survives crashes and lets readers proceed while a worker
            # commits; NORMAL sync is the standard WAL pairing (durable
            # across application crashes, the failure mode leases handle).
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute("PRAGMA busy_timeout=30000")
            connections[os.getpid()] = connection
        return connection

    @contextmanager
    def _session(self, exclusive: bool = False) -> Iterator[sqlite3.Connection]:
        """This thread's cached connection, optionally wrapping one transaction.

        Connections run in autocommit (``isolation_level=None``): single
        statements are atomic on their own and hold no read snapshot past
        their own execution, so a cached connection always reads the
        latest commit.  Multi-statement read-modify-write sections opt
        into an explicit ``BEGIN IMMEDIATE`` transaction with
        ``exclusive=True`` (committed on success, rolled back on any
        exception, leaving the connection usable).
        """
        connection = self._connection()
        if exclusive:
            connection.execute("BEGIN IMMEDIATE")
            try:
                yield connection
                connection.commit()
            except BaseException:
                connection.rollback()
                raise
        else:
            yield connection

    # -- submission ----------------------------------------------------------------------

    def submit(self, scenario: ScenarioConfig) -> Tuple[Job, bool]:
        """Enqueue a scenario, deduplicating on its config hash.

        Returns ``(job, created)``.  ``created`` is ``False`` when an
        active (queued / leased / running / done) job for the same
        configuration already existed -- the caller shares that job and
        its artefacts.  A previously *failed* or *cancelled* configuration
        is requeued; a requeued cancelled job resumes from whatever
        mid-stage partial the cancelled attempt persisted.
        """
        job_id = scenario.config_hash()
        now = time.time()
        with self._session(exclusive=True) as connection:
            row = connection.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
            if row is not None and row["state"] in ACTIVE_STATES:
                return _row_to_job(row), False
            if row is not None:  # failed/cancelled -> requeue, keeping the attempt count
                # The resubmission's scenario replaces the stored one: the
                # hash-excluded execution fields (evaluation, n_workers, name)
                # may legitimately differ, and a corrective override (e.g.
                # switching off a broken backend) must reach the worker.
                connection.execute(
                    "UPDATE jobs SET state='queued', scenario=?, scenario_json=?,"
                    " submitted_at=?, started_at=NULL, finished_at=NULL,"
                    " worker=NULL, lease_expires=NULL, error=NULL,"
                    " cancel_requested=0 WHERE id=?",
                    (scenario.name, json.dumps(scenario.as_dict()), now, job_id),
                )
                # The failed attempt's progress events would otherwise mix
                # with (and misrepresent) the fresh attempt's.
                connection.execute("DELETE FROM events WHERE job_id=?", (job_id,))
            else:
                connection.execute(
                    "INSERT INTO jobs (id, scenario, scenario_json, state, submitted_at)"
                    " VALUES (?, ?, ?, 'queued', ?)",
                    (job_id, scenario.name, json.dumps(scenario.as_dict()), now),
                )
            return self._get(connection, job_id), True

    # -- worker side ---------------------------------------------------------------------

    def claim(self, worker: str) -> Optional[Job]:
        """Atomically lease the oldest queued job for one worker.

        Expired leases are reclaimed first (crashed workers' jobs return
        to the queue), then the job with the smallest ``submitted_at``
        (ties broken by ``id``) is leased -- one indexed query, the same
        rule for every worker.
        """
        now = time.time()
        # Read-only probe first: idle workers poll frequently, and taking
        # SQLite's single write lock on every empty poll would serialise
        # the whole pool against real submissions and heartbeats.  A job
        # that appears right after the probe is caught on the next poll.
        with self._session() as connection:
            probe = connection.execute(
                "SELECT 1 FROM jobs WHERE state='queued'"
                " OR (state IN ('leased', 'running') AND lease_expires < ?) LIMIT 1",
                (now,),
            ).fetchone()
        if probe is None:
            return None
        with self._session(exclusive=True) as connection:
            self._requeue_expired(connection, now)
            row = connection.execute(
                "SELECT id FROM jobs WHERE state='queued'"
                " ORDER BY submitted_at, id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            job_id = row["id"]
            connection.execute(
                "UPDATE jobs SET state='leased', worker=?, lease_expires=?,"
                " attempts=attempts+1 WHERE id=?",
                (worker, now + self.lease_ttl, job_id),
            )
            return self._get(connection, job_id)

    def start(self, job_id: str, worker: str) -> bool:
        """Mark a leased job as running (the worker began executing)."""
        now = time.time()
        with self._session() as connection:
            cursor = connection.execute(
                "UPDATE jobs SET state='running', started_at=?, lease_expires=?"
                " WHERE id=? AND worker=? AND state='leased'",
                (now, now + self.lease_ttl, job_id, worker),
            )
            return cursor.rowcount == 1

    def heartbeat(self, job_id: str, worker: str) -> bool:
        """Extend the lease of a job this worker still owns.

        Returns ``False`` when the job is no longer owned by the worker --
        the worker should stop executing the job.  Expiry is
        authoritative: a lease that has already run out cannot be revived
        (the ``lease_expires >= now`` guard), so a worker that stalled
        past its TTL loses the race to whichever peer reclaims the job
        instead of resurrecting it under both workers at once.
        """
        now = time.time()
        with self._session() as connection:
            cursor = connection.execute(
                "UPDATE jobs SET lease_expires=? WHERE id=? AND worker=?"
                " AND state IN ('leased', 'running') AND lease_expires >= ?",
                (now + self.lease_ttl, job_id, worker, now),
            )
            return cursor.rowcount == 1

    def complete(self, job_id: str, worker: str, summary: Dict[str, Any]) -> bool:
        """Record a successful run (the ``ExperimentResult`` summary).

        A cancel that raced completion (requested after the last
        checkpoint boundary) loses: the job finished, so the stale
        ``cancel_requested`` flag is dropped with it.
        """
        with self._session() as connection:
            cursor = connection.execute(
                "UPDATE jobs SET state='done', finished_at=?, summary_json=?,"
                " lease_expires=NULL, cancel_requested=0 WHERE id=? AND worker=?"
                " AND state IN ('leased', 'running')",
                (time.time(), json.dumps(summary), job_id, worker),
            )
            return cursor.rowcount == 1

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """Record a failed run (exception text, truncated to its last
        4000 characters: a traceback ends with the exception itself)."""
        with self._session() as connection:
            cursor = connection.execute(
                "UPDATE jobs SET state='failed', finished_at=?, error=?,"
                " lease_expires=NULL, cancel_requested=0 WHERE id=? AND worker=?"
                " AND state IN ('leased', 'running')",
                (time.time(), error[-4000:], job_id, worker),
            )
            return cursor.rowcount == 1

    def requeue_expired(self) -> int:
        """Requeue every job whose lease expired; returns how many."""
        with self._session(exclusive=True) as connection:
            return self._requeue_expired(connection, time.time())

    @staticmethod
    def _requeue_expired(connection: sqlite3.Connection, now: float) -> int:
        # A cancel requested while the (now dead) worker held the job wins
        # over the requeue: the operator asked for the job to stop, so it
        # parks in `cancelled` instead of returning to the queue.
        parked = connection.execute(
            "UPDATE jobs SET state='cancelled', worker=NULL, lease_expires=NULL,"
            " finished_at=?, cancel_requested=0"
            " WHERE state IN ('leased', 'running') AND lease_expires < ?"
            " AND cancel_requested=1",
            (now, now),
        ).rowcount
        cursor = connection.execute(
            "UPDATE jobs SET state='queued', worker=NULL, lease_expires=NULL"
            " WHERE state IN ('leased', 'running') AND lease_expires < ?",
            (now,),
        )
        reclaimed = parked + cursor.rowcount
        if reclaimed:
            LEASE_EXPIRIES.inc(reclaimed)
            _log.warning(
                "reclaimed %d expired lease(s): %d requeued, %d parked cancelled",
                reclaimed,
                cursor.rowcount,
                parked,
            )
        return cursor.rowcount

    # -- cancellation --------------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Request cancellation of a job.

        A *queued* job is parked in ``cancelled`` immediately (no worker
        holds it, there is nothing to unwind).  A *leased* or *running*
        job only gets its ``cancel_requested`` flag raised: the executing
        worker polls the flag at its checkpoint boundaries (NSGA-II
        generations, yield Monte Carlo batches), persists its mid-stage
        partial and parks the job via :meth:`mark_cancelled` -- so a
        cancel never corrupts an artefact, and resubmitting resumes from
        the persisted state.

        Returns the updated job.  Raises ``KeyError`` for an unknown job
        and ``ValueError`` for one already in a terminal state.
        """
        now = time.time()
        with self._session(exclusive=True) as connection:
            row = connection.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
            if row is None:
                raise KeyError(f"unknown job {job_id!r}")
            state = row["state"]
            expired = row["lease_expires"] is not None and row["lease_expires"] < now
            if state == "queued" or (state in ("leased", "running") and expired):
                # No live worker holds the job (never claimed, or its
                # lease ran out) -- park it directly; there might be no
                # worker left alive to observe a flag.  A stalled-but-
                # alive worker's late terminal updates are state-checked
                # no-ops against `cancelled`.
                connection.execute(
                    "UPDATE jobs SET state='cancelled', finished_at=?,"
                    " worker=NULL, lease_expires=NULL, cancel_requested=0 WHERE id=?",
                    (now, job_id),
                )
            elif state in ("leased", "running"):
                connection.execute(
                    "UPDATE jobs SET cancel_requested=1 WHERE id=?", (job_id,)
                )
            else:
                raise ValueError(f"job {job_id} is already {state}")
            # Recorded inside the same transaction as the state change, so
            # SSE subscribers never see a terminal job grow events later.
            self._append_event(connection, job_id, "cancel", "requested")
            return self._get(connection, job_id)

    def mark_cancelled(self, job_id: str, worker: str) -> bool:
        """Park a job this worker observed a cancel request for.

        Ownership-checked like :meth:`complete` / :meth:`fail`: ``False``
        means the lease was lost (a peer reclaimed the job) and the
        outcome is not this worker's to record.
        """
        with self._session() as connection:
            cursor = connection.execute(
                "UPDATE jobs SET state='cancelled', finished_at=?,"
                " lease_expires=NULL, cancel_requested=0 WHERE id=? AND worker=?"
                " AND state IN ('leased', 'running')",
                (time.time(), job_id, worker),
            )
            return cursor.rowcount == 1

    # -- progress events -----------------------------------------------------------------

    @staticmethod
    def _append_event(
        connection: sqlite3.Connection,
        job_id: str,
        stage: str,
        status: str,
        worker: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append one event inside the caller's open transaction.

        The per-job sequence is allocated with ``MAX(seq)+1`` under the
        caller's write lock, so sequences are gapless and strictly
        monotonic per job -- the contract ``Last-Event-ID`` SSE resumption
        relies on.  Returns the allocated sequence number.
        """
        row = connection.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 AS seq FROM events WHERE job_id=?",
            (job_id,),
        ).fetchone()
        connection.execute(
            "INSERT INTO events (job_id, seq, created_at, stage, status, worker,"
            " payload_json) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                job_id,
                row["seq"],
                time.time(),
                stage,
                status,
                worker,
                json.dumps(payload) if payload is not None else None,
            ),
        )
        return int(row["seq"])

    def append_events(
        self, job_id: str, events: Sequence[Dict[str, Any]]
    ) -> Tuple[List[int], bool]:
        """Append a batch of progress events (completed flow stages,
        NSGA-II generations, yield batches) in one transaction; returns
        their sequence numbers and the job's cancel flag.

        The worker's one progress-and-cancel exchange: an empty batch is
        the bare cancel poll (one indexed single-row read, no write lock).
        Raises ``KeyError`` for an unknown job -- matching the API's 404
        so both backends honour the same contract (no orphan events)."""
        with self._session(exclusive=bool(events)) as connection:
            row = connection.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {job_id!r}")
            seqs = [
                self._append_event(
                    connection,
                    job_id,
                    event["stage"],
                    event["status"],
                    event.get("worker"),
                    event.get("payload"),
                )
                for event in events
            ]
            return seqs, bool(row["cancel_requested"])

    @staticmethod
    def _row_to_event(row: sqlite3.Row) -> Dict[str, Any]:
        return {
            "seq": row["seq"],
            "created_at": row["created_at"],
            "stage": row["stage"],
            "status": row["status"],
            "worker": row["worker"],
            "payload": json.loads(row["payload_json"]) if row["payload_json"] else None,
        }

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """All progress events of one job, oldest first."""
        return self.events_since(job_id, 0)

    def events_since(self, job_id: str, after_seq: int = 0) -> List[Dict[str, Any]]:
        """Events with ``seq > after_seq``, oldest first.

        The SSE tail loop: replay everything after the client's
        ``Last-Event-ID``, then poll with the last delivered sequence.
        Sequences are gapless per job, so this can never skip an event.
        """
        with self._session() as connection:
            rows = connection.execute(
                "SELECT * FROM events WHERE job_id=? AND seq>? ORDER BY seq",
                (job_id, int(after_seq)),
            ).fetchall()
        return [self._row_to_event(row) for row in rows]

    # -- queries -------------------------------------------------------------------------

    @staticmethod
    def _get(connection: sqlite3.Connection, job_id: str) -> Job:
        row = connection.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        return _row_to_job(row)

    def get(self, job_id: str) -> Optional[Job]:
        """One job by id, or ``None``."""
        with self._session() as connection:
            row = connection.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return _row_to_job(row) if row is not None else None

    def jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Job]:
        """Jobs (optionally filtered by state), newest first.

        ``limit`` / ``offset`` page through the newest-first ordering;
        pair with :meth:`count` for the pagination envelope.
        """
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}; expected one of {JOB_STATES}")
        query = "SELECT * FROM jobs"
        parameters: Tuple[Any, ...] = ()
        if state is not None:
            query += " WHERE state=?"
            parameters = (state,)
        query += " ORDER BY submitted_at DESC, id"
        if limit is not None:
            query += " LIMIT ? OFFSET ?"
            parameters = parameters + (int(limit), int(offset))
        with self._session() as connection:
            rows = connection.execute(query, parameters).fetchall()
        return [_row_to_job(row) for row in rows]

    def count(self, state: Optional[str] = None) -> int:
        """Total number of jobs, optionally in one state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}; expected one of {JOB_STATES}")
        query = "SELECT COUNT(*) AS n FROM jobs"
        parameters: Tuple[Any, ...] = ()
        if state is not None:
            query += " WHERE state=?"
            parameters = (state,)
        with self._session() as connection:
            row = connection.execute(query, parameters).fetchone()
        return int(row["n"])

    def pending_count(self) -> int:
        """Jobs a worker could run *right now*: queued plus expired leases.

        Leased/running jobs whose lease has expired are reclaimable work
        (their worker is presumed dead), so they count as pending -- this
        is what drain-mode workers and the autoscaler consult.  A job
        under a live lease is a healthy peer's business and does not
        count.
        """
        with self._session() as connection:
            row = connection.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state='queued'"
                " OR (state IN ('leased', 'running') AND lease_expires < ?)",
                (time.time(),),
            ).fetchone()
        return int(row["n"])

    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero-filled for all known states)."""
        with self._session() as connection:
            rows = connection.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({row["state"]: row["n"] for row in rows})
        return counts

    # -- shared metadata -----------------------------------------------------------------

    def set_meta(self, key: str, value: Any) -> None:
        """Publish one JSON-encoded metadata value (e.g. the worker pool
        size) for other processes -- the API server -- to read."""
        with self._session() as connection:
            connection.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, json.dumps(value)),
            )

    def get_meta(self, key: str, default: Any = None) -> Any:
        """Read one metadata value, or ``default`` when unset."""
        with self._session() as connection:
            row = connection.execute(
                "SELECT value FROM meta WHERE key=?", (key,)
            ).fetchone()
        return json.loads(row["value"]) if row is not None else default
