"""The worker processes executing queued experiment jobs.

Each worker is one OS process running :func:`worker_loop`: claim the
oldest queued job from the :class:`~repro.service.base.JobStore`,
execute it through the resumable
:class:`~repro.experiments.runner.ExperimentRunner`, and report progress
events (one per completed flow stage through the runner's ``stage_hook``
seam, one per mid-stage checkpoint through its ``progress_hook``).  A
daemon heartbeat thread extends the job's lease while the flow
computes, so only dead or cut-off workers lose their lease (a worker
whose beats go unacknowledged for a lease TTL stops at its next
checkpoint boundary) -- and a reclaimed job resumes from the per-stage
cache (plus the circuit stage's per-generation and the yield stage's
per-batch partials), which is what makes crash recovery cheap and
bit-identical.  For a remote worker the same thread publishes those
partials to the coordinator after each live beat.

Workers also carry a :class:`~repro.cancel.CancelToken` polling the job's
``cancel_requested`` flag: a ``DELETE /v1/jobs/<id>`` raised mid-run is
observed at the next checkpoint boundary, the mid-stage partial stays
persisted, and the job parks in ``cancelled`` -- resubmitting resumes it
bit-identically.  The poll and the progress events share one exchange
(:class:`_JobEvents`): buffered events ride the poll, so a job asks the
store nothing it could answer itself.

One supervisor sits on top, :class:`Autoscaler`, used by ``repro serve``
(``multiprocessing`` with the ``spawn`` start method, so workers are
independent interpreters like any production fleet).  It keeps the pool
between ``min_workers`` and ``max_workers`` (``repro serve --workers N
--max-workers M``; a fixed pool is ``min_workers == max_workers``):
sustained backlog spawns workers, a sustained empty queue retires them
(gracefully -- a retiring worker finishes its current job first), and a
crashed worker is replaced up to the floor while its *job* comes back to
the queue through lease expiry, which is the recovery model the store is
built around.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cancel import CancelToken, JobCancelled
from repro.core.flow import summarise_stage
from repro.experiments.artifacts import (
    ArtifactStore,
    ArtifactTransportError,
    HttpArtifactStore,
    LocalArtifactStore,
)
from repro.experiments.runner import ExperimentRunner
from repro.obs import trace as obs_trace
from repro.service import base
from repro.service.base import Job
from repro.service.remote import RemoteJobStore, RemoteStoreError
from repro.service.store import SqliteJobStore

__all__ = [
    "execute_job",
    "worker_loop",
    "remote_worker_loop",
    "run_worker",
    "Autoscaler",
]

_log = logging.getLogger("repro.service.worker")

#: Seconds between queue polls when no job is claimable.
DEFAULT_POLL_INTERVAL = 0.2

#: Exceptions a remote worker treats as "the coordinator is unreachable
#: right now" -- survivable turbulence, not a programming error.
TRANSIENT_STORE_ERRORS = (ArtifactTransportError, RemoteStoreError, ConnectionError)


def _publish_pool_meta(store: base.JobStore, workers: int) -> None:
    """Record the live pool size in the store for ``GET /v1/healthz``.

    The API server and the workers are separate processes; the shared
    SQLite ``meta`` table is how external probes learn the pool size.
    Best-effort -- a health gauge must never take down a supervisor.
    """
    try:
        store.set_meta("workers", int(workers))
    except Exception:  # noqa: BLE001
        pass


def _heartbeat(
    store: base.JobStore,
    job_id: str,
    worker: str,
    stop: threading.Event,
    interval: float,
    publish: Callable[[], None],
    lose: Callable[[], None],
) -> None:
    """Extend the lease every ``interval`` and, after each beat the
    coordinator answers alive, ``publish`` the job's newest mid-stage
    checkpoints.

    The lease is lost when a beat answers so, or when no beat has been
    acknowledged for a full ``store.lease_ttl`` on this worker's own
    monotonic clock: the coordinator set the lease's expiry before it
    answered the last acknowledged beat (or the start), so by then the
    lease has expired on the coordinator's clock too, and no timestamps
    from two hosts are compared.  Either way ``lose()`` is called once and
    the thread ends."""
    lease_ttl = store.lease_ttl
    acknowledged = time.monotonic()
    while not stop.wait(interval):
        try:
            alive = store.heartbeat(job_id, worker)
        except Exception:  # noqa: BLE001 - a dropped beat must not kill the thread
            # Transient turbulence (SQLITE_BUSY past the timeout, a
            # network partition on the remote store): keep beating
            # until the lease has surely expired.
            if time.monotonic() - acknowledged < lease_ttl:
                continue
            alive = False
        if not alive:
            lose()
            return
        acknowledged = time.monotonic()
        publish()


def _persist_trace(runner: ExperimentRunner, trace, job_id: str) -> None:
    """Write the finished trace next to the job's stage artefacts.

    Best-effort: a trace is a diagnostic artefact, so an unwritable cache
    directory (or an unreachable coordinator, for a remote worker whose
    entry pushes over HTTP) must not turn a computed result into a
    failure.
    """
    if trace is None:
        return
    try:
        runner.cache.entry(runner.config_hash).write_trace(trace.spans)
    except Exception as error:  # noqa: BLE001 - diagnostics only
        _log.warning("job %s: could not persist trace: %s", job_id, error)


class _JobEvents:
    """A job's progress events, delivered in order on its cancel poll.

    Mid-stage progress events (NSGA-II generations, Monte Carlo points,
    yield batches) are buffered, and :meth:`poll` -- the job's
    :class:`~repro.cancel.CancelToken` source -- appends the whole buffer
    and answers the cancel flag in one
    :meth:`~repro.service.base.JobStore.append_events` exchange.  So a
    progress event is stored by the first cancel poll after it (at most
    one poll interval plus one checkpoint boundary later).  A
    stage-completion event, and whatever precedes it, is stored at once
    (:meth:`stage_completed`), and :meth:`flush` stores the rest before
    a terminal outcome: the SSE stream, which drains a job's events once
    it sees a terminal state, never misses one.

    Events are advisory (they feed the SSE stream): a failed exchange
    keeps the buffer for the next one and never aborts the computation.
    Once ``lost`` is set the job belongs to whoever reclaims it: the poll
    exchanges nothing more and answers "cancelled".
    """

    def __init__(
        self, store: base.JobStore, job_id: str, worker: str, lost: threading.Event
    ) -> None:
        self.store = store
        self.job_id = job_id
        self.worker = worker
        self.lost = lost
        self.pending: List[Dict[str, Any]] = []

    def add(self, stage: str, status: str, payload: Optional[Dict[str, Any]] = None) -> None:
        self.pending.append(
            {"stage": stage, "status": status, "worker": self.worker, "payload": payload}
        )

    def poll(self) -> bool:
        """Append the buffer (possibly empty); the job's cancel flag."""
        if self.lost.is_set():
            return True
        try:
            _, cancel_requested = self.store.append_events(self.job_id, self.pending)
        except Exception:  # noqa: BLE001 - progress must never break a run
            # Can't reach the store: assume not cancelled and keep
            # computing -- if the partition outlives the lease, the
            # heartbeat declares it lost and the run stops.
            return False
        self.pending = []
        return cancel_requested

    def stage_completed(self, stage: str, artefact: Any) -> bool:
        """Store a stage's completion event, and all before it, now;
        returns the cancel flag the exchange answered."""
        self.add(stage, "completed", summarise_stage(stage, artefact))
        return self.poll()

    def flush(self) -> None:
        """Store any buffered events (before a terminal outcome)."""
        if self.pending:
            self.poll()


def execute_job(
    store: base.JobStore,
    job: Job,
    cache_dir: Union[Path, ArtifactStore],
    worker: str,
    heartbeat_interval: Optional[float] = None,
    cancel_poll_interval: Optional[float] = None,
) -> Optional[bool]:
    """Run one claimed job to a terminal state through the runner.

    Returns ``True`` for ``done``, ``False`` for ``failed``/``cancelled``,
    and ``None`` when this worker no longer owns the job, so it must not
    count as executed: the lease was lost between claim and start, or
    mid-run (a beat answered "lost", or no beat was acknowledged for a
    full lease TTL -- see :func:`_heartbeat`).  A lease lost mid-run
    cancels the run at its next checkpoint boundary, and the worker then
    tells the store nothing more: no event, no publication, no outcome.
    So a crashed or partitioned worker stops computing within one lease
    TTL, plus one heartbeat interval, plus one checkpoint boundary of its
    last acknowledged beat.  The scenario executes exactly like
    ``repro run``: same runner, same yield batch of
    :data:`~repro.experiments.runner.DEFAULT_YIELD_BATCH` samples, same
    content-addressed cache -- so service artefacts are bit-identical to
    CLI artefacts, and two jobs differing only in execution fields share
    cache entries.  A yield of at most one batch streams only its
    stage-completion event; a longer one streams a progress event per
    persisted batch.

    ``cache_dir`` may be a plain path (wrapped in a
    :class:`~repro.experiments.artifacts.LocalArtifactStore`) or any
    :class:`~repro.experiments.artifacts.ArtifactStore` -- a remote
    worker passes an
    :class:`~repro.experiments.artifacts.HttpArtifactStore`, so its
    checkpoints read through from (and publish to) the coordinator.
    Stage artefacts are pushed as they are stored; the mid-stage
    partials are published by the heartbeat thread after every beat the
    coordinator answers alive, and once more before each terminal
    outcome (``done``, ``failed``, ``cancelled``) while the lease is
    held.  A crash loses at most one heartbeat interval of mid-stage
    progress.

    ``cancel_poll_interval`` throttles the cancel poll the runner's
    :class:`~repro.cancel.CancelToken` issues at checkpoint boundaries
    (default: a sixth of the lease TTL, capped at one second).  The poll
    is the job's one events exchange (:class:`_JobEvents`): it carries
    the buffered progress events and answers the ``cancel_requested``
    flag.
    """
    artifacts = (
        cache_dir
        if isinstance(cache_dir, ArtifactStore)
        else LocalArtifactStore(cache_dir)
    )
    lost = threading.Event()
    events = _JobEvents(store, job.id, worker, lost)

    try:
        if not store.start(job.id, worker):
            return None  # lost the lease between claim and start
    except TRANSIENT_STORE_ERRORS:
        return None  # coordinator unreachable: the lease will expire
    try:
        scenario = job.resolve_scenario()
    except (KeyError, TypeError, ValueError) as error:
        events.add("submit", "rejected", {"error": str(error)})
        events.flush()
        store.fail(job.id, worker, f"unresolvable scenario: {error}")
        return False

    interval = heartbeat_interval if heartbeat_interval is not None else store.lease_ttl / 3.0
    stop = threading.Event()
    runner = ExperimentRunner(scenario, artifacts=artifacts)
    config_hash = runner.config_hash
    cancel = CancelToken(
        should_cancel=events.poll,
        poll_interval=(
            cancel_poll_interval
            if cancel_poll_interval is not None
            else min(1.0, store.lease_ttl / 6.0)
        ),
    )
    # The claim just answered the flag: the first poll is due one
    # interval from now, not at the first checkpoint boundary.
    cancel.observe(job.cancel_requested)

    def lose() -> None:
        # The job's checkpoints and outcome now belong to whoever
        # reclaims it: stop at the next checkpoint boundary.
        lost.set()
        cancel.cancel()

    def settle(outcome: Callable[[], bool], executed: bool) -> Optional[bool]:
        """Publish, flush and deliver a terminal outcome while the lease
        is held; ``executed`` if the ownership-checked outcome landed."""
        if lost.is_set():
            return None
        artifacts.publish(config_hash)
        events.flush()
        try:
            return executed if outcome() else None
        except TRANSIENT_STORE_ERRORS:
            # The outcome could not be delivered: the artefacts are
            # persisted, the lease will expire, and whoever reclaims the
            # job resumes (or completes it instantly) from the cache.
            return None

    beat = threading.Thread(
        target=_heartbeat,
        args=(
            store,
            job.id,
            worker,
            stop,
            max(0.05, interval),
            lambda: artifacts.publish(config_hash),
            lose,
        ),
        daemon=True,
    )
    beat.start()
    try:
        # The worker owns the job's trace, so spans carry the worker
        # identity and the runner's nested start_trace joins this one.
        # The id defaults to the job id (== the scenario's config hash);
        # a remote store exposes the coordinator's X-Repro-Trace header
        # from the claim, which wins if the two ever diverge.
        # Persistence happens in _persist_trace on *every* exit path -- a
        # failed or cancelled job's partial trace is exactly what
        # debugging needs.
        trace_id = getattr(store, "last_trace_id", None) or job.id
        with obs_trace.start_trace(trace_id) as trace:
            try:
                with obs_trace.span(
                    "worker.execute_job", job_id=job.id, worker=worker
                ):
                    result = runner.run(
                        # The stage-completion exchange answers the
                        # cancel flag too, so it counts as a poll.
                        stage_hook=lambda stage, artefact: cancel.observe(
                            events.stage_completed(stage, artefact)
                        ),
                        cancel=cancel,
                        progress_hook=lambda stage, payload: events.add(
                            stage, "progress", payload
                        ),
                    )
            finally:
                _persist_trace(runner, trace, job.id)
        # The terminal updates are ownership-checked: False means the
        # lease expired mid-run and a peer reclaimed (and will finish)
        # the job -- this worker's result must not count as an execution.
        return settle(lambda: store.complete(job.id, worker, result.summary()), True)
    except JobCancelled:
        # The cancel surfaced at a checkpoint boundary: the mid-stage
        # partial is already persisted, and published here, so a
        # resubmission resumes from it.  A lost lease surfaces here too.
        events.add("cancel", "observed")
        return settle(lambda: store.mark_cancelled(job.id, worker), False)
    except TRANSIENT_STORE_ERRORS:
        # The store vanished mid-run (not a computation error): leave the
        # job to lease expiry rather than recording a phantom failure.
        return None
    except Exception:
        error_text = traceback.format_exc()
        return settle(lambda: store.fail(job.id, worker, error_text), False)
    finally:
        stop.set()
        beat.join(timeout=5.0)


def run_worker(
    store: base.JobStore,
    artifacts: Union[Path, ArtifactStore],
    worker: str,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_jobs: Optional[int] = None,
    stop_event: Optional[object] = None,
    cancel_poll_interval: Optional[float] = None,
) -> int:
    """Backend-agnostic claim-and-execute loop; returns jobs executed.

    The same loop serves both deployments -- only the backends differ:
    a local worker passes a :class:`~repro.service.store.SqliteJobStore`
    plus a cache path, a remote one a
    :class:`~repro.service.remote.RemoteJobStore` plus an
    :class:`~repro.experiments.artifacts.HttpArtifactStore`.  Transient
    store errors (a coordinator restart, a network partition) are
    survived by polling on: the lease model already treats an unreachable
    worker and an unreachable coordinator identically.

    ``max_jobs`` bounds the loop for tests and batch draining; ``None``
    loops until the process is terminated (the supervisor sends SIGTERM).
    A drain only exits once nothing is *pending* -- queued jobs plus
    leased/running jobs whose lease already expired (a crashed peer's
    reclaimable work); a job under a live lease is a healthy peer's
    business.

    ``stop_event`` (a ``multiprocessing.Event``) retires the worker
    gracefully: it finishes its current job, observes the event between
    jobs, and exits.
    """
    executed = 0
    while max_jobs is None or executed < max_jobs:
        if stop_event is not None and stop_event.is_set():
            break
        try:
            job = store.claim(worker)
        except TRANSIENT_STORE_ERRORS:
            job = None
        if job is None:
            try:
                drained = max_jobs is not None and store.pending_count() == 0
            except TRANSIENT_STORE_ERRORS:
                drained = False
            if drained:
                break
            if stop_event is not None:
                if stop_event.wait(poll_interval):
                    break
            else:
                time.sleep(poll_interval)
            continue
        outcome = execute_job(
            store, job, artifacts, worker, cancel_poll_interval=cancel_poll_interval
        )
        if outcome is not None:
            executed += 1
    return executed


def worker_loop(
    db_path: Path,
    cache_dir: Path,
    lease_ttl: float = 60.0,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_jobs: Optional[int] = None,
    stop_event: Optional[object] = None,
    cancel_poll_interval: Optional[float] = None,
) -> int:
    """A local worker: SQLite store + local artefact cache (see
    :func:`run_worker` for loop semantics)."""
    store = SqliteJobStore(db_path, lease_ttl=lease_ttl)
    return run_worker(
        store,
        LocalArtifactStore(cache_dir),
        f"worker@{os.getpid()}",
        poll_interval=poll_interval,
        max_jobs=max_jobs,
        stop_event=stop_event,
        cancel_poll_interval=cancel_poll_interval,
    )


def remote_worker_loop(
    coordinator_url: str,
    cache_dir: Path,
    poll_interval: float = 0.5,
    max_jobs: Optional[int] = None,
    stop_event: Optional[object] = None,
    cancel_poll_interval: Optional[float] = None,
    worker_name: Optional[str] = None,
    store: Optional[base.JobStore] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> int:
    """A remote worker: jobs and artefacts speak the coordinator's API.

    ``repro worker --coordinator http://host:port`` lands here.  The
    lease TTL is the *coordinator's* (learned from ``/v1/healthz``), and
    expiry is evaluated on the coordinator's clock only -- this process
    merely heartbeats and accepts the verdicts.  ``store`` / ``artifacts``
    are injectable for the fault-injection harness.
    """
    store = store if store is not None else RemoteJobStore(coordinator_url)
    artifacts = (
        artifacts
        if artifacts is not None
        else HttpArtifactStore(coordinator_url, cache_dir)
    )
    return run_worker(
        store,
        artifacts,
        worker_name or f"worker@{socket.gethostname()}:{os.getpid()}",
        poll_interval=poll_interval,
        max_jobs=max_jobs,
        stop_event=stop_event,
        cancel_poll_interval=cancel_poll_interval,
    )


def _spawn_worker(
    context: multiprocessing.context.BaseContext,
    db_path: Path,
    cache_dir: Path,
    lease_ttl: float,
    poll_interval: float,
    stop_event: object,
) -> multiprocessing.Process:
    """Start one worker process.

    NOT daemonic: daemonic processes cannot have children, and jobs
    legitimately spawn them (the SPICE evaluator's batch process pool).
    Orderly shutdown is the supervisor's job; a SIGKILLed supervisor
    leaves workers running, which the lease model treats like any other
    crashed peer.
    """
    process = context.Process(
        target=worker_loop,
        args=(db_path, cache_dir),
        kwargs={
            "lease_ttl": lease_ttl,
            "poll_interval": poll_interval,
            "stop_event": stop_event,
        },
        name="repro-worker",
        daemon=False,
    )
    process.start()
    return process


def _stop_processes(processes: List[multiprocessing.Process], timeout: float) -> None:
    """Terminate processes and wait, escalating to SIGKILL on stragglers."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout=timeout)


class Autoscaler:
    """Queue-depth-driven worker pool between ``min_workers`` and ``max_workers``.

    ``max_workers`` defaults to ``min_workers``: a fixed pool.  A
    supervisor thread samples the store every ``supervisor_interval``
    seconds:

    * **scale up** -- when the outstanding demand (queued + leased +
      running jobs; in-flight work counts, so a queued job can never
      starve behind a pool of busy workers) exceeds the pool size for
      ``scale_up_after`` consecutive ticks, one worker is spawned (up to
      ``max_workers``).
    * **scale down** -- when the store is fully drained (nothing queued,
      leased or running) for ``scale_down_after`` consecutive ticks, the
      newest worker is retired (down to ``min_workers``).  Retirement is
      graceful: the worker's stop event is set, it finishes its current
      job -- if any -- observes the event between jobs and exits; the
      supervisor reaps it on a later tick.

    Crashed workers are reaped out of the pool each tick -- a corpse
    must not count toward the size the backlog is compared against --
    and replaced at least up to ``min_workers`` (their abandoned jobs
    come back through lease expiry as usual).  Every resize publishes
    the pool size to the store's ``workers`` meta key for
    ``GET /v1/healthz``.
    """

    def __init__(
        self,
        db_path: Path,
        cache_dir: Path,
        min_workers: int = 1,
        max_workers: Optional[int] = None,
        lease_ttl: float = 60.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        supervisor_interval: float = 0.5,
        scale_up_after: int = 2,
        scale_down_after: int = 10,
    ) -> None:
        if max_workers is None:
            max_workers = min_workers
        if min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if supervisor_interval <= 0:
            raise ValueError("supervisor_interval must be positive")
        if scale_up_after < 1 or scale_down_after < 1:
            raise ValueError("scale_up_after / scale_down_after must be at least 1")
        self.db_path = Path(db_path)
        self.cache_dir = Path(cache_dir)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.supervisor_interval = supervisor_interval
        self.scale_up_after = scale_up_after
        self.scale_down_after = scale_down_after
        # Spawned (not forked) workers import the package afresh -- no
        # inherited locks or RNG state, exactly like separate containers.
        self._context = multiprocessing.get_context("spawn")
        #: Active workers as (process, stop_event) pairs, oldest first.
        self._workers: List[Tuple[multiprocessing.Process, object]] = []
        self._retiring: List[multiprocessing.Process] = []
        self._store = SqliteJobStore(self.db_path, lease_ttl=self.lease_ttl)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pressure_ticks = 0
        self._idle_ticks = 0

    # -- pool introspection --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current target pool size (spawned minus retired workers)."""
        return len(self._workers)

    def alive(self) -> int:
        """How many active (non-retiring) worker processes are alive."""
        return sum(1 for process, _ in self._workers if process.is_alive())

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> None:
        """Spawn ``min_workers`` and the supervisor thread (idempotent)."""
        if self._thread is not None:
            return
        while len(self._workers) < self.min_workers:
            self._grow()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._supervise, name="repro-autoscaler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop supervising and terminate every worker."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        for _, stop_event in self._workers:
            stop_event.set()
        _stop_processes(
            [process for process, _ in self._workers] + self._retiring, timeout
        )
        self._workers = []
        self._retiring = []
        _publish_pool_meta(self._store, 0)

    def __enter__(self) -> "Autoscaler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- scaling internals ---------------------------------------------------------------

    def _grow(self) -> None:
        stop_event = self._context.Event()
        process = _spawn_worker(
            self._context,
            self.db_path,
            self.cache_dir,
            self.lease_ttl,
            self.poll_interval,
            stop_event,
        )
        self._workers.append((process, stop_event))
        _publish_pool_meta(self._store, len(self._workers))

    def _shrink(self) -> None:
        process, stop_event = self._workers.pop()
        stop_event.set()  # graceful: the worker finishes its current job
        self._retiring.append(process)
        _publish_pool_meta(self._store, len(self._workers))

    def _reap_retired(self) -> None:
        still_running = []
        for process in self._retiring:
            if process.is_alive():
                still_running.append(process)
            else:
                process.join(timeout=0)
        self._retiring = still_running

    def _reap_crashed(self) -> None:
        """Drop dead workers from the active pool.

        A crashed worker must not keep counting toward the pool size:
        scale-up compares the backlog against ``len(self._workers)``, and
        a corpse in that list would stall replacement spawns while its
        abandoned job waits on lease expiry.
        """
        alive = []
        for process, stop_event in self._workers:
            if process.is_alive():
                alive.append((process, stop_event))
            else:
                process.join(timeout=0)
        if len(alive) != len(self._workers):
            self._workers = alive
            _publish_pool_meta(self._store, len(self._workers))

    def _supervise(self) -> None:
        while not self._stop.wait(self.supervisor_interval):
            try:
                self._tick()
            except Exception:  # noqa: BLE001 - the supervisor must survive
                # A transient store error (SQLITE_BUSY past the timeout,
                # disk full) or a failed spawn must not kill the
                # supervisor thread -- that would silently freeze the
                # pool at its current size for the life of the service.
                _log.exception("autoscaler supervision tick failed")

    def _tick(self) -> None:
        """One supervision round (separate from the loop for testability)."""
        self._reap_retired()
        self._reap_crashed()
        # The contract is a pool *size*: crashed workers are replaced at
        # least up to the floor.
        while len(self._workers) < self.min_workers:
            self._grow()
        counts = self._store.counts()
        # Demand counts every outstanding job -- queued AND in flight.
        # Comparing only the *waiting* backlog against the pool size
        # would let one long job starve a queued one forever: a busy
        # worker contributes a job to the demand, so a queued job behind
        # it pushes demand above the pool size and grows the pool.
        demand = counts["queued"] + counts["leased"] + counts["running"]
        if demand > len(self._workers) and len(self._workers) < self.max_workers:
            self._pressure_ticks += 1
            if self._pressure_ticks >= self.scale_up_after:
                self._grow()
                self._pressure_ticks = 0
        else:
            self._pressure_ticks = 0
        if demand == 0 and len(self._workers) > self.min_workers:
            self._idle_ticks += 1
            if self._idle_ticks >= self.scale_down_after:
                self._shrink()
                self._idle_ticks = 0
        else:
            self._idle_ticks = 0
