"""The sharded worker pool executing queued experiment jobs.

Each worker is one OS process running :func:`worker_loop`: claim a job
from the :class:`~repro.service.base.JobStore` (preferring its own shard
of the config-hash space), execute it through the resumable
:class:`~repro.experiments.runner.ExperimentRunner`, and record one
progress event per completed flow stage through the runner's
``stage_hook`` seam.  A daemon heartbeat thread extends the job's lease
while the flow computes, so only *dead* workers lose their lease -- and a
reclaimed job resumes from the per-stage cache (plus the circuit stage's
per-generation and the yield stage's per-batch partials), which is what
makes crash recovery cheap and bit-identical.

Workers also carry a :class:`~repro.cancel.CancelToken` polling the job's
``cancel_requested`` flag: a ``DELETE /v1/jobs/<id>`` raised mid-run is
observed at the next checkpoint boundary, the mid-stage partial stays
persisted, and the job parks in ``cancelled`` -- resubmitting resumes it
bit-identically.

Two supervisors sit on top, both used by ``repro serve``
(``multiprocessing`` with the ``spawn`` start method, so workers are
independent interpreters like any production fleet; a crashed worker's
*jobs* are reclaimed by its peers via lease expiry, which is the
recovery model the store is built around):

* :class:`WorkerPool` -- a fixed pool of ``n_workers`` processes
  (deliberately restarts nothing).
* :class:`Autoscaler` -- a queue-depth-driven pool between
  ``min_workers`` and ``max_workers`` (``repro serve --min-workers
  --max-workers``): sustained backlog spawns workers, a sustained empty
  queue retires them (gracefully -- a retiring worker finishes its
  current job first), and the shard count every worker consults is
  re-published on each resize through shared memory.
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
from typing import List, Optional, Tuple, Union

from repro.cancel import CancelToken, JobCancelled
from repro.core.flow import summarise_stage
from repro.experiments.artifacts import (
    ArtifactStore,
    ArtifactTransportError,
    HttpArtifactStore,
    LocalArtifactStore,
)
from repro.experiments.runner import DEFAULT_YIELD_BATCH, ExperimentRunner
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
    "WorkerPool",
    "Autoscaler",
]

_log = logging.getLogger("repro.service.worker")

#: Seconds between queue polls when no job is claimable.
DEFAULT_POLL_INTERVAL = 0.2

#: Exceptions a remote worker treats as "the coordinator is unreachable
#: right now" -- survivable turbulence, not a programming error.
TRANSIENT_STORE_ERRORS = (ArtifactTransportError, RemoteStoreError, ConnectionError)


def _publish_pool_meta(store: base.JobStore, workers: int, shards: int) -> None:
    """Record the live pool size in the store for ``GET /v1/healthz``.

    The API server and the workers are separate processes; the shared
    SQLite ``meta`` table is how external probes learn the pool size.
    Best-effort -- a health gauge must never take down a supervisor.
    """
    try:
        store.set_meta("workers", int(workers))
        store.set_meta("shards", int(shards))
    except Exception:  # noqa: BLE001
        pass


def _heartbeat(
    store: base.JobStore, job_id: str, worker: str, stop: threading.Event, interval: float
) -> None:
    while not stop.wait(interval):
        try:
            alive = store.heartbeat(job_id, worker)
        except Exception:  # noqa: BLE001 - a dropped beat must not kill the thread
            # Transient turbulence (SQLITE_BUSY past the timeout, a
            # network partition on the remote store): keep beating.  If
            # the partition outlives the TTL the *coordinator* expires
            # the lease -- expiry authority is server-side -- and the
            # next successful beat answers False.
            continue
        if not alive:
            # Lease lost (expiry, operator intervention): stop beating;
            # the terminal complete()/fail() update is ownership-checked, so
            # a reclaimed job cannot be double-finished.
            return


def _persist_trace(
    runner: ExperimentRunner, scenario, trace, job_id: str
) -> None:
    """Write the finished trace next to the job's stage artefacts.

    Best-effort: a trace is a diagnostic artefact, so an unwritable cache
    directory (or an unreachable coordinator, for a remote worker whose
    entry pushes over HTTP) must not turn a computed result into a
    failure.
    """
    if trace is None:
        return
    try:
        runner.cache.entry_for(scenario).write_trace(trace.spans)
    except Exception as error:  # noqa: BLE001 - diagnostics only
        _log.warning("job %s: could not persist trace: %s", job_id, error)


def _yield_batch_for(n_samples: int) -> int:
    """Yield Monte Carlo batch size for a service-executed job.

    Service jobs stream their progress, so even a tiny scenario should
    emit a handful of per-batch yield events rather than finishing in one
    silent batch.  The batch size never changes the result (sample math
    is batch-invariant -- see :meth:`YieldAnalysis.run`), only how often
    progress is persisted and streamed.
    """
    return max(1, min(DEFAULT_YIELD_BATCH, n_samples // 4))


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
    and ``None`` when it never started -- the lease was lost between claim
    and start, so another worker owns it and it must not count as
    executed.  The scenario executes exactly like ``repro run``: same
    runner, same content-addressed cache -- so service artefacts are
    bit-identical to CLI artefacts, and two jobs differing only in
    execution fields share cache entries.

    ``cache_dir`` may be a plain path (wrapped in a
    :class:`~repro.experiments.artifacts.LocalArtifactStore`) or any
    :class:`~repro.experiments.artifacts.ArtifactStore` -- a remote
    worker passes an
    :class:`~repro.experiments.artifacts.HttpArtifactStore`, so its
    checkpoints read through from (and publish to) the coordinator.

    ``cancel_poll_interval`` throttles the job-store ``cancel_requested``
    poll the runner's :class:`~repro.cancel.CancelToken` issues at each
    checkpoint boundary (default: a sixth of the lease TTL, capped at one
    second).
    """
    artifacts = (
        cache_dir
        if isinstance(cache_dir, ArtifactStore)
        else LocalArtifactStore(cache_dir)
    )

    def record_event(stage: str, status: str, payload=None) -> None:
        # Events are advisory (they feed the SSE stream); a transient
        # SQLITE_BUSY or a network blip on the remote store must not
        # abort the computation itself.
        try:
            store.record_event(job.id, stage, status, worker, payload)
        except Exception:  # noqa: BLE001 - progress must never break a run
            pass

    try:
        if not store.start(job.id, worker):
            return None  # lost the lease between claim and start
    except TRANSIENT_STORE_ERRORS:
        return None  # coordinator unreachable: the lease will expire
    try:
        scenario = job.resolve_scenario()
    except (KeyError, TypeError, ValueError) as error:
        record_event("submit", "rejected", {"error": str(error)})
        store.fail(job.id, worker, f"unresolvable scenario: {error}")
        return False

    interval = heartbeat_interval if heartbeat_interval is not None else store.lease_ttl / 3.0
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat,
        args=(store, job.id, worker, stop, max(0.05, interval)),
        daemon=True,
    )
    beat.start()
    def should_cancel() -> bool:
        try:
            return store.cancel_requested(job.id)
        except TRANSIENT_STORE_ERRORS:
            # Can't reach the store: assume not cancelled and keep
            # computing -- if the partition persists, lease expiry (the
            # coordinator's authority) parks or requeues the job anyway.
            return False

    cancel = CancelToken(
        should_cancel=should_cancel,
        poll_interval=(
            cancel_poll_interval
            if cancel_poll_interval is not None
            else min(1.0, store.lease_ttl / 6.0)
        ),
    )
    try:
        runner = ExperimentRunner(
            scenario,
            artifacts=artifacts,
            yield_batch_size=_yield_batch_for(scenario.yield_samples),
        )
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
                        stage_hook=lambda stage, artefact: record_event(
                            stage, "completed", summarise_stage(stage, artefact)
                        ),
                        cancel=cancel,
                        progress_hook=lambda stage, payload: record_event(
                            stage, "progress", payload
                        ),
                    )
            finally:
                _persist_trace(runner, scenario, trace, job.id)
        # The terminal updates are ownership-checked: False means the
        # lease expired mid-run and a peer reclaimed (and will finish)
        # the job -- this worker's result must not count as an execution.
        try:
            return True if store.complete(job.id, worker, result.summary()) else None
        except TRANSIENT_STORE_ERRORS:
            # The outcome could not be delivered: the artefacts are
            # persisted, the lease will expire, and whoever reclaims the
            # job completes it instantly from the cache.
            return None
    except JobCancelled:
        # The cancel surfaced at a checkpoint boundary: the mid-stage
        # partial is already persisted, so a resubmission resumes from it.
        record_event("cancel", "observed")
        try:
            return False if store.mark_cancelled(job.id, worker) else None
        except TRANSIENT_STORE_ERRORS:
            return None
    except TRANSIENT_STORE_ERRORS:
        # The store vanished mid-run (not a computation error): leave the
        # job to lease expiry rather than recording a phantom failure.
        return None
    except Exception:
        error_text = traceback.format_exc()
        try:
            return False if store.fail(job.id, worker, error_text) else None
        except TRANSIENT_STORE_ERRORS:
            return None
    finally:
        stop.set()
        beat.join(timeout=5.0)


def run_worker(
    store: base.JobStore,
    artifacts: Union[Path, ArtifactStore],
    worker: str,
    shard_index: int = 0,
    shard_count: int = 1,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_jobs: Optional[int] = None,
    stop_event: Optional[object] = None,
    shard_state: Optional[object] = None,
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
    jobs, and exits.  ``shard_state`` (a shared ``multiprocessing.Value``)
    lets a supervisor re-publish the shard count as the pool resizes --
    the worker re-reads it before every claim, falling back to the static
    ``shard_count`` argument when absent.
    """
    executed = 0
    while max_jobs is None or executed < max_jobs:
        if stop_event is not None and stop_event.is_set():
            break
        shards = shard_state.value if shard_state is not None else shard_count
        try:
            job = store.claim(worker, shard_index=shard_index, shard_count=shards)
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
    shard_index: int = 0,
    shard_count: int = 1,
    lease_ttl: float = 60.0,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_jobs: Optional[int] = None,
    stop_event: Optional[object] = None,
    shard_state: Optional[object] = None,
    cancel_poll_interval: Optional[float] = None,
) -> int:
    """A local worker: SQLite store + local artefact cache (see
    :func:`run_worker` for loop semantics)."""
    store = SqliteJobStore(db_path, lease_ttl=lease_ttl)
    worker = f"worker-{shard_index}@{os.getpid()}"
    return run_worker(
        store,
        LocalArtifactStore(cache_dir),
        worker,
        shard_index=shard_index,
        shard_count=shard_count,
        poll_interval=poll_interval,
        max_jobs=max_jobs,
        stop_event=stop_event,
        shard_state=shard_state,
        cancel_poll_interval=cancel_poll_interval,
    )


def remote_worker_loop(
    coordinator_url: str,
    cache_dir: Path,
    shard_index: int = 0,
    shard_count: int = 1,
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
    worker = worker_name or (
        f"worker-{shard_index}@{socket.gethostname()}:{os.getpid()}"
    )
    return run_worker(
        store,
        artifacts,
        worker,
        shard_index=shard_index,
        shard_count=shard_count,
        poll_interval=poll_interval,
        max_jobs=max_jobs,
        stop_event=stop_event,
        cancel_poll_interval=cancel_poll_interval,
    )


def _spawn_worker(
    context: multiprocessing.context.BaseContext,
    db_path: Path,
    cache_dir: Path,
    index: int,
    shard_count: int,
    lease_ttl: float,
    poll_interval: float,
    stop_event: Optional[object] = None,
    shard_state: Optional[object] = None,
) -> multiprocessing.Process:
    """Start one worker process (shared by both supervisors).

    NOT daemonic: daemonic processes cannot have children, and jobs
    legitimately spawn them (the SPICE evaluator's batch process pool).
    Orderly shutdown is the supervisor's job; a SIGKILLed supervisor
    leaves workers running, which the lease model treats like any other
    crashed peer.
    """
    process = context.Process(
        target=worker_loop,
        args=(db_path, cache_dir, index, shard_count),
        kwargs={
            "lease_ttl": lease_ttl,
            "poll_interval": poll_interval,
            "stop_event": stop_event,
            "shard_state": shard_state,
        },
        name=f"repro-worker-{index}",
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


class WorkerPool:
    """Fixed-size supervisor of ``n_workers`` worker processes."""

    def __init__(
        self,
        db_path: Path,
        cache_dir: Path,
        n_workers: int = 1,
        lease_ttl: float = 60.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.db_path = Path(db_path)
        self.cache_dir = Path(cache_dir)
        self.n_workers = n_workers
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self._processes: List[multiprocessing.Process] = []

    def start(self) -> None:
        """Spawn the worker processes (idempotent while running)."""
        if self._processes:
            return
        # Spawned (not forked) workers import the package afresh -- no
        # inherited locks or RNG state, exactly like separate containers.
        context = multiprocessing.get_context("spawn")
        for index in range(self.n_workers):
            self._processes.append(
                _spawn_worker(
                    context,
                    self.db_path,
                    self.cache_dir,
                    index,
                    self.n_workers,
                    self.lease_ttl,
                    self.poll_interval,
                )
            )
        _publish_pool_meta(
            SqliteJobStore(self.db_path, lease_ttl=self.lease_ttl),
            self.n_workers,
            self.n_workers,
        )

    def alive(self) -> int:
        """How many worker processes are currently alive."""
        return sum(1 for process in self._processes if process.is_alive())

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate all workers and wait for them to exit."""
        _stop_processes(self._processes, timeout)
        self._processes = []
        _publish_pool_meta(SqliteJobStore(self.db_path, lease_ttl=self.lease_ttl), 0, 0)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class Autoscaler:
    """Queue-depth-driven worker pool between ``min_workers`` and ``max_workers``.

    A supervisor thread samples the store every ``supervisor_interval``
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

    Every resize re-publishes the shard count through a shared
    ``multiprocessing.Value`` that workers re-read before each claim, so
    the hash-space sharding follows the pool size.  Sharding is only a
    *preference* (a worker with an empty shard falls back to any queued
    job), which is what makes resizing it mid-flight safe.

    Crashed workers are reaped out of the pool each tick -- a corpse
    must not count toward the size the backlog is compared against --
    and replaced at least up to ``min_workers`` (their abandoned jobs
    come back through lease expiry as usual).
    """

    def __init__(
        self,
        db_path: Path,
        cache_dir: Path,
        min_workers: int = 1,
        max_workers: int = 4,
        lease_ttl: float = 60.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        supervisor_interval: float = 0.5,
        scale_up_after: int = 2,
        scale_down_after: int = 10,
    ) -> None:
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
        self._context = multiprocessing.get_context("spawn")
        #: Shard count shared with every worker ("i" = C int); re-published
        #: under its lock on every resize.
        self._shard_state = self._context.Value("i", min_workers)
        #: Active workers as (process, stop_event, shard_index) records.
        #: The shard index is tracked so a replacement spawned after a
        #: crashed worker was reaped reuses the freed index instead of
        #: duplicating a survivor's.
        self._workers: List[Tuple[multiprocessing.Process, object, int]] = []
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
        return sum(1 for process, _, _ in self._workers if process.is_alive())

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
        for _, stop_event, _ in self._workers:
            stop_event.set()
        _stop_processes(
            [process for process, _, _ in self._workers] + self._retiring, timeout
        )
        self._workers = []
        self._retiring = []
        _publish_pool_meta(self._store, 0, 0)

    def __enter__(self) -> "Autoscaler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- scaling internals ---------------------------------------------------------------

    def _grow(self) -> None:
        # The smallest free shard index: replacements for reaped crashed
        # workers reuse the freed slot, keeping indices 0..size-1 covered
        # (a duplicated index would leave one shard with no preferred
        # owner for the life of the pool).
        used = {index for _, _, index in self._workers}
        index = next(i for i in range(len(self._workers) + 1) if i not in used)
        stop_event = self._context.Event()
        process = _spawn_worker(
            self._context,
            self.db_path,
            self.cache_dir,
            index,
            len(self._workers) + 1,
            self.lease_ttl,
            self.poll_interval,
            stop_event=stop_event,
            shard_state=self._shard_state,
        )
        self._workers.append((process, stop_event, index))
        self._publish_shard_count()

    def _shrink(self) -> None:
        # Retire the highest shard index so the remaining pool keeps
        # covering the contiguous 0..size-1 shard range.
        position = max(
            range(len(self._workers)), key=lambda i: self._workers[i][2]
        )
        process, stop_event, _ = self._workers.pop(position)
        stop_event.set()  # graceful: the worker finishes its current job
        self._retiring.append(process)
        self._publish_shard_count()

    def _publish_shard_count(self) -> None:
        with self._shard_state.get_lock():
            self._shard_state.value = max(1, len(self._workers))
        _publish_pool_meta(self._store, len(self._workers), max(1, len(self._workers)))

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
        for process, stop_event, index in self._workers:
            if process.is_alive():
                alive.append((process, stop_event, index))
            else:
                process.join(timeout=0)
        if len(alive) != len(self._workers):
            self._workers = alive
            self._publish_shard_count()

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
        # Unlike the fixed WorkerPool (which deliberately restarts
        # nothing), the autoscaler's contract is a pool *size*: crashed
        # workers are replaced at least up to the floor.
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
