"""The experiment service: a persistent job queue over the scenario runner.

PR 3 made experiments declarative and resumable; this subsystem makes
them *shared*.  A long-running service accepts scenario submissions from
many clients, coalesces duplicate configurations onto one job (the job id
is the scenario's config hash -- the same key as the artefact cache), and
executes jobs on a sharded pool of worker processes, each running the
resumable :class:`~repro.experiments.runner.ExperimentRunner`:

* :mod:`repro.service.base` -- the abstract :class:`JobStore` seam every
  backend implements, plus the :class:`Job` record and state constants.
* :mod:`repro.service.store` -- :class:`SqliteJobStore`, the
  coordinator's authority: lifecycle ``queued -> leased -> running ->
  done/failed/cancelled``, lease expiry + heartbeats so crashed
  workers' jobs are reclaimed, cooperative cancellation
  (``cancel_requested`` observed at checkpoint boundaries), and a
  per-job event log with gapless monotonic sequence numbers -- the
  backbone of live SSE streaming.
* :mod:`repro.service.remote` -- :class:`RemoteJobStore`, the same seam
  over the coordinator's ``/v1`` API: ``repro worker --coordinator
  http://host:port`` runs the identical claim/heartbeat/outcome loop
  from another machine, with artefacts travelling as exact pickle bytes
  through :class:`~repro.experiments.artifacts.HttpArtifactStore`.
* :mod:`repro.service.worker` -- the worker pool: fixed size (``repro
  serve --workers N``) or autoscaled on queue depth (``--min-workers /
  --max-workers``); workers prefer their own shard of the hash space
  and record stage-completed *and* mid-stage progress events (one per
  NSGA-II generation, one per yield Monte Carlo batch) through the
  runner's hook seams.
* :mod:`repro.service.http` -- the stdlib-asyncio HTTP/1.1 core: route
  table, keep-alive, SSE framing, and the thread-pool bridge that keeps
  the event loop clear of blocking SQLite work.
* :mod:`repro.service.api` -- the versioned ``/v1`` API on two front
  ends: :func:`~repro.service.api.make_async_server` (production:
  asyncio, SSE streaming at ``GET /v1/jobs/<id>/events``, the static
  dashboard at ``/``) and :func:`~repro.service.api.make_server` (the
  legacy threaded baseline, same JSON routes).  Unversioned paths stay
  as deprecated aliases.
* :mod:`repro.service.client` -- thin keep-alive client used by ``repro
  submit|status|jobs|cancel|events``: typed
  :class:`~repro.service.client.ServiceError`, transparent pagination,
  ``stream_events`` for SSE.

Invariant: a job executed through the service produces **bit-identical**
artefacts to ``repro run`` of the same scenario -- both are the same
runner writing the same content-addressed cache.

Quick start::

    repro serve --workers 4 --port 8321          # operator
    repro submit fast-smoke --wait               # client (or curl)
    repro events <job-id>                        # live progress stream
"""

from repro.service.api import (
    DEFAULT_PORT,
    AsyncServiceServer,
    ExperimentService,
    make_async_server,
    make_server,
)
from repro.service.base import (
    ACTIVE_STATES,
    JOB_STATES,
    TERMINAL_STATES,
    Job,
)
from repro.service.base import JobStore as BaseJobStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import AsyncHTTPServer, Request, Response, Router
from repro.service.remote import RemoteJobStore, RemoteStoreError
from repro.service.store import JobStore, SqliteJobStore
from repro.service.worker import (
    Autoscaler,
    WorkerPool,
    execute_job,
    remote_worker_loop,
    run_worker,
    worker_loop,
)

__all__ = [
    "Job",
    "JobStore",
    "BaseJobStore",
    "SqliteJobStore",
    "RemoteJobStore",
    "RemoteStoreError",
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "WorkerPool",
    "Autoscaler",
    "worker_loop",
    "remote_worker_loop",
    "run_worker",
    "execute_job",
    "ExperimentService",
    "AsyncServiceServer",
    "AsyncHTTPServer",
    "Request",
    "Response",
    "Router",
    "make_server",
    "make_async_server",
    "DEFAULT_PORT",
    "ServiceClient",
    "ServiceError",
]
