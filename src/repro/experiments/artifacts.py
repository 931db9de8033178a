"""The artifact-store seam: local disk or coordinator-backed over HTTP.

PR 8 puts the content-addressed stage cache behind an interface so the
*same* :class:`~repro.experiments.runner.ExperimentRunner` can run
against either backend:

* :class:`LocalArtifactStore` -- today's ``.repro-cache/`` directory
  (it *is* :class:`~repro.experiments.cache.ArtefactCache`, under the
  seam's name).
* :class:`HttpArtifactStore` -- the coordinator's artefact tree spoken
  over ``GET/PUT /v1/artifacts/<config_hash>/<name>``, with the local
  disk cache as a read-through cache.  Stage pickles are immutable once
  written (content-addressed by config hash), so a local copy never
  goes stale; mid-stage ``*.partial.pkl`` checkpoints are mutable and
  therefore fetched remote-first.

Byte identity across the seam: artefacts travel as the exact pickle
bytes the runner produced -- the store never re-serialises -- so a stage
fetched from the coordinator is bit-identical to one computed locally.

Downloads are written atomically (temp file + :func:`os.replace`,
mirroring the cache's write rule) and the transport verifies the
declared ``Content-Length``, so a connection dropped mid-download can
never leave a truncated artefact in the local cache.
"""

from __future__ import annotations

import abc
import http.client
import logging
import os
import pickle
import re
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cache import STAGES, TRACE_FILE, ArtefactCache, CacheEntry
from repro.experiments.config import ScenarioConfig
from repro.obs import metrics as obs_metrics

__all__ = [
    "ARTIFACT_NAME_RE",
    "ArtifactStore",
    "ArtifactTransportError",
    "HttpArtifactStore",
    "HttpTransport",
    "LocalArtifactStore",
    "artifact_names",
]

#: Every file name the artifact protocol may move: the four stage
#: pickles, their mid-stage partials, the two JSON metadata files and
#: the per-job span trace.
ARTIFACT_NAME_RE = re.compile(
    r"^(?:(?:circuit|corners|system|yield|verification)(?:\.partial)?\.pkl"
    r"|(?:scenario|report)\.json|trace\.jsonl)$"
)


def artifact_names() -> List[str]:
    """All transferable artifact file names (for docs and validation)."""
    names = [f"{stage}.pkl" for stage in STAGES]
    names += [f"{stage}.partial.pkl" for stage in STAGES]
    names += ["scenario.json", "report.json", TRACE_FILE]
    return names


_log = logging.getLogger("repro.service.artifacts")

_registry = obs_metrics.get_registry()
#: Bytes moved over the artifact protocol, by direction (``up``/``down``).
ARTIFACT_BYTES = _registry.counter(
    "repro_artifact_bytes_total",
    "Artifact bytes transferred over the /v1/artifacts protocol",
    ("direction",),
)
#: Transport-level retries the bounded retry loop performed.
ARTIFACT_RETRIES = _registry.counter(
    "repro_artifact_retries_total",
    "Artifact transport retries after a transient network failure",
)
#: Previously-silent best-effort push/delete failures, now counted.
ARTIFACT_PUSH_FAILURES = _registry.counter(
    "repro_artifact_push_failures_total",
    "Best-effort artifact uploads/deletes that failed after retries",
    ("name",),
)


class ArtifactTransportError(OSError):
    """A network-level artifact transfer failure (after retries)."""


class ArtifactStore(abc.ABC):
    """Where stage artefacts live: a directory of entries keyed by the
    scenario's config hash.

    Entries expose the :class:`~repro.experiments.cache.CacheEntry`
    surface (``has/load/store``, ``load_partial/store_partial/
    clear_partial``, scenario and report metadata) -- the duck type the
    runner checkpoints through.
    """

    #: Local directory backing (or read-through caching) the entries.
    root: Path

    @abc.abstractmethod
    def entry(self, config_hash: str):
        """The entry of one config hash (created lazily on store)."""

    def entry_for(self, scenario: ScenarioConfig):
        """The entry addressed by ``scenario.config_hash()``."""
        return self.entry(scenario.config_hash())


class LocalArtifactStore(ArtefactCache, ArtifactStore):
    """Today's on-disk cache, under the seam's name.

    :class:`~repro.experiments.cache.ArtefactCache` already satisfies
    the interface; this subclass only gives the local backend a name
    symmetric with :class:`HttpArtifactStore`.
    """


#: How a *reused* keep-alive link fails when the server closed it while
#: idle (its keep-alive timeout) before reading the next request: no
#: response byte arrives, so no handler ran and the request is resent
#: once on a fresh connection.
_STALE_LINK_ERRORS = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class HttpTransport:
    """Minimal stdlib HTTP/1.1 byte transport: ``request() -> (status, body)``.

    Shared by :class:`HttpArtifactStore`,
    :class:`~repro.service.remote.RemoteJobStore` and
    :class:`~repro.service.client.ServiceClient`; the fault-injection
    harness wraps this interface to drop/delay/duplicate calls.  Each
    thread keeps one keep-alive connection to the server (a worker's
    heartbeat thread has its own), re-opened in a forked child.  Reads
    the full body and verifies it against the declared
    ``Content-Length``, so a connection cut mid-response surfaces as
    :class:`ArtifactTransportError` instead of truncated bytes.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        url = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._prefix = url.path
        self._local = threading.local()

    @property
    def last_response_headers(self) -> Dict[str, str]:
        """Response headers of the calling thread's most recent exchange
        (lower-cased keys).  The trace-context propagation on
        ``/v1/claim`` reads the coordinator's ``X-Repro-Trace`` header
        from here; a concurrent heartbeat thread cannot overwrite it."""
        return getattr(self._local, "headers", {})

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's keep-alive connection (lazily connected)."""
        cached = getattr(self._local, "connection", None)
        if cached is None or cached[0] != os.getpid():
            connection = self._connection_class(self._netloc, timeout=self.timeout)
            cached = self._local.connection = (os.getpid(), connection)
        return cached[1]

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, body_bytes)``.

        HTTP error statuses are *returned*, not raised -- the caller
        decides what a 404 means.  Network-level failures (refused,
        reset, timeout, short read) raise :class:`ArtifactTransportError`;
        the only one retried here is a reused link the server had already
        closed (see :data:`_STALE_LINK_ERRORS`), resent once.
        """
        connection = self._connection()
        reused = connection.sock is not None
        url = self._prefix + path
        try:
            try:
                connection.request(method, url, body, headers or {})
                response = connection.getresponse()
            except _STALE_LINK_ERRORS:
                if not reused:
                    raise
                connection.close()
                connection.request(method, url, body, headers or {})
                response = connection.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError) as error:
            connection.close()
            raise ArtifactTransportError(f"{method} {path}: {error}") from error
        declared = response.getheader("Content-Length")
        if declared is not None and len(payload) != int(declared):
            connection.close()
            raise ArtifactTransportError(
                f"short read: got {len(payload)} of {declared} bytes for {method} {path}"
            )
        self._local.headers = {key.lower(): value for key, value in response.getheaders()}
        return response.status, payload


class HttpArtifactStore(ArtifactStore):
    """Coordinator-backed artifact store with a local read-through cache.

    Parameters
    ----------
    base_url:
        The coordinator, e.g. ``http://127.0.0.1:8321``.
    cache_dir:
        Local directory used as the read-through cache (and as the
        runner's working tree).  Defaults to the standard cache root.
    transport:
        Injectable transport (the fault harness passes a flaky one).
    retries / retry_delay:
        Bounded retry policy for transient transport failures.  Every
        protocol operation is idempotent -- GETs are pure, PUTs write
        the same content-addressed bytes atomically -- so retrying (or a
        network-level duplicate) is always safe.
    """

    def __init__(
        self,
        base_url: str,
        cache_dir: Optional[os.PathLike] = None,
        transport: Optional[HttpTransport] = None,
        retries: int = 3,
        retry_delay: float = 0.05,
    ) -> None:
        self.local = LocalArtifactStore(cache_dir)
        self.root = self.local.root
        self.transport = transport or HttpTransport(base_url)
        self.retries = max(1, int(retries))
        self.retry_delay = float(retry_delay)

    def entry(self, config_hash: str) -> "HttpArtifactEntry":
        if not config_hash:
            raise ValueError("config_hash must be non-empty")
        return HttpArtifactEntry(self, config_hash, self.local.entry(config_hash))

    # -- wire operations (shared by every entry) -----------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One artifact exchange with bounded retries on transport loss."""
        last_error: Optional[ArtifactTransportError] = None
        for attempt in range(self.retries):
            try:
                return self.transport.request(
                    method, path, body, {"Content-Type": "application/octet-stream"}
                )
            except ArtifactTransportError as error:
                last_error = error
                if attempt + 1 < self.retries:
                    ARTIFACT_RETRIES.inc()
                    time.sleep(self.retry_delay * (attempt + 1))
        assert last_error is not None
        raise last_error

    def fetch(self, config_hash: str, name: str) -> Optional[bytes]:
        """Download one artifact's bytes, or ``None`` when absent (404)."""
        status, payload = self._request("GET", f"/v1/artifacts/{config_hash}/{name}")
        if status == 404:
            return None
        if status != 200:
            raise ArtifactTransportError(
                f"GET /v1/artifacts/{config_hash}/{name} -> HTTP {status}"
            )
        ARTIFACT_BYTES.inc(len(payload), direction="down")
        return payload

    def push(self, config_hash: str, name: str, payload: bytes) -> None:
        """Upload one artifact's exact bytes to the coordinator."""
        status, _ = self._request(
            "PUT", f"/v1/artifacts/{config_hash}/{name}", payload
        )
        if status not in (200, 201, 204):
            raise ArtifactTransportError(
                f"PUT /v1/artifacts/{config_hash}/{name} -> HTTP {status}"
            )
        ARTIFACT_BYTES.inc(len(payload), direction="up")

    def delete(self, config_hash: str, name: str) -> None:
        """Remove one artifact on the coordinator (absent is fine)."""
        status, _ = self._request("DELETE", f"/v1/artifacts/{config_hash}/{name}")
        if status not in (200, 204, 404):
            raise ArtifactTransportError(
                f"DELETE /v1/artifacts/{config_hash}/{name} -> HTTP {status}"
            )


class HttpArtifactEntry:
    """One config hash's artefacts, coordinator-authoritative.

    Implements the :class:`~repro.experiments.cache.CacheEntry` duck
    type.  Final stage pickles are immutable (content-addressed), so the
    local copy is trusted once present; mid-stage partials are mutable
    and read remote-first so a reclaiming worker on another host resumes
    from the *latest* checkpoint, not a stale local one.
    """

    def __init__(
        self, remote: HttpArtifactStore, config_hash: str, local: CacheEntry
    ) -> None:
        # Named ``remote`` (not ``store``): an instance attribute called
        # ``store`` would shadow the store() method of the entry protocol.
        self.remote = remote
        self.config_hash = config_hash
        self.local = local
        #: The local read-through directory (same layout as CacheEntry).
        self.directory = local.directory

    # -- read-through plumbing -----------------------------------------------------------

    def _pull(self, name: str) -> bool:
        """Fetch one artifact into the local cache; ``True`` if it exists.

        The download lands in a temp file and is renamed into place
        (:meth:`CacheEntry._atomic_write`), mirroring the cache's atomic
        write rule: a crash or short read never leaves a truncated file.
        """
        payload = self.remote.fetch(self.config_hash, name)
        if payload is None:
            return False
        self.directory.mkdir(parents=True, exist_ok=True)
        CacheEntry._atomic_write(self.directory / name, payload)
        return True

    def _push_file(self, name: str) -> None:
        """Upload the local file's exact bytes (no re-serialisation)."""
        payload = (self.directory / name).read_bytes()
        self.remote.push(self.config_hash, name, payload)

    def _push_best_effort(self, name: str) -> None:
        """Upload where failure only costs a recompute on reclaim.

        Never silent: every swallowed transport failure is counted
        (``repro_artifact_push_failures_total``) and logged with the
        job id so a flaky coordinator link shows up in metrics instead
        of vanishing.
        """
        try:
            self._push_file(name)
        except ArtifactTransportError as error:
            ARTIFACT_PUSH_FAILURES.inc(name=name)
            _log.warning(
                "job %s: best-effort push of %s failed: %s",
                self.config_hash,
                name,
                error,
            )

    # -- artefacts -----------------------------------------------------------------------

    def has(self, stage: str) -> bool:
        """Whether the stage artefact exists locally or on the coordinator."""
        if self.local.has(stage):
            return True
        return self._pull(f"{stage}.pkl")

    def load(self, stage: str) -> Any:
        """The stage artefact, fetched through the local cache."""
        if not self.local.has(stage):
            if not self._pull(f"{stage}.pkl"):
                raise FileNotFoundError(
                    f"no artefact for stage {stage!r} under {self.config_hash}"
                    f" locally or on the coordinator"
                )
        return self.local.load(stage)

    def store(self, stage: str, artefact: Any) -> Path:
        """Checkpoint locally, then publish the identical bytes."""
        path = self.local.store(stage, artefact)
        self._push_file(f"{stage}.pkl")
        return path

    def stages_present(self) -> List[str]:
        """Stages available locally or on the coordinator, in flow order."""
        return [stage for stage in STAGES if self.has(stage)]

    # -- mid-stage (partial) checkpoints -------------------------------------------------

    def load_partial(self, stage: str) -> Optional[Any]:
        """The latest mid-stage checkpoint: coordinator-first.

        The coordinator's copy is authoritative while reachable: another
        worker may have advanced it, and a definitive 404 means it was
        *cleared* (stage finished or restarted) -- a stale local copy is
        dropped rather than resurrected.  Only an **unreachable**
        coordinator falls back to the local partial: resuming from an
        older checkpoint replays the missing batches deterministically,
        so the final artefact stays bit-identical either way.
        """
        try:
            if self._pull(f"{stage}.partial.pkl"):
                return self.local.load_partial(stage)
            self.local.clear_partial(stage)  # authoritative absence
            return None
        except ArtifactTransportError:
            return self.local.load_partial(stage)

    def store_partial(self, stage: str, state: Any) -> Path:
        """Checkpoint locally, then publish (best effort -- a partial
        that fails to upload only costs recomputation on reclaim)."""
        path = self.local.store_partial(stage, state)
        self._push_best_effort(f"{stage}.partial.pkl")
        return path

    def clear_partial(self, stage: str) -> None:
        """Drop the checkpoint locally and on the coordinator."""
        self.local.clear_partial(stage)
        try:
            self.remote.delete(self.config_hash, f"{stage}.partial.pkl")
        except ArtifactTransportError as error:
            ARTIFACT_PUSH_FAILURES.inc(name=f"{stage}.partial.pkl")
            _log.warning(
                "job %s: best-effort delete of %s.partial.pkl failed: %s",
                self.config_hash,
                stage,
                error,
            )

    # -- metadata ------------------------------------------------------------------------

    def write_scenario(self, scenario: ScenarioConfig) -> Path:
        path = self.local.write_scenario(scenario)
        self._push_best_effort("scenario.json")
        return path

    def read_scenario(self) -> Optional[ScenarioConfig]:
        if not (self.directory / "scenario.json").is_file():
            try:
                self._pull("scenario.json")
            except ArtifactTransportError:
                pass
        return self.local.read_scenario()

    def write_report_summary(self, summary: Dict[str, Any]) -> Path:
        path = self.local.write_report_summary(summary)
        self._push_file("report.json")
        return path

    def read_report_summary(self) -> Optional[Dict[str, Any]]:
        if not (self.directory / "report.json").is_file():
            try:
                self._pull("report.json")
            except ArtifactTransportError:
                pass
        return self.local.read_report_summary()

    def write_trace(self, records: List[Dict[str, Any]]) -> Path:
        """Persist the span trace locally, then ship it to the coordinator.

        Best effort like the partials: a trace that fails to upload
        costs visibility, never correctness.
        """
        path = self.local.write_trace(records)
        self._push_best_effort(TRACE_FILE)
        return path

    def read_trace(self) -> Optional[List[Dict[str, Any]]]:
        if not (self.directory / TRACE_FILE).is_file():
            try:
                self._pull(TRACE_FILE)
            except ArtifactTransportError:
                pass
        return self.local.read_trace()
