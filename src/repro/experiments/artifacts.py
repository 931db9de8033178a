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
  goes stale, and each is pushed as it is stored; mid-stage
  ``*.partial.pkl`` checkpoints are mutable and therefore fetched
  remote-first.

A partial is only ever read by a worker reclaiming the job, which has
waited at least one lease TTL, so a remote worker does not push it on
every store: the store keeps the name *unpublished* and
:meth:`HttpArtifactStore.publish` -- called by the job's heartbeat after
each beat the coordinator answers alive, and before its terminal
outcome -- pushes the newest local bytes.  A crash therefore loses at
most one heartbeat interval of mid-stage progress, and the resume stays
bit-identical.

Byte identity across the seam: artefacts travel as the exact pickle
bytes the runner produced -- the store never re-serialises -- so a stage
fetched from the coordinator is bit-identical to one computed locally.

Downloads go through the cache's one write rule
(:meth:`~repro.experiments.cache.CacheEntry._atomic_write`: temp file,
unlink the old file, rename into the free name) and the transport
verifies the declared ``Content-Length``, so a connection dropped
mid-download or a killed process never leaves a truncated artefact in
the local cache: a reader sees the old bytes, no file (a recompute), or
the new bytes.  Power-loss durability is not claimed (no ``fsync``).
"""

from __future__ import annotations

import abc
import http.client
import json
import logging
import os
import pickle
import re
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

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

    def publish(self, config_hash: str) -> None:
        """Publish the hash's checkpoints kept back from the coordinator
        (a local store has no coordinator: nothing to do)."""


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
        # Partial checkpoints per config hash, shared by every entry of
        # the hash (the runner and the trace writer each make their own):
        # names stored locally but not yet pushed, and names this store
        # pushed.  ``_lock`` guards the two maps and is never held over
        # the wire; ``_wire`` serialises partial PUTs and DELETEs, so a
        # DELETE waits out a PUT of the name already in flight.
        self._unpublished: Dict[str, Set[str]] = {}
        self._published: Dict[str, Set[str]] = {}
        self._lock = threading.Lock()
        self._wire = threading.Lock()

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

    def names(self, config_hash: str) -> Set[str]:
        """The artifact names the coordinator holds for one hash (one GET)."""
        status, payload = self._request("GET", f"/v1/artifacts/{config_hash}")
        names = _listing(status, payload)
        if names is None:
            raise ArtifactTransportError(f"GET /v1/artifacts/{config_hash} -> HTTP {status}")
        return names

    def push(self, config_hash: str, name: str, payload: bytes) -> Optional[Set[str]]:
        """Upload one artifact's exact bytes to the coordinator.

        Returns the hash's names after the write, which the coordinator
        answers a PUT with (``None`` if the answer carries none).
        """
        status, answer = self._request(
            "PUT", f"/v1/artifacts/{config_hash}/{name}", payload
        )
        if status not in (200, 201, 204):
            raise ArtifactTransportError(
                f"PUT /v1/artifacts/{config_hash}/{name} -> HTTP {status}"
            )
        ARTIFACT_BYTES.inc(len(payload), direction="up")
        return _listing(status, answer)

    def delete(self, config_hash: str, name: str) -> None:
        """Remove one artifact on the coordinator (absent is fine)."""
        status, _ = self._request("DELETE", f"/v1/artifacts/{config_hash}/{name}")
        if status not in (200, 204, 404):
            raise ArtifactTransportError(
                f"DELETE /v1/artifacts/{config_hash}/{name} -> HTTP {status}"
            )

    # -- partial checkpoints, published on the heartbeat ---------------------------------

    def _mark_unpublished(self, config_hash: str, name: str) -> None:
        with self._lock:
            self._unpublished.setdefault(config_hash, set()).add(name)

    def publish(self, config_hash: str) -> None:
        """Push the newest local bytes of each unpublished partial.

        Best effort: a failed push is counted and logged, and the name
        stays unpublished for the next call.  A partial cleared since it
        was stored has no local file and is skipped.
        """
        with self._wire:
            with self._lock:
                names = sorted(self._unpublished.pop(config_hash, ()))
            directory = self.local.entry(config_hash).directory
            for name in names:
                try:
                    payload = (directory / name).read_bytes()
                except FileNotFoundError:
                    continue
                try:
                    self.push(config_hash, name, payload)
                except OSError as error:
                    self._mark_unpublished(config_hash, name)
                    _report_failure(config_hash, name, "publish", error)
                    continue
                with self._lock:
                    self._published.setdefault(config_hash, set()).add(name)

    def withdraw(self, config_hash: str, name: str, listed: bool) -> None:
        """Drop a cleared partial from publication and from the coordinator.

        The DELETE is sent only when the coordinator holds the name: this
        store published it, or the caller's listing shows it (``listed``).
        It runs after any PUT of the name already in flight.
        """
        with self._wire:
            with self._lock:
                _discard(self._unpublished, config_hash, name)
                held = listed or name in self._published.get(config_hash, ())
            if not held:
                return
            try:
                self.delete(config_hash, name)
            except ArtifactTransportError as error:
                _report_failure(config_hash, name, "delete", error)
                return
            with self._lock:
                _discard(self._published, config_hash, name)


def _discard(names: Dict[str, Set[str]], config_hash: str, name: str) -> None:
    """Remove one name of a hash, dropping the hash once it has none."""
    held = names.get(config_hash)
    if held is not None:
        held.discard(name)
        if not held:
            del names[config_hash]


def _report_failure(config_hash: str, name: str, action: str, error: Exception) -> None:
    """Count and log a best-effort upload or delete that failed: a flaky
    coordinator link shows up in metrics instead of vanishing."""
    ARTIFACT_PUSH_FAILURES.inc(name=name)
    _log.warning("job %s: best-effort %s of %s failed: %s", config_hash, action, name, error)


def _listing(status: int, payload: bytes) -> Optional[Set[str]]:
    """The ``names`` of a listing answer, or ``None`` if it is not one."""
    try:
        names = json.loads(payload.decode("utf-8"))["names"] if status == 200 else None
    except (ValueError, KeyError, TypeError):
        return None
    return set(names) if isinstance(names, list) else None


class HttpArtifactEntry:
    """One config hash's artefacts, coordinator-authoritative.

    Implements the :class:`~repro.experiments.cache.CacheEntry` duck
    type.  Final stage pickles are immutable (content-addressed), so the
    local copy is trusted once present; mid-stage partials are mutable
    and read remote-first so a reclaiming worker on another host resumes
    from the *latest* checkpoint, not a stale local one.

    The entry learns what the coordinator holds from the answer to each
    of its pushes, or else from one listing (``GET
    /v1/artifacts/<hash>``), and answers ``has`` / ``load_partial``
    misses from it instead of probing name by name.  The entry belongs
    to the job's lease holder, the hash's only writer, so the listing
    only changes through this worker's own writes; a name the entry
    wrote itself is served from its local copy.

    Stage pickles and the metadata files are pushed as they are
    written.  Partials are not: ``store_partial`` writes the local copy
    and leaves its publication to :meth:`HttpArtifactStore.publish`,
    and ``clear_partial`` deletes the coordinator's copy only where
    there is one.
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
        #: The coordinator's names for the hash: ``None`` until listed.
        self._listing: Optional[Set[str]] = None
        #: Names this entry wrote; their local copy is the latest.
        self._written: Set[str] = set()

    # -- read-through plumbing -----------------------------------------------------------

    def _on_coordinator(self, name: str) -> bool:
        """Whether the coordinator holds ``name``, from the one listing.

        Raises :class:`ArtifactTransportError` when the coordinator is
        unreachable, like a per-name fetch would.
        """
        if self._listing is None:
            self._listing = self.remote.names(self.config_hash)
        return name in self._listing

    def _pull(self, name: str) -> bool:
        """Fetch one artifact into the local cache; ``True`` if it exists.

        The download goes through the cache's write rule
        (:meth:`CacheEntry._atomic_write`): a crash or short read never
        leaves a truncated file.
        """
        payload = self.remote.fetch(self.config_hash, name)
        if payload is None:
            return False
        self.directory.mkdir(parents=True, exist_ok=True)
        CacheEntry._atomic_write(self.directory / name, payload)
        return True

    def _push_file(self, name: str) -> None:
        """Upload the local file's exact bytes (no re-serialisation)."""
        self._written.add(name)
        payload = (self.directory / name).read_bytes()
        listing = self.remote.push(self.config_hash, name, payload)
        if listing is not None:
            self._listing = listing

    def _push_best_effort(self, name: str) -> None:
        """Upload where failure only costs visibility or a recompute.

        Never silent: every swallowed transport failure is counted
        (``repro_artifact_push_failures_total``) and logged with the
        job id.
        """
        try:
            self._push_file(name)
        except ArtifactTransportError as error:
            _report_failure(self.config_hash, name, "push", error)

    # -- artefacts -----------------------------------------------------------------------

    def has(self, stage: str) -> bool:
        """Whether the stage artefact exists locally or on the coordinator."""
        if self.local.has(stage):
            return True
        return self._on_coordinator(f"{stage}.pkl") and self._pull(f"{stage}.pkl")

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
        so the final artefact stays bit-identical either way.  A partial
        this entry wrote itself is read from its local copy: no other
        writer can have advanced it.
        """
        name = f"{stage}.partial.pkl"
        if name in self._written:
            return self.local.load_partial(stage)
        try:
            if self._on_coordinator(name) and self._pull(name):
                return self.local.load_partial(stage)
            self.local.clear_partial(stage)  # authoritative absence
            return None
        except ArtifactTransportError:
            return self.local.load_partial(stage)

    def store_partial(self, stage: str, state: Any) -> Path:
        """Checkpoint locally and mark the partial unpublished.

        No exchange: :meth:`HttpArtifactStore.publish` pushes the newest
        local bytes on the job's next live heartbeat or before its
        terminal outcome.  A crash in between costs a reclaimer at most
        one heartbeat interval of recomputation, bit-identically.
        """
        name = f"{stage}.partial.pkl"
        path = self.local.store_partial(stage, state)
        self._written.add(name)
        self.remote._mark_unpublished(self.config_hash, name)
        return path

    def clear_partial(self, stage: str) -> None:
        """Drop the checkpoint locally, and on the coordinator if it
        holds the name (best effort, counted and logged on failure)."""
        name = f"{stage}.partial.pkl"
        self.local.clear_partial(stage)
        self._written.discard(name)
        # An entry that never listed the hash cannot rule the name out.
        listed = self._listing is None or name in self._listing
        self.remote.withdraw(self.config_hash, name, listed)
        if self._listing is not None:
            self._listing.discard(name)

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
