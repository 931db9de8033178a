"""Content-addressed disk cache for flow artefacts.

Layout (one directory per config hash)::

    <cache root>/
        <config_hash>/
            scenario.json       # human-readable scenario that produced it
            circuit.pkl         # CircuitStageResult (front + combined model)
            system.pkl          # SystemStageResult (front + selected design)
            yield.pkl           # YieldReport
            yield.partial.pkl   # mid-stage checkpoint of an interrupted yield stage
            verification.pkl    # VerificationReport (optional stage)
            report.json         # headline summary of the last completed run

The cache root defaults to ``.repro-cache`` under the current working
directory and can be overridden per call or globally through the
``REPRO_CACHE_DIR`` environment variable.

Artefacts are stored with :mod:`pickle` (they are numpy-heavy Python
objects; pickling round-trips float bits exactly, which is what makes a
resumed run bit-identical to a cold one).

Write rule (:meth:`CacheEntry._atomic_write`, the one writer of every
file here, of the coordinator's artefact tree and of the worker's
downloads): the payload goes to a temporary file in the same directory,
the old file is unlinked, and the temporary file is renamed into the
now-free name.  It never renames onto a live file, which on ext4 forces
a data flush of tens of milliseconds per checkpoint.  Crash model: a
reader, or a process killed at any instant, sees the old bytes, no file,
or the new bytes -- never a truncated file -- and "no file" reads as
absent everywhere (``has`` is false, ``load_partial`` and the ``read_*``
helpers return ``None``), which costs a recompute of the same bytes.
Nothing is ``fsync``'d: surviving power loss is not claimed.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.config import ScenarioConfig
from repro.obs.trace import spans_from_jsonl, spans_to_jsonl

__all__ = ["STAGES", "TRACE_FILE", "ArtefactCache", "CacheEntry", "default_cache_dir"]

#: Stage checkpoint names, in flow order.  ``corners`` runs right after the
#: circuit stage when the scenario names a corner set and is skipped
#: otherwise; like ``verification`` it is an optional artefact.
STAGES = ("circuit", "corners", "system", "yield", "verification")

#: The per-job span trace, one JSON span per line (see :mod:`repro.obs.trace`).
TRACE_FILE = "trace.jsonl"

#: Environment variable overriding the default cache root.
_CACHE_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the cwd."""
    return Path(os.environ.get(_CACHE_ENV) or ".repro-cache")


class CacheEntry:
    """All artefacts of one config hash (one directory)."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def _stage_path(self, stage: str) -> Path:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        return self.directory / f"{stage}.pkl"

    # -- artefacts ----------------------------------------------------------------------

    def has(self, stage: str) -> bool:
        """Whether a checkpoint for ``stage`` exists."""
        return self._stage_path(stage).is_file()

    def load(self, stage: str) -> Any:
        """Unpickle the checkpointed artefact of ``stage``.

        Raises
        ------
        FileNotFoundError
            If the stage has not been checkpointed.
        """
        path = self._stage_path(stage)
        if not path.is_file():
            raise FileNotFoundError(f"no cached artefact for stage {stage!r} in {self.directory}")
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def store(self, stage: str, artefact: Any) -> Path:
        """Atomically checkpoint ``artefact`` as the result of ``stage``."""
        path = self._stage_path(stage)
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(artefact, protocol=pickle.HIGHEST_PROTOCOL)
        self._atomic_write(path, payload)
        return path

    def stages_present(self) -> List[str]:
        """Checkpointed stages, in flow order."""
        return [stage for stage in STAGES if self.has(stage)]

    # -- mid-stage (partial) checkpoints ------------------------------------------------

    def _partial_path(self, stage: str) -> Path:
        self._stage_path(stage)  # validates the stage name
        return self.directory / f"{stage}.partial.pkl"

    def load_partial(self, stage: str) -> Optional[Any]:
        """The mid-stage checkpoint of ``stage``, or ``None`` when absent.

        A partial checkpoint holds the work an *interrupted* stage already
        completed (e.g. the yield stage's evaluated Monte Carlo batches) so
        a rerun resumes mid-stage instead of restarting it.  A checkpoint
        that cannot be unpickled (truncated by power loss, different
        package version) is treated as absent.
        """
        path = self._partial_path(stage)
        if not path.is_file():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            return None

    def store_partial(self, stage: str, state: Any) -> Path:
        """Atomically persist the mid-stage checkpoint of ``stage``."""
        path = self._partial_path(stage)
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        self._atomic_write(path, payload)
        return path

    def clear_partial(self, stage: str) -> None:
        """Drop the mid-stage checkpoint (the stage completed or restarted)."""
        try:
            os.unlink(self._partial_path(stage))
        except FileNotFoundError:
            pass

    # -- metadata -----------------------------------------------------------------------

    def write_scenario(self, scenario: ScenarioConfig) -> Path:
        """Record the scenario that owns this entry (human-readable JSON)."""
        return self._write_json("scenario.json", scenario.as_dict())

    def read_scenario(self) -> Optional[ScenarioConfig]:
        """The recorded scenario, or ``None`` when it cannot be recovered.

        ``scenario.json`` is informational metadata -- the config hash in
        the directory name is what keys the cache -- so an entry written
        by a different package version (unknown or missing fields, invalid
        values) yields ``None`` rather than an exception.
        """
        try:
            data = self._read_json("scenario.json")
        except json.JSONDecodeError:
            return None
        if data is None:
            return None
        try:
            return ScenarioConfig.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    def write_report_summary(self, summary: Dict[str, Any]) -> Path:
        """Record the headline numbers of the last completed run."""
        return self._write_json("report.json", summary)

    def read_report_summary(self) -> Optional[Dict[str, Any]]:
        """The last recorded run summary, or ``None``."""
        return self._read_json("report.json")

    def write_trace(self, records: List[Dict[str, Any]]) -> Path:
        """Persist the run's span records as ``trace.jsonl`` (atomically).

        The trace is observational metadata -- like ``report.json`` it
        never participates in resume decisions or artefact bytes.
        """
        path = self.directory / TRACE_FILE
        self.directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, spans_to_jsonl(records).encode("utf-8"))
        return path

    def read_trace(self) -> Optional[List[Dict[str, Any]]]:
        """The recorded span trace, or ``None`` when absent/unreadable."""
        path = self.directory / TRACE_FILE
        if not path.is_file():
            return None
        try:
            return spans_from_jsonl(path.read_text(encoding="utf-8"))
        except OSError:
            return None

    # -- low level ----------------------------------------------------------------------

    def _write_json(self, filename: str, data: Dict[str, Any]) -> Path:
        path = self.directory / filename
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(data, indent=2, sort_keys=True).encode("utf-8")
        self._atomic_write(path, payload)
        return path

    def _read_json(self, filename: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.directory / filename, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        """Write ``payload`` to ``path`` by the module's write rule.

        Temp file, unlink the old ``path``, rename into the free name: a
        reader sees the old bytes, no file, or the new bytes, and the
        rename never lands on a live file (ext4 flushes the data before
        such a rename).  No ``fsync``.  The temp file is removed on any
        error.
        """
        handle, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(payload)
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            os.rename(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


class ArtefactCache:
    """Content-addressed store of flow artefacts, one entry per config hash."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def entry(self, config_hash: str) -> CacheEntry:
        """The cache entry of one config hash (created lazily on store)."""
        if not config_hash:
            raise ValueError("config_hash must be non-empty")
        return CacheEntry(self.root / config_hash)

    def entry_for(self, scenario: ScenarioConfig) -> CacheEntry:
        """The cache entry addressed by ``scenario.config_hash()``."""
        return self.entry(scenario.config_hash())

    def entries(self) -> List[CacheEntry]:
        """All existing cache entries (directories under the root)."""
        if not self.root.is_dir():
            return []
        return [
            CacheEntry(path) for path in sorted(self.root.iterdir()) if path.is_dir()
        ]
