"""The cache's one write rule: a reader never sees a truncated file.

:meth:`CacheEntry._atomic_write` writes a temp file, unlinks the old
target and renames the temp file into the free name.  A reader (or a
process killed at any instant) sees the old bytes, no file, or the new
bytes; these tests pin that contract and that no temp file is left over.
"""

import errno
import json
import os
import pickle
import sys
import threading

import pytest

from repro.experiments.cache import CacheEntry

OLD = {"generation": 1, "payload": b"o" * 400_000}
NEW = {"generation": 2, "payload": b"n" * 600_000}


def _pickled(state):
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def _temp_files(directory):
    return sorted(path.name for path in directory.iterdir() if path.name.startswith("."))


#: (file name, write through the entry, read back through the entry)
REWRITES = {
    "partial": (
        "circuit.partial.pkl",
        lambda entry, state: entry.store_partial("circuit", state),
        lambda entry: entry.load_partial("circuit"),
    ),
    "stage": (
        "circuit.pkl",
        lambda entry, state: entry.store("circuit", state),
        lambda entry: entry.load("circuit"),
    ),
    "report": (
        "report.json",
        lambda entry, state: entry.write_report_summary(
            {"generation": state["generation"], "size": len(state["payload"])}
        ),
        lambda entry: entry.read_report_summary(),
    ),
}


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrite_leaves_exactly_the_new_bytes_and_no_temp_file(tmp_path, kind):
    name, write, read = REWRITES[kind]
    entry = CacheEntry(tmp_path / "entry")
    write(entry, OLD)
    write(entry, NEW)

    path = entry.directory / name
    if kind == "report":
        expected = json.dumps(
            {"generation": 2, "size": len(NEW["payload"])}, indent=2, sort_keys=True
        ).encode("utf-8")
        assert read(entry) == {"generation": 2, "size": len(NEW["payload"])}
    else:
        expected = _pickled(NEW)
        assert read(entry) == NEW
    assert path.read_bytes() == expected
    assert _temp_files(entry.directory) == []


def test_failed_rename_leaves_no_temp_file_and_no_truncated_file(tmp_path, monkeypatch):
    entry = CacheEntry(tmp_path / "entry")
    entry.store_partial("circuit", OLD)
    path = entry.directory / "circuit.partial.pkl"

    def failing_rename(src, dst):
        raise OSError(errno.EIO, "injected rename failure")

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="injected rename failure"):
        entry.store_partial("circuit", NEW)
    monkeypatch.undo()

    assert _temp_files(entry.directory) == []
    # The old bytes or no file at all -- never a partial write.
    assert not path.exists() or path.read_bytes() == _pickled(OLD)
    assert entry.load_partial("circuit") in (OLD, None)


def test_failed_payload_write_keeps_the_old_bytes(tmp_path, monkeypatch):
    entry = CacheEntry(tmp_path / "entry")
    entry.store_partial("circuit", OLD)
    path = entry.directory / "circuit.partial.pkl"
    real_fdopen = os.fdopen

    class HalfWrite:
        """A file handle that writes half the payload, then runs out of space."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()
            return False

        def write(self, payload):
            self.handle.write(payload[: len(payload) // 2])
            raise OSError(errno.ENOSPC, "injected disk full")

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWrite(real_fdopen(fd, mode)))
    with pytest.raises(OSError, match="injected disk full"):
        entry.store_partial("circuit", NEW)
    monkeypatch.undo()

    assert _temp_files(entry.directory) == []
    assert path.read_bytes() == _pickled(OLD)
    assert entry.load_partial("circuit") == OLD


def test_concurrent_readers_see_old_new_or_nothing(tmp_path):
    entry = CacheEntry(tmp_path / "entry")
    entry.store_partial("circuit", OLD)
    path = entry.directory / "circuit.partial.pkl"
    seen_bytes = {_pickled(OLD): "old", _pickled(NEW): "new"}
    done = threading.Event()
    loaded, raw, errors = [], [], []  # what the readers saw, as labels

    def writer():
        try:
            for index in range(200):
                entry.store_partial("circuit", NEW if index % 2 == 0 else OLD)
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                state = entry.load_partial("circuit")
                loaded.append(
                    "none" if state is None
                    else "old" if state == OLD
                    else "new" if state == NEW
                    else "other"
                )
                try:
                    raw.append(seen_bytes.get(path.read_bytes(), "truncated"))
                except FileNotFoundError:
                    raw.append("none")
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    # More threads than cores and a short switch interval, so reads land
    # inside writes as often as the scheduler allows.
    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    assert loaded and raw
    assert set(loaded) <= {"old", "new", "none"}
    assert set(raw) <= {"old", "new", "none"}
    assert entry.load_partial("circuit") == OLD  # the 200th write
    assert _temp_files(entry.directory) == []
