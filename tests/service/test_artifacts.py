"""The ArtifactStore seam: read-through caching, byte identity on the
wire, partial-download safety (truncation regression), and idempotence
under duplicated PUTs."""

import json
import socket
import threading
import time

import pytest

from conftest import tiny_scenario
from faults import CountingTransport, FlakyTransport
from repro.experiments.artifacts import (
    ARTIFACT_NAME_RE,
    ARTIFACT_PUSH_FAILURES,
    ArtifactTransportError,
    HttpArtifactStore,
    HttpTransport,
    LocalArtifactStore,
    artifact_names,
)
from repro.experiments.cache import ArtefactCache
from repro.service import http as service_http
from repro.service.api import make_async_server
from repro.service.client import ServiceClient
from repro.service.remote import REMOTE_RETRIES, RemoteJobStore

TINY = tiny_scenario("artifact-tiny", seed=53)


# -- naming and the local backend ---------------------------------------------------------


def test_artifact_name_grammar_covers_exactly_the_protocol_files():
    for name in artifact_names():
        assert ARTIFACT_NAME_RE.match(name), name
    for hostile in (
        "",
        "circuit.pkl.bak",
        "../circuit.pkl",
        "circuit/../../x.pkl",
        "service.db",
        "CIRCUIT.PKL",
        "circuit.partial.partial.pkl",
    ):
        assert not ARTIFACT_NAME_RE.match(hostile), hostile


def test_local_store_is_the_artefact_cache(tmp_path):
    store = LocalArtifactStore(tmp_path / "cache")
    assert isinstance(store, ArtefactCache)
    entry = store.entry_for(TINY)
    entry.store("circuit", {"payload": 1})
    assert entry.load("circuit") == {"payload": 1}
    # Same tree as a plain ArtefactCache over the same root.
    assert ArtefactCache(tmp_path / "cache").entry_for(TINY).has("circuit")


# -- the HTTP backend over a live coordinator ---------------------------------------------


def test_push_fetch_roundtrip_is_byte_exact(coordinator, tmp_path):
    store = HttpArtifactStore(coordinator.url, tmp_path / "worker-cache")
    payload = b"\x80\x04" + bytes(range(256)) * 5  # arbitrary binary
    store.push("cafe0123deadbeef", "circuit.pkl", payload)
    # Bytes land verbatim in the coordinator's cache tree...
    on_disk = coordinator.cache_dir / "cafe0123deadbeef" / "circuit.pkl"
    assert on_disk.read_bytes() == payload
    # ...and come back verbatim.
    assert store.fetch("cafe0123deadbeef", "circuit.pkl") == payload
    assert store.fetch("cafe0123deadbeef", "system.pkl") is None  # 404


def test_entry_store_publishes_and_read_through_fills_the_local_cache(
    coordinator, tmp_path
):
    worker_a = HttpArtifactStore(coordinator.url, tmp_path / "a")
    worker_a.entry_for(TINY).store("circuit", {"generation": 2})

    # A different machine (fresh local cache) sees the artefact through
    # the coordinator and keeps a bit-identical local copy.
    worker_b = HttpArtifactStore(coordinator.url, tmp_path / "b")
    entry_b = worker_b.entry_for(TINY)
    assert entry_b.has("circuit")
    assert entry_b.load("circuit") == {"generation": 2}
    h = TINY.config_hash()
    assert (tmp_path / "b" / h / "circuit.pkl").read_bytes() == (
        tmp_path / "a" / h / "circuit.pkl"
    ).read_bytes()
    assert entry_b.stages_present() == ["circuit"]


def test_partials_are_coordinator_first_with_local_fallback(coordinator, tmp_path):
    worker_a = HttpArtifactStore(coordinator.url, tmp_path / "a")
    worker_a.entry_for(TINY).store_partial("circuit", {"generation": 7})
    worker_a.publish(TINY.config_hash())  # the job's heartbeat publishes it

    # The reclaiming worker has no local partial: it resumes from the
    # coordinator's copy.
    worker_b = HttpArtifactStore(coordinator.url, tmp_path / "b")
    assert worker_b.entry_for(TINY).load_partial("circuit") == {"generation": 7}

    # With the coordinator unreachable, a local (older) partial still
    # resumes the run -- generation replay is deterministic.
    unreachable = HttpArtifactStore(
        "http://127.0.0.1:9", tmp_path / "b", retries=1, retry_delay=0.0
    )
    assert unreachable.entry_for(TINY).load_partial("circuit") == {"generation": 7}

    # clear_partial removes both copies.
    worker_a.entry_for(TINY).clear_partial("circuit")
    assert worker_a.entry_for(TINY).load_partial("circuit") is None
    assert worker_b.entry_for(TINY).load_partial("circuit") is None


def test_listing_route_and_put_answer_name_what_the_hash_holds(coordinator, tmp_path):
    store = HttpArtifactStore(coordinator.url, tmp_path / "w")
    assert store.names("cafe0123deadbeef") == set()  # an unknown hash lists nothing
    assert store.push("cafe0123deadbeef", "system.pkl", b"s") == {"system.pkl"}
    assert store.push("cafe0123deadbeef", "circuit.pkl", b"c") == {"circuit.pkl", "system.pkl"}
    # A stray file in the tree that is not an artifact name is not listed.
    (coordinator.cache_dir / "cafe0123deadbeef" / "notes.txt").write_text("x")
    status, body = HttpTransport(coordinator.url).request("GET", "/v1/artifacts/cafe0123deadbeef")
    assert status == 200
    assert json.loads(body)["names"] == ["circuit.pkl", "system.pkl"]
    status, _ = HttpTransport(coordinator.url).request("GET", "/v1/artifacts/not-hex")
    assert status == 404


def test_entry_answers_misses_from_one_listing_and_its_own_writes(coordinator, tmp_path):
    """A fresh entry asks what the coordinator holds once; ``has`` and
    ``load_partial`` misses never probe name by name, and a partial the
    entry wrote itself is read back from its local copy."""
    transport = CountingTransport(HttpTransport(coordinator.url))
    entry = HttpArtifactStore(coordinator.url, tmp_path / "w", transport=transport).entry_for(
        TINY
    )
    h = TINY.config_hash()
    assert not entry.has("circuit")
    assert entry.load_partial("circuit") is None
    assert entry.stages_present() == []
    assert transport.log == [f"GET /v1/artifacts/{h}"]

    entry.store_partial("circuit", {"generation": 3})
    assert entry.load_partial("circuit") == {"generation": 3}
    entry.clear_partial("circuit")
    assert entry.load_partial("circuit") is None
    assert not [line for line in transport.log if line.startswith(f"GET /v1/artifacts/{h}/")]

    # A fresh entry whose first exchange is a push learns the listing
    # from the PUT's answer and never sends the listing GET.
    transport.log.clear()
    fresh = HttpArtifactStore(coordinator.url, tmp_path / "x", transport=transport).entry_for(TINY)
    fresh.write_scenario(TINY)
    assert not fresh.has("circuit") and fresh.load_partial("yield") is None
    assert transport.log == [f"PUT /v1/artifacts/{h}/scenario.json"]


# -- partials: published on demand, deleted only where held -------------------------------


def test_partials_travel_only_when_published(coordinator, tmp_path):
    """``store_partial`` costs no exchange; ``publish`` pushes the newest
    local bytes once; a clear deletes only a name the coordinator holds."""
    transport = CountingTransport(HttpTransport(coordinator.url))
    store = HttpArtifactStore(coordinator.url, tmp_path / "w", transport=transport)
    entry = store.entry_for(TINY)
    h = TINY.config_hash()
    entry.write_scenario(TINY)  # the PUT's answer is the hash's listing
    name = f"/v1/artifacts/{h}/circuit.partial.pkl"

    entry.store_partial("circuit", {"generation": 1})
    entry.store_partial("circuit", {"generation": 2})
    assert transport.log == [f"PUT /v1/artifacts/{h}/scenario.json"]
    store.publish(h)
    store.publish(h)  # nothing new since the last publication
    assert transport.log[1:] == [f"PUT {name}"]
    assert (coordinator.cache_dir / h / "circuit.partial.pkl").read_bytes() == (
        tmp_path / "w" / h / "circuit.partial.pkl"
    ).read_bytes()
    # Another entry of the hash (the trace writer's, say) shares the state.
    store.entry_for(TINY).clear_partial("circuit")
    assert transport.log[2:] == [f"DELETE {name}"]
    assert not (coordinator.cache_dir / h / "circuit.partial.pkl").exists()

    # Stored and cleared between two publications: no exchange at all.
    transport.log.clear()
    entry.store_partial("yield", {"batch": 1})
    entry.clear_partial("yield")
    store.publish(h)
    assert transport.log == []


class BlockingTransport:
    """Holds every partial PUT until ``release`` is set."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def request(self, method, path, body=None, headers=None):
        if method == "PUT" and path.endswith(".partial.pkl"):
            self.entered.set()
            assert self.release.wait(10.0)
        self.log.append(f"{method} {path}")
        return self.inner.request(method, path, body, headers)


def test_clear_partial_waits_out_a_publish_in_flight(coordinator, tmp_path):
    """A ``clear_partial`` racing a publication of the same name sends
    its DELETE after the PUT lands: no partial is left behind."""
    transport = BlockingTransport(HttpTransport(coordinator.url))
    store = HttpArtifactStore(coordinator.url, tmp_path / "w", transport=transport)
    entry = store.entry_for(TINY)
    h = TINY.config_hash()
    assert not entry.has("circuit")  # the listing: no partial on the coordinator
    entry.store_partial("circuit", {"generation": 4})

    publisher = threading.Thread(target=store.publish, args=(h,))
    publisher.start()
    assert transport.entered.wait(10.0)  # the PUT is in flight
    clearer = threading.Thread(target=entry.clear_partial, args=("circuit",))
    clearer.start()
    time.sleep(0.1)
    assert clearer.is_alive(), "the DELETE overtook the PUT in flight"
    transport.release.set()
    publisher.join(10.0)
    clearer.join(10.0)

    name = f"/v1/artifacts/{h}/circuit.partial.pkl"
    assert transport.log[-2:] == [f"PUT {name}", f"DELETE {name}"]
    assert not (coordinator.cache_dir / h / "circuit.partial.pkl").exists()
    assert not (tmp_path / "w" / h / "circuit.partial.pkl").exists()


def test_failed_publish_and_delete_are_counted_logged_and_retried(
    coordinator, tmp_path, caplog
):
    """A publication or delete the wire drops is counted in
    ``repro_artifact_push_failures_total{name}`` and logged with the job
    id; a failed publication stays pending for the next one."""
    h = TINY.config_hash()
    name = "circuit.partial.pkl"
    flaky = FlakyTransport(
        HttpTransport(coordinator.url), seed=1, drop=1.0, match=r"^(PUT|DELETE) .*partial"
    )
    store = HttpArtifactStore(
        coordinator.url, tmp_path / "w", transport=flaky, retries=1, retry_delay=0.0
    )
    entry = store.entry_for(TINY)
    entry.write_scenario(TINY)
    before = ARTIFACT_PUSH_FAILURES.value(name=name)

    entry.store_partial("circuit", {"generation": 5})
    with caplog.at_level("WARNING", logger="repro.service.artifacts"):
        store.publish(h)
    assert flaky.faults_fired("drop") == 1
    assert ARTIFACT_PUSH_FAILURES.value(name=name) == before + 1
    messages = [record.getMessage() for record in caplog.records]
    assert any(h in message and name in message for message in messages)
    assert not (coordinator.cache_dir / h / name).exists()

    flaky.drop = 0.0  # the link heals: the next publication delivers it
    store.publish(h)
    assert (coordinator.cache_dir / h / name).is_file()

    flaky.drop = 1.0
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.service.artifacts"):
        entry.clear_partial("circuit")
    assert flaky.faults_fired("drop") == 2
    assert ARTIFACT_PUSH_FAILURES.value(name=name) == before + 2
    messages = [record.getMessage() for record in caplog.records]
    assert any("delete" in message and h in message for message in messages)


def test_server_rejects_malformed_artifact_paths(coordinator, tmp_path):
    transport = HttpTransport(coordinator.url)
    for path in (
        "/v1/artifacts/not-hex/circuit.pkl",
        "/v1/artifacts/cafe0123deadbeef/evil.sh",
        "/v1/artifacts/cafe0123deadbeef/circuit.pkl.bak",
        "/v1/artifacts/short/circuit.pkl",
    ):
        status, _ = transport.request("PUT", path, b"x")
        assert status == 404, path
        status, _ = transport.request("GET", path)
        assert status == 404, path


# -- truncation regression (the satellite fix) --------------------------------------------


class TruncatingServer:
    """One-shot HTTP server declaring more bytes than it sends."""

    def __init__(self, declared=4096, sent=16):
        self.declared = declared
        self.sent = sent
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            while True:
                connection, _ = self.sock.accept()
                connection.recv(65536)
                head = (
                    "HTTP/1.1 200 OK\r\n"
                    f"Content-Length: {self.declared}\r\n"
                    "Content-Type: application/octet-stream\r\n\r\n"
                ).encode()
                connection.sendall(head + b"x" * self.sent)
                connection.close()  # cut mid-body: a truncated download
        except OSError:
            pass  # listener closed

    def close(self):
        self.sock.close()


def test_truncated_download_raises_and_never_pollutes_the_cache(tmp_path):
    """Regression: a response cut mid-body must surface as a transport
    error -- never as a short file installed into the local cache."""
    server = TruncatingServer()
    try:
        store = HttpArtifactStore(
            f"http://127.0.0.1:{server.port}",
            tmp_path / "cache",
            retries=2,
            retry_delay=0.0,
        )
        entry = store.entry("cafe0123deadbeef")
        with pytest.raises(ArtifactTransportError):
            entry.load("circuit")
        # Nothing (file or temp) landed in the read-through cache.
        directory = tmp_path / "cache" / "cafe0123deadbeef"
        assert not directory.exists() or list(directory.iterdir()) == []
    finally:
        server.close()


def test_transport_detects_short_reads_against_content_length():
    server = TruncatingServer(declared=1000, sent=10)
    try:
        transport = HttpTransport(f"http://127.0.0.1:{server.port}")
        with pytest.raises(ArtifactTransportError):
            transport.request("GET", "/v1/artifacts/cafe0123deadbeef/circuit.pkl")
    finally:
        server.close()


# -- keep-alive transport ------------------------------------------------------------------


@pytest.fixture()
def counted_coordinator(tmp_path, sqlite_store):
    """A live coordinator that records every TCP connection it accepts."""
    server = make_async_server("127.0.0.1", 0, sqlite_store, tmp_path / "cache")
    accepted = []
    handle = server._handle_connection

    async def counted(reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await handle(reader, writer)

    server._handle_connection = counted
    host, port = server.start()
    yield f"http://{host}:{port}", accepted
    server.shutdown()


def test_requests_from_one_thread_share_one_connection(counted_coordinator, tmp_path):
    url, accepted = counted_coordinator
    transport = HttpTransport(url)
    store = HttpArtifactStore(url, tmp_path / "w", transport=transport)
    remote = RemoteJobStore(url, transport=transport)
    client = ServiceClient(url)
    for index in range(5):
        store.push("cafe0123deadbeef", "circuit.pkl", b"payload-%d" % index)
        assert store.fetch("cafe0123deadbeef", "circuit.pkl") == b"payload-%d" % index
        assert remote.count() == 0
        assert store.fetch("cafe0123deadbeef", "system.pkl") is None  # a 404 keeps the link
    assert len(accepted) == 1
    for _ in range(5):
        client.health()
    assert len(accepted) == 2  # the client's own link, reused

    # Another thread gets its own connection.
    worker = threading.Thread(target=remote.count)
    worker.start()
    worker.join()
    assert len(accepted) == 3
    assert remote.count() == 0 and len(accepted) == 3


def test_idle_link_closed_by_the_server_is_resent_once(counted_coordinator, monkeypatch):
    url, accepted = counted_coordinator
    monkeypatch.setattr(service_http, "KEEPALIVE_TIMEOUT", 0.1)
    remote = RemoteJobStore(url, transport=HttpTransport(url), retry_delay=0.0)
    retries = REMOTE_RETRIES.value()
    assert remote.count() == 0
    time.sleep(1.0)  # the server closes the idle link meanwhile
    assert remote.transport._connection().sock is not None  # ...unknown to the client
    assert remote.count() == 0  # delivered on a fresh link, no error
    assert len(accepted) == 2
    assert REMOTE_RETRIES.value() == retries


class ScriptedServer:
    """Raw HTTP server answering each request per a script of actions.

    ``"ok"`` answers 200 on a kept-alive link, ``"truncate"`` declares
    more body bytes than it sends and closes, ``"drop"`` closes without
    answering.  Counts accepted connections and received requests.
    """

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self.requests = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        try:
            while True:
                connection, _ = self.sock.accept()
                self.connections += 1
                with connection, connection.makefile("rb") as requests:
                    while self.script and self._read_request(requests):
                        self.requests += 1
                        action = self.script.pop(0)
                        if action == "drop":
                            break
                        declared = 4 if action == "ok" else 1000
                        connection.sendall(
                            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nbody" % declared
                        )
                        if action == "truncate":
                            break
        except OSError:
            pass  # listener closed

    @staticmethod
    def _read_request(requests):
        """Consume one request (head and body); ``False`` at end of stream."""
        length = 0
        line = requests.readline()
        if not line:
            return False
        while line not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
            line = requests.readline()
        requests.read(length)
        return True

    def close(self):
        self.sock.close()


@pytest.mark.parametrize(
    "script",
    [["drop"], ["truncate"], ["ok", "truncate"]],
    ids=["post-dropped-on-fresh-link", "truncated-on-fresh-link", "truncated-on-reused-link"],
)
def test_failures_other_than_a_stale_link_are_never_resent(script):
    server = ScriptedServer(script)
    try:
        transport = HttpTransport(server.url)
        if script[0] == "ok":
            assert transport.request("POST", "/v1/claim", b"{}") == (200, b"body")
        with pytest.raises(ArtifactTransportError):
            transport.request("POST", "/v1/claim", b"{}")
        assert server.requests == len(script)  # the failed request was sent once
        assert server.connections == 1
    finally:
        server.close()


# -- duplicated PUTs (at-least-once wire semantics) ---------------------------------------


def test_duplicated_puts_are_idempotent(coordinator, tmp_path):
    """A network that re-sends every PUT (the at-least-once case the
    fault harness injects) leaves exactly the same coordinator state."""
    inner = HttpTransport(coordinator.url)
    flaky = FlakyTransport(inner, seed=7, duplicate=1.0, match=r"^PUT ")
    store = HttpArtifactStore(coordinator.url, tmp_path / "w", transport=flaky)

    entry = store.entry_for(TINY)
    entry.store("circuit", {"generation": 2})
    entry.store_partial("system", {"generation": 1})
    store.publish(TINY.config_hash())
    assert flaky.faults_fired("duplicate") >= 2  # the faults really fired

    h = TINY.config_hash()
    clean = HttpArtifactStore(coordinator.url, tmp_path / "verify")
    assert clean.entry_for(TINY).load("circuit") == {"generation": 2}
    assert (coordinator.cache_dir / h / "circuit.pkl").read_bytes() == (
        tmp_path / "w" / h / "circuit.pkl"
    ).read_bytes()


def test_flaky_drop_exhausts_bounded_retries(coordinator, tmp_path):
    inner = HttpTransport(coordinator.url)
    flaky = FlakyTransport(inner, seed=3, drop=1.0)
    store = HttpArtifactStore(
        coordinator.url, tmp_path / "w", transport=flaky, retries=3, retry_delay=0.0
    )
    with pytest.raises(ArtifactTransportError):
        store.fetch("cafe0123deadbeef", "circuit.pkl")
    assert flaky.faults_fired("drop") == 3  # one per bounded retry
