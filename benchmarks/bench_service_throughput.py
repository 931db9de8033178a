"""Experiment-service load benchmarks: dedup gate + connection scaling.

Three benchmarks against the same service stack:

* **dedup throughput** -- M client threads each submit the same mix of
  scenario configurations (reduced ``fast-smoke`` / ``vco-sweep-*``
  variants) against a worker pool of N processes.  Submissions must
  coalesce on the config hash (at most one execution per unique
  configuration, each with ``attempts == 1``) and the run reports jobs
  accepted / completed per second via ``extra_info``.
* **connection scaling** -- the asyncio front end
  (:func:`~repro.service.api.make_async_server`, HTTP/1.1 keep-alive)
  at 8 / 64 / 256 concurrent clients hammering ``GET /v1/healthz``.
  Each level's absolute throughput is recorded as
  ``asyncio_rps_<n>_clients``; at every level the server must serve the
  full load without a single connection error.
* **remote-worker drain** -- the same job mix against a
  coordinator-only service drained by *remote* workers
  (:func:`~repro.service.worker.remote_worker_loop`): every claim,
  heartbeat, outcome and artifact checkpoint crosses the loopback
  ``/v1`` API instead of touching SQLite and the cache directly.  The
  dedup/single-execution gate must hold unchanged, and the run records
  the distributed configuration's completion rate into ``extra_info``
  next to the local pool's numbers.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Tuple

from benchmarks.conftest import print_header
from repro.service.api import make_async_server
from repro.service.client import ServiceClient
from repro.service.remote import RemoteJobStore
from repro.service.store import SqliteJobStore
from repro.service.worker import Autoscaler, remote_worker_loop

#: Client threads hammering the API in the dedup benchmark.
N_CLIENTS = 8
#: Worker processes draining the queue.
N_WORKERS = 2

#: The submitted mix: (scenario, overrides) pairs.  Budgets are reduced to
#: seconds-scale so the benchmark measures service machinery, not the
#: optimiser; distinct seeds/topologies make four unique configurations.
TINY_BUDGET = {
    "circuit_population": 10,
    "circuit_generations": 2,
    "system_population": 8,
    "system_generations": 2,
    "mc_samples_per_point": 4,
    "yield_samples": 10,
    "max_model_points": 6,
    "evaluation": "vectorised",
}
JOB_MIX = [
    ("fast-smoke", dict(TINY_BUDGET, seed=301)),
    ("fast-smoke", dict(TINY_BUDGET, seed=302)),
    ("vco-sweep-3", dict(TINY_BUDGET, seed=303)),
    ("vco-sweep-7", dict(TINY_BUDGET, seed=304)),
]

#: Connection-scaling load levels: (concurrent clients, requests each).
#: The per-client count shrinks as concurrency grows so each level takes
#: comparable wall-clock time.
CLIENT_LEVELS: Tuple[Tuple[int, int], ...] = ((8, 40), (64, 10), (256, 4))


def test_service_throughput_with_dedup(benchmark, tmp_path):
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, cache)
    host, port = server.start()
    url = f"http://{host}:{port}"
    client = ServiceClient(url)
    client.wait_until_ready()

    submissions: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(N_CLIENTS)

    def client_session() -> None:
        session = ServiceClient(url)
        barrier.wait()
        for scenario, overrides in JOB_MIX:
            job = session.submit(scenario, overrides)
            with lock:
                submissions.append(job)

    try:
        with Autoscaler(
            db, cache, min_workers=N_WORKERS, max_workers=N_WORKERS, lease_ttl=30.0
        ):
            started = time.perf_counter()
            threads = [threading.Thread(target=client_session) for _ in range(N_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            submit_seconds = time.perf_counter() - started

            job_ids = sorted({job["id"] for job in submissions})
            for job_id in job_ids:
                finished = client.wait(job_id, timeout=300.0)
                assert finished["state"] == "done", finished
            drain_seconds = time.perf_counter() - started

        total_submitted = N_CLIENTS * len(JOB_MIX)
        assert len(submissions) == total_submitted

        # Dedup gate: at most one execution per unique configuration.
        unique_configs = len({(name, tuple(sorted(o.items()))) for name, o in JOB_MIX})
        assert len(job_ids) == unique_configs
        assert sum(1 for job in submissions if job["created"]) == unique_configs
        for job_id in job_ids:
            record = store.get(job_id)
            assert record.attempts == 1, f"job {job_id} executed more than once"

        accepted_per_second = total_submitted / submit_seconds
        completed_per_second = len(job_ids) / drain_seconds
        print_header(
            f"Experiment service throughput: {N_CLIENTS} clients x {len(JOB_MIX)} "
            f"submissions against {N_WORKERS} workers"
        )
        print(
            f"submissions accepted : {total_submitted} in {submit_seconds:.3f}s "
            f"({accepted_per_second:.1f} jobs/s)"
        )
        print(f"unique executions    : {len(job_ids)} (of {total_submitted} submitted)")
        print(
            f"queue drained        : {drain_seconds:.3f}s "
            f"({completed_per_second:.2f} completed jobs/s)"
        )

        benchmark.extra_info["service_jobs_accepted_per_second"] = accepted_per_second
        benchmark.extra_info["service_jobs_completed_per_second"] = completed_per_second
        benchmark.extra_info["service_unique_executions"] = len(job_ids)
        benchmark.extra_info["service_submissions"] = total_submitted
        # The timed benchmark body: a warm status poll, the request the
        # service answers most often under load.
        benchmark.pedantic(
            lambda: list(client.jobs(state="done")),
            rounds=3,
            iterations=1,
            warmup_rounds=0,
        )
    finally:
        server.shutdown()


def test_remote_worker_throughput(benchmark, tmp_path):
    """The distributed configuration: coordinator-only service, remote
    workers over loopback HTTP.  Same mix, same dedup gate -- the wire
    must change the economics, never the semantics."""
    db = tmp_path / "service.db"
    cache = tmp_path / "cache"
    store = SqliteJobStore(db, lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, cache)
    host, port = server.start()
    url = f"http://{host}:{port}"
    client = ServiceClient(url)
    client.wait_until_ready()

    try:
        job_ids = sorted(
            {client.submit(scenario, overrides)["id"] for scenario, overrides in JOB_MIX}
        )
        started = time.perf_counter()
        # Each remote worker drains until nothing is pending; its store
        # and artefact checkpoints all speak the coordinator's /v1 API.
        workers = [
            threading.Thread(
                target=remote_worker_loop,
                args=(url, tmp_path / f"worker-cache-{index}"),
                kwargs={
                    "poll_interval": 0.05,
                    "max_jobs": len(JOB_MIX),
                    "worker_name": f"bench-remote-{index}",
                },
            )
            for index in range(N_WORKERS)
        ]
        for worker in workers:
            worker.start()
        for job_id in job_ids:
            finished = client.wait(job_id, timeout=300.0)
            assert finished["state"] == "done", finished
        drain_seconds = time.perf_counter() - started
        for worker in workers:
            worker.join(timeout=60.0)

        # The dedup/single-execution gate holds across the wire.
        assert len(job_ids) == len(
            {(name, tuple(sorted(o.items()))) for name, o in JOB_MIX}
        )
        for job_id in job_ids:
            record = store.get(job_id)
            assert record.attempts == 1, f"job {job_id} executed more than once"
            assert record.worker.startswith("bench-remote-")

        completed_per_second = len(job_ids) / drain_seconds
        print_header(
            f"Remote-worker drain: {len(job_ids)} unique jobs across "
            f"{N_WORKERS} loopback HTTP workers"
        )
        print(
            f"queue drained        : {drain_seconds:.3f}s "
            f"({completed_per_second:.2f} completed jobs/s)"
        )
        benchmark.extra_info["service_remote_workers"] = N_WORKERS
        benchmark.extra_info["service_remote_jobs_completed_per_second"] = (
            completed_per_second
        )
        benchmark.extra_info["service_remote_unique_executions"] = len(job_ids)
        # The timed body: the claim-poll a remote worker issues most --
        # the wire cost the distributed deployment adds to every idle
        # loop iteration.
        remote = RemoteJobStore(url)
        benchmark.pedantic(
            lambda: remote.pending_count(),
            rounds=3,
            iterations=20,
            warmup_rounds=1,
        )
    finally:
        server.shutdown()


def _read_response(sock: socket.socket, buffer: bytes) -> Tuple[int, bool, bytes]:
    """Read one HTTP response; return (status, close-after, leftover bytes)."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    version, status = lines[0].split(" ", 2)[:2]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-body")
        rest += chunk
    connection = headers.get("connection", "").lower()
    close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
    return int(status), close, rest[length:]


def _http_load(
    host: str, port: int, path: str, n_clients: int, requests_per_client: int
) -> Tuple[float, int, int]:
    """Keep-alive-aware raw-socket load generator.

    Each client thread reuses its connection while the server allows it
    and transparently reconnects when the server closes.  Returns
    (elapsed seconds, 200-responses, errors).
    """
    request = (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")
    ok: List[int] = [0] * n_clients
    errors: List[int] = [0] * n_clients
    barrier = threading.Barrier(n_clients + 1)

    def client_thread(index: int) -> None:
        sock: socket.socket = None  # type: ignore[assignment]
        leftover = b""
        barrier.wait()
        for _ in range(requests_per_client):
            try:
                if sock is None:
                    sock = socket.create_connection((host, port), timeout=30.0)
                    sock.settimeout(30.0)
                    leftover = b""
                sock.sendall(request)
                status, close, leftover = _read_response(sock, leftover)
                if status == 200:
                    ok[index] += 1
                if close:
                    sock.close()
                    sock = None
            except OSError:
                errors[index] += 1
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    sock = None
        if sock is not None:
            sock.close()

    threads = [
        threading.Thread(target=client_thread, args=(index,)) for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return elapsed, sum(ok), sum(errors)


def test_concurrent_keepalive_connections(benchmark, tmp_path):
    store = SqliteJobStore(tmp_path / "load.db", lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, tmp_path / "cache")
    host, port = server.start()
    ServiceClient(f"http://{host}:{port}").wait_until_ready()

    try:
        print_header("API connection scaling: asyncio keep-alive")
        for n_clients, per_client in CLIENT_LEVELS:
            seconds, ok, errors = _http_load(host, port, "/v1/healthz", n_clients, per_client)
            assert errors == 0, f"server dropped {errors} requests at {n_clients} clients"
            assert ok == n_clients * per_client
            rps = ok / seconds
            print(
                f"{n_clients:>4} clients x {per_client:>3} reqs | "
                f"{rps:8.0f} req/s ({errors} errors)"
            )
            benchmark.extra_info[f"asyncio_rps_{n_clients}_clients"] = rps

        # The timed body: a short keep-alive burst, so the benchmark JSON
        # carries a stable latency figure.
        benchmark.pedantic(
            lambda: _http_load(host, port, "/v1/healthz", 8, 10),
            rounds=3,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        server.shutdown()
