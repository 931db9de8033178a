"""Asyncio HTTP/1.1 core of the experiment service front end.

Dependency-free (stdlib ``asyncio`` only): one event loop serves every
connection, so the front end scales to hundreds of concurrent clients --
including long-lived Server-Sent-Events streams -- without a thread per
connection.  The pieces:

* :class:`Request` / :class:`Response` -- parsed request and response
  value objects.  :meth:`Response.json` builds the JSON responses every
  API route answers with; :meth:`Response.event_stream` wraps an async
  generator of SSE frames.
* :class:`Router` -- a small declarative route table: ``add("GET",
  "/v1/jobs/{job_id}", handler)`` then ``match_route(method, path)``;
  ``{name}`` segments capture into ``request.params``.
* :class:`AsyncHTTPServer` -- ``asyncio.start_server`` wrapper with
  HTTP/1.1 keep-alive, request parsing, bounded bodies, and a
  **thread-pool bridge** (:meth:`AsyncHTTPServer.call`): the application
  runs its blocking work (SQLite reads/writes through the
  :class:`~repro.service.base.JobStore`) on a small executor, so the
  event loop never blocks on the database.

The error envelope every handler (and the server's own parse failures)
speaks is built by :func:`error_payload` / :func:`error_response`::

    {"error": {"code": "<machine_code>", "message": "<human text>"}}

The module is transport only -- routes, application logic and the SSE
event semantics live in :mod:`repro.service.api`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import parse_qs, unquote, urlparse

from repro.obs import metrics as obs_metrics

__all__ = [
    "Request",
    "Response",
    "Router",
    "AsyncHTTPServer",
    "error_payload",
    "error_response",
    "sse_event",
    "sse_comment",
]

#: Hard cap on request bodies; the API's JSON bodies are tiny, so anything
#: bigger is a client bug (or abuse) and is rejected with 413.
MAX_BODY_BYTES = 1 << 20

#: Cap for routes registered in :attr:`AsyncHTTPServer.large_body_prefixes`
#: (artifact uploads: stage pickles are megabytes, not kilobytes).
MAX_LARGE_BODY_BYTES = 256 << 20

#: Seconds an idle keep-alive connection is held open before the server
#: closes it (generous: clients polling every few seconds reuse sockets).
KEEPALIVE_TIMEOUT = 75.0

#: Seconds allowed for reading a declared request body.
BODY_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    301: "Moved Permanently",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

#: Signature of an async route handler.
Handler = Callable[["Request"], Awaitable["Response"]]

_log = logging.getLogger("repro.service.http")

_registry = obs_metrics.get_registry()
#: Per-route request latency/status; the route label is the registered
#: pattern (``/v1/jobs/{job_id}``), never the raw path, so cardinality
#: stays bounded by the route table.
REQUEST_LATENCY = _registry.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency, by route pattern and status",
    ("method", "route", "status"),
)
#: Clients that hung up mid-exchange (previously swallowed silently).
CLIENT_DISCONNECTS = _registry.counter(
    "repro_http_client_disconnects_total",
    "Connections dropped by the client mid-exchange",
)
#: Route handlers that raised (each also answers a 500 envelope).
HANDLER_ERRORS = _registry.counter(
    "repro_http_handler_errors_total",
    "Unhandled exceptions raised by route handlers",
    ("route",),
)


def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The canonical error envelope: ``{"error": {"code", "message"}}``.

    ``extra`` keys (e.g. the job ``state`` accompanying a 409) are merged
    at the top level next to ``error``.
    """
    payload: Dict[str, Any] = {"error": {"code": code, "message": message}}
    payload.update(extra)
    return payload


def error_response(status: int, code: str, message: str, **extra: Any) -> "Response":
    """A JSON :class:`Response` carrying the canonical error envelope."""
    return Response.json(status, error_payload(code, message, **extra))


def sse_event(
    data: str, event: Optional[str] = None, event_id: Optional[object] = None
) -> bytes:
    """One Server-Sent-Events frame (``id:`` / ``event:`` / ``data:``)."""
    lines: List[str] = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    for piece in data.splitlines() or [""]:
        lines.append(f"data: {piece}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def sse_comment(text: str = "keep-alive") -> bytes:
    """An SSE comment frame (ignored by clients; defeats idle timeouts)."""
    return f": {text}\n\n".encode("utf-8")


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: ``{name}`` captures of the matched route pattern.
    params: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the client wants (and the protocol allows) reuse."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class Response:
    """One HTTP response: fixed body or streamed (SSE) chunks."""

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
        headers: Sequence[Tuple[str, str]] = (),
        stream: Optional[AsyncIterator[bytes]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = list(headers)
        #: When set, the body is produced incrementally by this async
        #: iterator and the connection closes at the end of the stream.
        self.stream = stream

    @classmethod
    def json(
        cls,
        status: int,
        payload: Dict[str, Any],
        headers: Sequence[Tuple[str, str]] = (),
    ) -> "Response":
        """A JSON response (sorted keys, UTF-8)."""
        return cls(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            content_type="application/json",
            headers=headers,
        )

    @classmethod
    def event_stream(cls, chunks: AsyncIterator[bytes]) -> "Response":
        """A ``text/event-stream`` response fed by an async generator."""
        return cls(
            200,
            content_type="text/event-stream",
            headers=[("Cache-Control", "no-cache")],
            stream=chunks,
        )


class Router:
    """Declarative route table with ``{name}`` path captures.

    Patterns are slash-separated literals or ``{name}`` placeholders; a
    placeholder matches exactly one non-empty segment (so ``/static/{name}``
    can never traverse into subdirectories).  First match wins, in
    registration order.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, str, Tuple[str, ...], Handler]] = []

    @staticmethod
    def _segments(path: str) -> Tuple[str, ...]:
        return tuple(segment for segment in path.split("/") if segment)

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` + ``pattern``."""
        self._routes.append(
            (method.upper(), pattern, self._segments(pattern), handler)
        )

    def match_route(
        self, method: str, path: str
    ) -> Optional[Tuple[Handler, Dict[str, str], str]]:
        """The handler, captured params and registered pattern, or ``None``.

        The pattern (not the raw path) labels the per-route metrics, so
        metric cardinality is bounded by the route table.
        """
        parts = self._segments(path)
        for route_method, pattern_text, pattern, handler in self._routes:
            if route_method != method.upper() or len(pattern) != len(parts):
                continue
            params: Dict[str, str] = {}
            for expected, actual in zip(pattern, parts):
                if expected.startswith("{") and expected.endswith("}"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                return handler, params, pattern_text
        return None


def _parse_head(blob: bytes) -> Optional[Request]:
    """Parse the request line + headers, or ``None`` when malformed."""
    try:
        text = blob.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        return None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None
    method, target, version = parts
    parsed = urlparse(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            return None
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    query = {
        key: values[0]
        for key, values in parse_qs(parsed.query, keep_blank_values=True).items()
    }
    return Request(
        method=method.upper(),
        path=unquote(parsed.path) or "/",
        query=query,
        headers=headers,
        version=version,
    )


class AsyncHTTPServer:
    """``asyncio.start_server``-based HTTP/1.1 server with keep-alive.

    Runs its own event loop on a dedicated thread (:meth:`start` /
    :meth:`shutdown`), which keeps the calling code -- the CLI, tests,
    benchmarks -- free of async plumbing; :meth:`serve_forever` blocks
    like the stdlib servers do.  Blocking application work must go
    through :meth:`call`, the thread-pool bridge.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free one (read it back from
        :attr:`server_address` after :meth:`start`).
    router:
        The route table.  Unmatched requests answer a 404
        ``unknown_route`` envelope.
    executor_threads:
        Size of the thread pool behind :meth:`call` -- the concurrency
        limit of *blocking* work (SQLite access), not of connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        router: Router,
        executor_threads: int = 8,
    ) -> None:
        self.host = host
        self.requested_port = port
        self.router = router
        #: Path prefixes whose bodies may grow to
        #: :data:`MAX_LARGE_BODY_BYTES` (e.g. ``/v1/artifacts/`` stage
        #: pickle uploads); everything else stays JSON-sized.
        self.large_body_prefixes: Tuple[str, ...] = ()
        self.server_address: Optional[Tuple[str, int]] = None
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-http"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- thread-pool bridge --------------------------------------------------------------

    async def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run blocking ``fn(*args, **kwargs)`` on the executor and await it."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Start serving on a background thread; returns the bound address."""
        if self._thread is not None:
            assert self.server_address is not None
            return self.server_address
        self._thread = threading.Thread(
            target=self._run, name="repro-async-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5.0)
            self._thread = None
            raise error
        assert self.server_address is not None
        return self.server_address

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown` is called."""
        self.start()
        assert self._thread is not None
        while self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def shutdown(self) -> None:
        """Stop accepting, cancel open connections, and join the loop thread."""
        if self._loop is not None and self._stop is not None:
            with suppress(RuntimeError):  # loop may have just closed
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._executor.shutdown(wait=False)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported to start()
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
            else:  # pragma: no cover - post-startup loop crash
                traceback.print_exc()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        self.server_address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()
        # asyncio.run's teardown cancels the still-open connection tasks
        # (long-lived SSE streams included) once this coroutine returns.

    # -- connection handling -------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=KEEPALIVE_TIMEOUT
                    )
                except asyncio.LimitOverrunError:
                    await self._write(
                        writer,
                        error_response(431, "headers_too_large", "request head too large"),
                        keep_alive=False,
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionResetError,
                ):
                    return  # client closed (or went quiet past the timeout)
                request = _parse_head(head)
                if request is None:
                    await self._write(
                        writer,
                        error_response(400, "malformed_request", "unparsable request head"),
                        keep_alive=False,
                    )
                    return
                if not await self._read_body(reader, writer, request):
                    return
                response = await self._dispatch(request)
                keep_alive = request.keep_alive and response.stream is None
                await self._write(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            # The client hung up mid-exchange; its prerogative -- but
            # never silent: flaky clients/load balancers show up here.
            CLIENT_DISCONNECTS.inc()
            _log.warning("client disconnected mid-exchange")
            return
        except asyncio.CancelledError:
            # Shutdown cancels every open link (idle keep-alive clients
            # included); ending normally keeps the stream protocol from
            # reporting the cancelled handler as an error.
            return
        finally:
            writer.close()
            with suppress(Exception):
                await writer.wait_closed()

    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: Request,
    ) -> bool:
        """Read the declared body onto ``request``; ``False`` aborts the link.

        Only ``Content-Length`` framing is supported.  A body the server
        cannot frame is refused and the link closed, so its bytes are
        never parsed as the next request.
        """
        if "transfer-encoding" in request.headers:
            await self._write(
                writer,
                error_response(
                    501,
                    "unsupported_transfer_encoding",
                    "Transfer-Encoding is not supported; send Content-Length",
                ),
                keep_alive=False,
            )
            return False
        raw_length = request.headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            await self._write(
                writer,
                error_response(400, "malformed_request", "bad Content-Length"),
                keep_alive=False,
            )
            return False
        limit = MAX_BODY_BYTES
        if any(request.path.startswith(prefix) for prefix in self.large_body_prefixes):
            limit = MAX_LARGE_BODY_BYTES
        if length > limit:
            await self._write(
                writer,
                error_response(
                    413, "body_too_large", f"request body exceeds {limit} bytes"
                ),
                keep_alive=False,
            )
            # Drain (a bounded amount of) the rejected body before closing:
            # closing with unread bytes in flight makes the kernel RST the
            # connection, which can destroy the 413 before the client reads
            # it.  Past the drain cap the reset is accepted as the lesser
            # evil -- the cap keeps a hostile Content-Length from pinning
            # the connection open.
            remaining = min(length, 4 * MAX_BODY_BYTES)
            with suppress(asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionResetError):
                while remaining > 0:
                    chunk = await asyncio.wait_for(
                        reader.read(min(65536, remaining)), timeout=BODY_TIMEOUT
                    )
                    if not chunk:
                        break
                    remaining -= len(chunk)
            return False
        if length > 0:
            try:
                request.body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=BODY_TIMEOUT
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return False
        return True

    async def _dispatch(self, request: Request) -> Response:
        matched = self.router.match_route(request.method, request.path)
        if matched is None:
            response = error_response(
                404, "unknown_route", f"no such route: {request.method} {request.path}"
            )
            REQUEST_LATENCY.observe(
                0.0, method=request.method, route="<unmatched>", status=404
            )
            return response
        handler, params, route = matched
        request.params = params
        started = time.perf_counter()
        try:
            response = await handler(request)
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - one request must not kill the loop
            HANDLER_ERRORS.inc(route=route)
            _log.exception(
                "handler failed: %s %s (route %s)", request.method, request.path, route
            )
            response = error_response(500, "internal_error", "unhandled server error")
        REQUEST_LATENCY.observe(
            time.perf_counter() - started,
            method=request.method,
            route=route,
            status=response.status,
        )
        return response

    async def _write(
        self, writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        headers: List[Tuple[str, str]] = [("Content-Type", response.content_type)]
        headers.extend(response.headers)
        if response.stream is None:
            headers.append(("Content-Length", str(len(response.body))))
            headers.append(("Connection", "keep-alive" if keep_alive else "close"))
        else:
            # Streams are delimited by connection close (no chunked
            # encoding needed for SSE; EventSource reconnects by design).
            headers.append(("Connection", "close"))
        reason = _REASONS.get(response.status, "Unknown")
        head = f"HTTP/1.1 {response.status} {reason}\r\n"
        head += "".join(f"{key}: {value}\r\n" for key, value in headers)
        head += "\r\n"
        writer.write(head.encode("latin-1") + response.body)
        await writer.drain()
        if response.stream is not None:
            stream = response.stream
            try:
                async for chunk in stream:
                    writer.write(chunk if isinstance(chunk, bytes) else chunk.encode())
                    await writer.drain()
            finally:
                aclose = getattr(stream, "aclose", None)
                if aclose is not None:
                    with suppress(Exception):
                        await aclose()
