"""Stdlib-asyncio HTTP/1.1: the one module that reads and writes HTTP.

No web framework: messages are parsed straight off the asyncio stream
(start line, headers, ``Content-Length`` body).  The subset is what
the API needs -- ``GET``/``POST``, keep-alive, ``Connection: close``,
chunked SSE tails -- plus limits so a malformed client cannot wedge
the loop: a header line or block over 16 KiB gets 400, a body over
1 MiB gets 413, and ``Content-Length`` must be ASCII digits.

One connection loop serves a *handler*: a
:class:`~repro.service.app.ModelService` or the fleet's
:class:`~repro.cluster.router.Router`.  A handler has a ``config``
(``host``, ``port``, ``drain_timeout_s``), ``handle_request(method,
path, body, headers)`` -> ``(status, payload, headers)``, a
``fastpath`` byte cache or None, and the hooks ``listening(host,
port)`` and ``close()``.  The router talks to its workers through
:func:`encode_request` and :func:`read_response`.

Two rules read request headers, and every tier that parses a request
applies them: :func:`fast_path_eligible` decides whether a request is
traced (the byte cache, :class:`~repro.service.app.ModelService` and
the router all ask it), and :func:`request_identity` gives a traced
request its request and trace ids.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import socket
from typing import (
    Awaitable, Callable, Dict, List, NamedTuple, Optional, Set, Tuple,
)

from ..obs.context import new_span_id
from ..obs.logging import configure_logging, get_logger, log_event
from .config import ServiceConfig
from .events import EventStreamResponse

__all__ = [
    "FAST_PATH_ROUTES",
    "fast_path_eligible",
    "request_identity",
    "start_server",
    "run_server",
    "run_until_signal",
    "serve_until",
    "encode_request",
    "read_response",
    "write_stream_response",
    "TextPayload",
    "EncodedBody",
    "RawStream",
]

#: Hard cap on request bodies (1 MiB is orders beyond any valid query).
MAX_BODY_BYTES = 1 << 20
#: Hard cap on the header block.
MAX_HEADER_BYTES = 16 << 10
#: Bytes asked of each socket read.  asyncio's default reads into a
#: fresh 256 KiB buffer and shrinks it to what arrived.  When glibc
#: carves that buffer from the top of the heap, the freed remainder
#: can cross its trim threshold, so every request trims and regrows
#: the heap: a page fault per request and +50-70% p50 latency on a
#: 2-vCPU VM.  Whether that happens depends on heap layout alone,
#: which any code change moves; a 16 KiB read avoids it.
READ_BYTES = 16 << 10

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_log = get_logger("service")

#: Content type of the Prometheus text exposition (format 0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoints the transport byte cache may answer.
FAST_PATH_ROUTES = {
    "/v1/speedup": "speedup",
    "/v1/sweep": "sweep",
    "/v1/optimize": "optimize",
}

#: Client request ids that can double as W3C-shaped trace ids.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: Request-id header values are echoed back; cap and sanitise them so
#: a hostile client cannot smuggle header-splitting bytes through us.
_REQUEST_ID_SAFE_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def fast_path_eligible(
    method: str, path: str, headers: Dict[str, str]
) -> bool:
    """Whether this request is untraced (so the byte cache may answer).

    ``POST`` on a model endpoint, keep-alive, and no ``X-Request-Id``
    header (``headers`` keyed lower-case, as the transport parses
    them).  Supplying a request id is the opt-in to tracing, id echo
    headers and per-request logs.  A pure function of the request:
    the byte cache, the router and the service's full pipeline ask
    the same question, so an untraced request crosses the fleet
    untraced too.
    """
    return (
        method == "POST"
        and path in FAST_PATH_ROUTES
        and "x-request-id" not in headers
        and headers.get("connection", "keep-alive").lower() != "close"
    )


def request_identity(headers: Dict[str, str]) -> Tuple[str, Optional[str]]:
    """``(request_id, trace_id)`` for one traced request.

    A client-supplied ``X-Request-Id`` is echoed back verbatim when it
    is header-safe (else replaced); when it is shaped like a trace id
    it *becomes* the trace id, so a caller can stitch our spans into
    its own trace.  A None trace id starts a fresh trace.
    """
    supplied = headers.get("x-request-id", "").strip()
    if supplied and _TRACE_ID_RE.match(supplied):
        return supplied, supplied
    if supplied and _REQUEST_ID_SAFE_RE.match(supplied):
        return supplied, None
    return new_span_id(), None


class TextPayload(str):
    """A plain-text response body with its own content type.

    Handlers return one for non-Prometheus text (folded profiles from
    ``GET /v1/profile?format=folded``); the transport ships it verbatim
    under ``content_type`` instead of the 0.0.4 exposition type.
    """

    content_type = "text/plain; charset=utf-8"


class EncodedBody(bytes):
    """A response body already encoded, with its own content type.

    The router relays a worker's answer as one: the bytes the worker
    sent ship verbatim, never decoded and encoded again.
    """

    def __new__(cls, body: bytes, content_type: str) -> "EncodedBody":
        encoded = super().__new__(cls, body)
        encoded.content_type = content_type
        return encoded


class RawStream(NamedTuple):
    """A whole response relayed verbatim from another connection.

    The loop copies ``reader`` to the client until EOF, then closes
    both connections (``writer`` is the other's), also when the client
    leaves first.  The router splices worker event streams as one.
    """

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class _ProtocolError(Exception):
    """Malformed HTTP from the client; answered then disconnected."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _is_digits(text: str) -> bool:
    """RFC 9110 ``1*DIGIT``; ``int`` also takes ``+3``, ``1_0``, ``²``."""
    return text.isascii() and text.isdigit()


async def _read_message(
    reader: asyncio.StreamReader, kind: str, max_body: Optional[int]
) -> Optional[Tuple[List[str], Dict[str, str], bytes]]:
    """One message: (start-line fields, headers, body).

    ``kind`` names the start line in errors (``request`` or
    ``status``); ``max_body`` caps ``Content-Length`` (None reads any
    length).  Returns None on a clean EOF before the start line.
    """
    # readline raises ValueError for a line past the stream's limit.
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _ProtocolError(400, f"{kind} line too long")
    if not line:
        return None
    fields = line.decode("latin-1").strip().split(" ", 2)
    if len(fields) != 3:
        raise _ProtocolError(400, f"malformed {kind} line")

    headers = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _ProtocolError(400, "header block too large")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _ProtocolError(400, "header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _ProtocolError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0")
    if not _is_digits(length_text):
        raise _ProtocolError(400, f"bad Content-Length {length_text!r}")
    length = int(length_text)
    if max_body is not None and length > max_body:
        raise _ProtocolError(
            413, f"body of {length} bytes exceeds {max_body}"
        )
    body = await reader.readexactly(length) if length else b""
    return fields, headers, body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, dict, bytes]]:
    """One request off the wire: (method, path, headers, body).

    Returns None on a clean EOF between requests (keep-alive close).
    """
    message = await _read_message(reader, "request", MAX_BODY_BYTES)
    if message is None:
        return None
    (method, path, _version), headers, body = message
    return method, path, headers, body


async def read_response(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, Dict[str, str], bytes]]:
    """One response off the wire: (status, headers, body), or None if
    the peer closed first.  No body cap: a worker's answer may exceed
    the client cap (a full ``/v1/traces`` ring is over 1 MiB).
    """
    message = await _read_message(reader, "status", None)
    if message is None:
        return None
    (_version, status, _reason), headers, body = message
    if not _is_digits(status):
        raise _ProtocolError(400, f"malformed status {status!r}")
    return int(status), headers, body


def _head(start_line: str, headers: Dict[str, object]) -> bytes:
    """A message head: start line, one line per header, blank line."""
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _encode_response(
    status: int,
    payload,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one response; ``str`` payloads ship as plain text.

    A bare ``str`` is the Prometheus exposition (``GET
    /metrics?format=prom``), which scrapers expect under the 0.0.4 text
    content type, not JSON.  An :class:`EncodedBody` ships as is.
    """
    if isinstance(payload, EncodedBody):
        body, content_type = payload, payload.content_type
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = getattr(payload, "content_type", PROM_CONTENT_TYPE)
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    headers = {
        "Content-Type": content_type,
        "Content-Length": len(body),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    headers.update(extra_headers or {})
    reason = _REASONS.get(status, "Unknown")
    return _head(f"HTTP/1.1 {status} {reason}", headers) + body


def encode_request(
    method: str, path: str, headers: Dict[str, str], body: bytes = b"",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one request, adding ``Content-Length``/``Connection``."""
    connection = "keep-alive" if keep_alive else "close"
    head = {**headers, "Content-Length": len(body), "Connection": connection}
    return _head(f"{method} {path} HTTP/1.1", head) + body


async def write_stream_response(
    writer: asyncio.StreamWriter,
    status: int,
    stream: EventStreamResponse,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Ship a streaming payload as a chunked HTTP response.

    Frames are pulled from ``stream.frames()`` and written as one
    chunk each; the response always closes the connection (SSE
    consumers reconnect with their cursor, which is the protocol's
    resume point anyway).  A vanished client surfaces as a
    ``ConnectionResetError``/``BrokenPipeError`` from ``drain`` and
    propagates to the caller's connection handler.
    """
    headers = {
        "Content-Type": stream.content_type,
        "Cache-Control": "no-cache",
        "Transfer-Encoding": "chunked",
        "Connection": "close",
    }
    headers.update(extra_headers or {})
    reason = _REASONS.get(status, "Unknown")
    writer.write(_head(f"HTTP/1.1 {status} {reason}", headers))
    await writer.drain()
    async for chunk in stream.frames():
        writer.write(
            f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n"
        )
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def small_reads(writer: asyncio.StreamWriter) -> None:
    """Cap the read size of ``writer``'s socket at :data:`READ_BYTES`."""
    writer.transport.max_size = READ_BYTES


async def _handle_connection(
    handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    small_reads(writer)
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _ProtocolError as exc:
                writer.write(
                    _encode_response(
                        exc.status,
                        {"error": "ProtocolError", "message": str(exc)},
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return  # client hung up mid-request
            if request is None:
                return  # clean keep-alive close
            method, path, headers, body = request
            if handler.fastpath is not None:
                # Materialized byte cache: untraced keep-alive POSTs
                # on the model endpoints replay a pre-encoded response
                # (no id headers, deferred accounting) in microseconds.
                blob = handler.fastpath.response_bytes(
                    method, path, headers, body
                )
                if blob is not None:
                    writer.write(blob)
                    await writer.drain()
                    continue
            status, payload, response_headers = (
                await handler.handle_request(method, path, body, headers)
            )
            if isinstance(payload, RawStream):
                # Spliced response: relayed verbatim until the other
                # side closes, which ends this connection too.
                try:
                    while True:
                        chunk = await payload.reader.read(READ_BYTES)
                        if not chunk:
                            return
                        writer.write(chunk)
                        await writer.drain()
                finally:
                    payload.writer.close()
            if isinstance(payload, EventStreamResponse):
                # SSE tail: chunked frames until the stream ends or
                # the client hangs up; either way the connection is
                # done (resume is cursor-based, not connection-based).
                await write_stream_response(
                    writer, status, payload, response_headers
                )
                return
            keep_alive = (
                headers.get("connection", "keep-alive").lower()
                != "close"
            )
            writer.write(
                _encode_response(
                    status, payload, keep_alive, response_headers
                )
            )
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        pass  # client vanished; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _listen(
    handler,
    host: Optional[str],
    port: Optional[int],
    sock: Optional[socket.socket],
    connections: Set["asyncio.Task"],
) -> "asyncio.base_events.Server":
    """Serve ``handler``, each open connection's task in ``connections``."""

    async def _tracked(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await _handle_connection(handler, reader, writer)
        finally:
            connections.discard(task)

    if sock is not None:
        return await asyncio.start_server(_tracked, sock=sock)
    config = handler.config
    return await asyncio.start_server(
        _tracked,
        config.host if host is None else host,
        config.port if port is None else port,
    )


async def start_server(
    service,
    host: Optional[str] = None,
    port: Optional[int] = None,
    sock: Optional[socket.socket] = None,
) -> "asyncio.base_events.Server":
    """Bind and start serving; host/port default to the config's.

    Pass ``port=0`` to bind an ephemeral port (tests do); read the
    actual address back from ``server.sockets[0].getsockname()``.
    ``sock`` serves an already-bound socket instead -- cluster workers
    bind before reporting their port to the supervisor, so the router
    never races a worker that has not opened its listener yet.
    """
    return await _listen(service, host, port, sock, set())


async def serve_until(
    service,
    stop: "asyncio.Event",
    host: Optional[str] = None,
    port: Optional[int] = None,
    ready: Optional["asyncio.Event"] = None,
    sock: Optional[socket.socket] = None,
) -> None:
    """Serve a handler until ``stop`` is set, then shut down gracefully.

    Graceful means: stop accepting new connections, give the
    connections already open up to ``config.drain_timeout_s`` to
    finish their in-flight requests, then close the handler -- a
    service drains running campaign jobs and flushes the campaign
    store, the router closes its upstream pools -- before returning.
    Connections still open after the drain budget are cancelled rather
    than waited on forever.

    ``ready`` (if given) is set once the listening socket is bound;
    tests use it to connect before triggering ``stop``.
    """
    connections: Set["asyncio.Task"] = set()
    server = await _listen(service, host, port, sock, connections)
    bound = server.sockets[0].getsockname()
    service.listening(bound[0], bound[1])
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        log_event(_log, "draining", connections=len(connections))
        server.close()
        await server.wait_closed()
        if connections:
            _, still_open = await asyncio.wait(
                connections, timeout=service.config.drain_timeout_s
            )
            for task in still_open:
                task.cancel()
        service.close()


def run_until_signal(
    serve: Callable[["asyncio.Event"], Awaitable[None]]
) -> None:
    """Run ``serve(stop)`` on a new event loop; SIGTERM/SIGINT set ``stop``.

    The one signal entry point of ``serve``, of each fleet worker and
    of the router.  Platforms without loop signal handlers fall back
    to ``KeyboardInterrupt``, which cancels ``serve`` into its
    shutdown path.
    """

    async def _main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # the KeyboardInterrupt fallback below
        await serve(stop)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def run_server(config: Optional[ServiceConfig] = None) -> None:
    """Blocking entry point used by ``repro-hetsim serve``.

    Configures the structured JSON log (level from ``--log-level`` /
    ``REPRO_LOG_LEVEL``) and serves until SIGTERM/SIGINT, then drains
    in-flight requests and flushes the campaign store before exiting
    (see :func:`serve_until`).
    """
    # Imported here: the service's byte cache encodes through this
    # module, so the app imports it first.
    from .app import ModelService

    config = config or ServiceConfig()
    configure_logging(config.log_level)
    run_until_signal(lambda stop: serve_until(ModelService(config), stop))
