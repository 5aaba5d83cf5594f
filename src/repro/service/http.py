"""Stdlib-asyncio HTTP/1.1 transport for :class:`ModelService`.

No web framework: requests are parsed straight off the asyncio stream
(request line, headers, ``Content-Length`` body) and answered with
JSON.  The subset implemented is exactly what the API needs --
``GET``/``POST``, keep-alive, ``Connection: close`` -- plus defensive
limits (header and body size caps) so a malformed client cannot wedge
the loop.  Everything model-shaped lives in
:mod:`repro.service.app`; this module only moves bytes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
from typing import Dict, Optional, Set, Tuple

from ..obs.logging import configure_logging, get_logger, log_event
from .app import ModelService, ServiceConfig
from .events import EventStreamResponse

__all__ = [
    "start_server",
    "run_server",
    "serve_until",
    "write_stream_response",
    "TextPayload",
    "EncodedBody",
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
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_log = get_logger("service")

#: Content type of the Prometheus text exposition (format 0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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


class _ProtocolError(Exception):
    """Malformed HTTP from the client; answered then disconnected."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, dict, bytes]]:
    """One request off the wire: (method, path, headers, body).

    Returns None on a clean EOF between requests (keep-alive close).
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _ProtocolError(400, "request line too long")
    if not request_line:
        return None
    try:
        method, path, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        raise _ProtocolError(400, "malformed request line")

    headers = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
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
    try:
        length = int(length_text)
    except ValueError:
        raise _ProtocolError(400, f"bad Content-Length {length_text!r}")
    if length < 0:
        raise _ProtocolError(400, f"bad Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _ProtocolError(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


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
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


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
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {stream.content_type}",
        "Cache-Control: no-cache",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
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
    service: ModelService,
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
            if service.fastpath is not None:
                # Materialized byte cache: untraced keep-alive POSTs
                # on the model endpoints replay a pre-encoded response
                # (no id headers, deferred accounting) in microseconds.
                blob = service.fastpath.response_bytes(
                    method, path, headers, body
                )
                if blob is not None:
                    writer.write(blob)
                    await writer.drain()
                    continue
            status, payload, response_headers = (
                await service.handle_request(method, path, body, headers)
            )
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


async def start_server(
    service: ModelService,
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
    config = service.config
    if sock is not None:
        return await asyncio.start_server(
            lambda r, w: _handle_connection(service, r, w), sock=sock
        )
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w),
        config.host if host is None else host,
        config.port if port is None else port,
    )


async def serve_until(
    service: ModelService,
    stop: "asyncio.Event",
    host: Optional[str] = None,
    port: Optional[int] = None,
    ready: Optional["asyncio.Event"] = None,
    sock: Optional[socket.socket] = None,
) -> None:
    """Serve until ``stop`` is set, then shut down gracefully.

    Graceful means: stop accepting new connections, give the
    connections already open up to ``config.drain_timeout_s`` to
    finish their in-flight requests, then close the service -- which
    drains running campaign jobs and flushes the campaign store --
    before returning.  Connections still open after the drain budget
    are cancelled rather than waited on forever.

    ``ready`` (if given) is set once the listening socket is bound;
    tests use it to connect before triggering ``stop``.
    """
    config = service.config
    connections: Set["asyncio.Task"] = set()

    async def _tracked(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await _handle_connection(service, reader, writer)
        finally:
            connections.discard(task)

    if sock is not None:
        server = await asyncio.start_server(_tracked, sock=sock)
    else:
        server = await asyncio.start_server(
            _tracked,
            config.host if host is None else host,
            config.port if port is None else port,
        )
    bound = server.sockets[0].getsockname()
    log_event(
        _log,
        "listening",
        host=bound[0],
        port=bound[1],
        batch_window_ms=config.batch_window_ms,
        max_inflight=config.max_inflight,
        trace_file=config.trace_file,
    )
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
                connections, timeout=config.drain_timeout_s
            )
            for task in still_open:
                task.cancel()
        service.close()
        log_event(_log, "shutdown")


def run_server(config: Optional[ServiceConfig] = None) -> None:
    """Blocking entry point used by ``repro-hetsim serve``.

    Configures the structured JSON log (level from ``--log-level`` /
    ``REPRO_LOG_LEVEL``) and serves until SIGTERM/SIGINT, then drains
    in-flight requests and flushes the campaign store before exiting
    (see :func:`serve_until`).
    """
    config = config or ServiceConfig()
    configure_logging(config.log_level)

    async def _main() -> None:
        service = ModelService(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support fall back to
                # the KeyboardInterrupt path below.
                pass
        await serve_until(service, stop)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        log_event(_log, "shutdown")
