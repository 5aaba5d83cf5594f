"""Front end proxying keep-alive HTTP/1.1 onto the worker fleet.

The router is a handler on the :mod:`repro.service.http` loop, like
:class:`~repro.service.app.ModelService`: the loop terminates client
connections and frames every message, the router routes.  It computes
each request's shard key (:func:`~repro.cluster.hashring.shard_key`),
forwards the request to the rendezvous owner over a pooled keep-alive
upstream connection, and relays the response.  All model work happens
in workers, and the router process loads no model, tensor or campaign
code.  The router parses a request body only for its shard key,
and never decodes an answer it relays: the client gets the worker's
body bytes under the worker's content type.  Only the merged views
below decode worker JSON.

Cross-worker concerns it *does* own:

* **`/metrics`** -- scatter to every live worker, answer one merged
  view: JSON mode returns ``{"cluster", "router", "workers": {...}}``;
  Prometheus mode merges all expositions with ``worker`` labels via
  :func:`~repro.cluster.prommerge.merge_expositions` (router series
  carry ``worker="router"``).
* **`/healthz`** -- reflects fleet liveness: 200 ``ok`` with all
  workers up, 200 ``degraded`` with some down (respawn in progress),
  503 when none are serving.
* **`/v1/jobs/{id}`** -- job ids are worker-local, so lookups
  scatter-gather: the first non-404 answer wins.
* **`/v1/traces`** -- a clustered trace crosses processes; the router
  gathers every worker's span ring buffer, tags each span with its
  ``worker`` name (its own spans as ``worker="router"``), and answers
  one time-ordered view with fleet-wide eviction accounting.
* **`/v1/profile`** -- concurrent sampled-profile captures on every
  worker, merged into one folded view whose stacks carry a leading
  ``worker:wN`` frame (the flamegraph keeps per-worker attribution).
* **`/v1/events`** -- job event streams live on the worker that owns
  the job; the router finds the owner and the loop splices its
  response -- chunked SSE tail included -- through byte for byte.
  The router's own ``cluster`` stream (worker respawns) is served
  locally.
* **Traces** -- the router honours the tracing opt-in exactly as a
  worker does (:func:`~repro.service.http.fast_path_eligible`).  An
  untraced keep-alive model POST crosses with no router span, no id
  forwarded and no access line, so the owning worker can answer it
  from its byte cache; it carries whatever ids the worker answered
  with (none on a 2xx, the worker's own on an error).  Every other
  request gets the root ``router.request`` span, whose trace id is
  forwarded as ``X-Request-Id`` upstream; the worker's identity rule
  adopts a 32-hex request id as its trace id, so one request is one
  trace across both processes with zero new protocol.
* **Failure semantics** -- a dead upstream mid-request is retried on
  the next-ranked worker for idempotent GETs; an in-flight POST gets
  an honest one-line 503 (the model cannot know whether the worker
  executed it).  Every upstream failure nudges the supervisor to
  poll-and-respawn.  An unexpected error in the router itself is
  answered 500 ``InternalError`` with its traceback logged, as a
  worker answers its own.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, quote

from ..errors import MethodNotAllowedError, NotFoundError, ServiceError
from ..obs.logging import get_logger, log_event
from ..obs.metrics import MetricsRegistry, render_merged
from ..obs.prof import FoldedProfile
from ..obs.stream import EventBus
from ..obs.trace import get_tracer
from ..service.events import EventStreamResponse, events_payload
from ..service.http import (
    EncodedBody,
    RawStream,
    TextPayload,
    _ProtocolError,
    encode_request,
    fast_path_eligible,
    read_response,
    request_identity,
    serve_until,
    small_reads,
)
from ..service.schemas import (
    InternalErrorPayload,
    error_payload,
    parse_events_query,
    parse_limit,
    parse_profile_query,
    query_stream,
)
from .hashring import rendezvous_rank, shard_key
from .prommerge import merge_expositions
from .supervisor import ClusterConfig, WorkerSupervisor

__all__ = ["Router", "UpstreamError"]

_log = get_logger("cluster.router")

#: How often the router checks worker liveness and respawns the dead.
POLL_INTERVAL_S = 0.25

#: Upstream connect timeout; workers are local processes, so short.
CONNECT_TIMEOUT_S = 5.0


class UpstreamError(Exception):
    """A worker could not be reached or died mid-response."""


#: Identity headers a worker's full pipeline answers with.
_ID_HEADERS = ("X-Request-Id", "X-Trace-Id")


def _relay(
    headers: Dict[str, str], body: bytes
) -> Tuple[EncodedBody, Dict[str, str]]:
    """One worker's answer as sent: its body bytes and its ids.

    A byte-cache answer carries no ids; a full-pipeline one carries
    the worker's ``X-Request-Id``/``X-Trace-Id``.
    """
    ids = {
        name: headers[name.lower()]
        for name in _ID_HEADERS
        if name.lower() in headers
    }
    content_type = headers.get("content-type", "application/octet-stream")
    return EncodedBody(body, content_type), ids


def _decode_payload(headers: Dict[str, str], body: bytes):
    """A worker's body, decoded for a merge of several workers."""
    content_type = headers.get("content-type", "")
    if content_type.startswith("application/json"):
        try:
            return json.loads(body)
        except ValueError:
            return body.decode("utf-8", "replace")
    return body.decode("utf-8", "replace")


class Router:
    """Shard-aware reverse proxy over a :class:`WorkerSupervisor`."""

    #: No byte cache: every request crosses :meth:`handle_request`.
    fastpath = None

    def __init__(
        self,
        config: ClusterConfig,
        supervisor: WorkerSupervisor,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.supervisor = supervisor
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.tracer = get_tracer()
        self._requests = self.registry.counter(
            "repro_cluster_requests_total",
            "Requests routed to serving workers by outcome",
        )
        self._latency = self.registry.histogram(
            "repro_cluster_request_seconds",
            "Router-observed request latency in seconds",
        )
        # Idle upstream keep-alive connections, keyed by (worker, port)
        # so connections to a pre-respawn incarnation die with its port.
        self._pools: Dict[
            Tuple[str, int],
            List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
        ] = {}
        self._started_monotonic = time.monotonic()
        #: The actually-bound listening port, set once serving (tests
        #: and the embedded bench pass ``port=0``).
        self.bound_port: Optional[int] = None
        #: Cluster-lifecycle events no single worker can observe
        #: (respawns seen by the watchdog), served from the always-open
        #: ``cluster`` stream of a router-local bus.
        self.events = EventBus(registry=self.registry)
        self.events.ensure_stream("cluster")

    # ------------------------------------------------------------------
    # upstream plumbing

    def _checkout(
        self, worker: str, port: int
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        pool = self._pools.get((worker, port))
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer
        return None

    def _checkin(
        self,
        worker: str,
        port: int,
        conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        self._pools.setdefault((worker, port), []).append(conn)

    async def _connect(
        self, port: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.config.host, port),
                timeout=CONNECT_TIMEOUT_S,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise UpstreamError(f"connect to port {port} failed: {exc}")
        small_reads(writer)
        return reader, writer

    async def _upstream_request(
        self,
        worker: str,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request to one worker, reusing a pooled connection.

        A pooled connection that fails before any response byte is
        retried once on a fresh connection (it merely went stale while
        idle); failure on the fresh connection means the worker itself
        is gone and raises :class:`UpstreamError`.
        """
        port = self.supervisor.ports().get(worker)
        if port is None:
            raise UpstreamError(f"worker {worker} has no port")
        request = encode_request(
            method, path, {"Host": "worker", **headers}, body
        )
        pooled = self._checkout(worker, port)
        if pooled is not None:
            try:
                return await self._exchange(worker, port, pooled, request)
            except (
                UpstreamError,
                ConnectionError,
                asyncio.IncompleteReadError,
            ):
                pass  # fall through to a fresh connection
        conn = await self._connect(port)
        try:
            return await self._exchange(worker, port, conn, request)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            raise UpstreamError(f"worker {worker} died mid-request: {exc}")

    async def _exchange(
        self, worker: str, port: int, conn, request: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send ``request`` on ``conn`` and read the answer; the
        connection is pooled after a whole answer, closed otherwise."""
        reader, writer = conn
        try:
            writer.write(request)
            await writer.drain()
            response = await read_response(reader)
            if response is None:
                raise UpstreamError("upstream closed before responding")
        except _ProtocolError as exc:
            writer.close()
            raise UpstreamError(f"worker {worker} sent bad HTTP: {exc}")
        except BaseException:
            writer.close()
            raise
        self._checkin(worker, port, conn)
        return response

    def _alive_workers(self) -> List[str]:
        return sorted(
            name
            for name, alive in self.supervisor.alive().items()
            if alive and name in self.supervisor.ports()
        )

    # ------------------------------------------------------------------
    # request handling

    async def handle_request(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, Dict[str, str]]:
        """Route one request; mirrors ``ModelService.handle_request``.

        Identity follows the worker's own rule: a request its byte
        cache may answer (:func:`~repro.service.http.fast_path_eligible`)
        crosses with no router span, no id forwarded upstream and no
        access line, and keeps the ids the worker answered with --
        none on a 2xx, the worker's own on an error.  Every other
        request opens the root ``router.request`` span and carries
        the router's ids.
        """
        start = time.perf_counter()
        headers = headers or {}
        bare_path = path.partition("?")[0]
        upstream_headers = {
            "Content-Type": headers.get("content-type", "application/json"),
        }
        if fast_path_eligible(method, path, headers):
            status, payload, worker, ids = await self._answer(
                method, path, bare_path, upstream_headers, body
            )
            self._account(worker, status, start)
            return status, payload, ids
        request_id, trace_id = request_identity(headers)
        span = self.tracer.span(
            "router.request",
            trace_id=trace_id,
            attributes={
                "method": method,
                "path": bare_path,
                "request_id": request_id,
            },
        )
        with span:
            # The worker adopts a 32-hex X-Request-Id as its trace id,
            # so forwarding our trace id joins both processes' spans
            # into one trace.
            upstream_headers["X-Request-Id"] = span.trace_id
            status, payload, worker, _ids = await self._answer(
                method, path, bare_path, upstream_headers, body, request_id
            )
            span.set_attribute("status", status)
            span.set_attribute("worker", worker)
        latency = self._account(worker, status, start)
        log_event(
            _log,
            "router.access",
            method=method,
            path=bare_path,
            status=status,
            worker=worker,
            latency_ms=round(latency * 1000, 3),
            request_id=request_id,
            trace_id=span.trace_id,
        )
        return status, payload, {
            "X-Request-Id": request_id,
            "X-Trace-Id": span.trace_id,
        }

    def _account(self, worker: str, status: int, start: float) -> float:
        """Count one routed request; returns its latency in seconds."""
        latency = time.perf_counter() - start
        outcome = "ok" if status < 500 else "error"
        self._requests.inc(worker=worker, outcome=outcome)
        self._latency.observe(latency)
        return latency

    async def _answer(
        self,
        method: str,
        path: str,
        bare_path: str,
        headers: Dict[str, str],
        body: bytes,
        request_id: Optional[str] = None,
    ) -> Tuple[int, object, str, Dict[str, str]]:
        """:meth:`_route`, with its failures answered as payloads.

        ``request_id`` is a traced request's, for the failure log
        line; its trace id is the log's current span context.
        """
        try:
            return await self._route(method, path, bare_path, headers, body)
        except UpstreamError as exc:
            self.supervisor.poll()
            return 503, error_payload(exc), "none", {}
        except ServiceError as exc:
            # A malformed query to a router-owned endpoint: the
            # shared parsers name it exactly as a worker would.
            return exc.http_status, error_payload(exc), "router", {}
        except Exception as exc:
            payload = InternalErrorPayload(exc)
            log_event(
                _log, "router.failed", level=logging.ERROR,
                method=method, path=bare_path, error=payload["message"],
                request_id=request_id, traceback=payload.traceback,
            )
            return 500, payload, "router", {}

    async def _route(
        self,
        method: str,
        path: str,
        bare_path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, object, str, Dict[str, str]]:
        """(status, payload, worker_label, worker_ids) for one request.

        A worker's answer is relayed as the bytes it sent, with the id
        headers it sent; router-owned endpoints carry no worker ids.
        """
        if bare_path == "/healthz":
            return self._healthz() + ("router", {})
        if bare_path == "/metrics":
            return await self._metrics(path, headers) + ("router", {})
        if bare_path == "/v1/traces":
            return await self._scatter_traces(path, headers) + (
                "router", {},
            )
        if bare_path == "/v1/profile":
            return await self._scatter_profile(path, headers) + (
                "router", {},
            )
        if bare_path == "/v1/events":
            return await self._events(method, path, headers)
        if bare_path.startswith("/v1/jobs/"):
            return await self._scatter_job(method, path, headers, body)
        workers = self._alive_workers()
        if not workers:
            raise UpstreamError("no live workers")
        key = shard_key(bare_path, body)
        if key is None:
            # No locality to preserve: any worker will do; spread by
            # rendezvous on the path so unkeyed traffic still balances.
            key = bare_path
        ranked = rendezvous_rank(key, workers)
        last_error: Optional[UpstreamError] = None
        for attempt, worker in enumerate(ranked):
            try:
                status, response_headers, response_body = (
                    await self._upstream_request(
                        worker, method, path, headers, body
                    )
                )
            except UpstreamError as exc:
                last_error = exc
                self.supervisor.poll()
                if method != "GET":
                    # Non-idempotent: the worker may or may not have
                    # executed it; an honest 503 beats a silent retry.
                    raise UpstreamError(
                        f"worker {worker} failed mid-{method}: {exc}"
                    )
                if attempt + 1 < len(ranked):
                    self._requests.inc(worker=worker, outcome="retried")
                continue
            payload, ids = _relay(response_headers, response_body)
            return status, payload, worker, ids
        raise last_error or UpstreamError("no live workers")

    def _healthz(self) -> Tuple[int, object]:
        liveness = self.supervisor.liveness()
        alive = liveness["alive"]
        configured = liveness["configured"]
        if alive == 0:
            status, state = 503, "unavailable"
        elif alive < configured:
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        return status, {
            "status": state,
            "role": "router",
            "topology": self.config.topology(),
            "cluster": liveness,
        }

    async def _metrics(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        workers = self._alive_workers()
        prom = "format=prom" in path
        responses: Dict[str, Tuple[int, Dict[str, str], bytes]] = {}
        results = await asyncio.gather(
            *(
                self._upstream_request(worker, "GET", path, headers, b"")
                for worker in workers
            ),
            return_exceptions=True,
        )
        for worker, result in zip(workers, results):
            if isinstance(result, BaseException):
                continue  # mid-scrape death: report the survivors
            responses[worker] = result
        if prom:
            expositions = {
                worker: body.decode("utf-8", "replace")
                for worker, (status, _headers, body) in responses.items()
                if status == 200
            }
            # The supervisor's fleet gauges (worker counts, respawns)
            # live in its own registry; merge them into the router's
            # series so one scrape covers routing *and* liveness.
            expositions["router"] = render_merged(
                self.registry, self.supervisor.registry
            )
            return 200, merge_expositions(expositions)
        merged: Dict[str, object] = {
            "cluster": {
                "topology": self.config.topology(),
                "liveness": self.supervisor.liveness(),
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
            },
            "router": self.registry.snapshot(),
            "workers": {
                worker: _decode_payload(response_headers, body)
                for worker, (status, response_headers, body)
                in sorted(responses.items())
                if status == 200
            },
        }
        return 200, merged

    async def _scatter_job(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, object, str, Dict[str, str]]:
        """``/v1/jobs/{id}``: ids are worker-local, ask everyone."""
        workers = self._alive_workers()
        if not workers:
            raise UpstreamError("no live workers")
        fallback: Optional[Tuple[int, object, str, Dict[str, str]]] = None
        for worker in workers:
            try:
                status, response_headers, response_body = (
                    await self._upstream_request(
                        worker, method, path, headers, body
                    )
                )
            except UpstreamError:
                self.supervisor.poll()
                continue
            payload, ids = _relay(response_headers, response_body)
            if status != 404:
                return status, payload, worker, ids
            fallback = (status, payload, worker, ids)
        if fallback is None:
            raise UpstreamError("no worker answered the job lookup")
        return fallback

    # ------------------------------------------------------------------
    # fleet-wide telemetry

    async def _scatter_traces(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        """``GET /v1/traces``: one merged view of every ring buffer.

        A clustered request's trace crosses processes -- the router's
        ``router.request`` span and the owning worker's job and task
        spans share one trace id but live in different buffers.  The
        router forwards the query (trace_id / limit filters included)
        to every live worker, tags each returned span with its
        ``worker`` name, folds in its own buffer as ``worker="router"``,
        and answers in global start-time order.  Eviction is summed
        fleet-wide so a partial merged trace still says so.
        """
        query = parse_qs(path.partition("?")[2])
        trace_id = query.get("trace_id", [None])[0]
        limit = parse_limit(query)
        workers = self._alive_workers()
        results = await asyncio.gather(
            *(
                self._upstream_request(worker, "GET", path, headers, b"")
                for worker in workers
            ),
            return_exceptions=True,
        )
        spans: List[Dict[str, object]] = []
        buffers: Dict[str, object] = {}
        dropped = 0
        for worker, result in zip(workers, results):
            if isinstance(result, BaseException):
                continue  # mid-scrape death: merge the survivors
            status, response_headers, response_body = result
            if status != 200:
                continue
            payload = _decode_payload(response_headers, response_body)
            if not isinstance(payload, dict):
                continue
            for span in payload.get("spans", []):
                tagged = dict(span)
                tagged["worker"] = worker
                spans.append(tagged)
            buffer = payload.get("buffer", {})
            buffers[worker] = buffer
            if isinstance(buffer, dict):
                dropped += int(buffer.get("dropped", 0) or 0)
        for span in self.tracer.spans(trace_id=trace_id, limit=limit):
            tagged = dict(span)
            tagged["worker"] = "router"
            spans.append(tagged)
        router_stats = self.tracer.stats()
        dropped += int(router_stats.get("dropped", 0) or 0)
        spans.sort(key=lambda s: s.get("start_unix", 0.0))
        if limit is not None:
            # Per-source limits already applied upstream; keep the
            # *newest* ``limit`` of the merged view, matching the
            # single-node endpoint's recency bias.
            spans = spans[len(spans) - limit:] if limit else []
        payload: Dict[str, object] = {
            "spans": spans,
            "count": len(spans),
            "workers": buffers,
            "router": router_stats,
        }
        if dropped:
            payload["eviction"] = {
                "dropped": dropped,
                "note": (
                    f"ring buffers evicted {dropped} span(s) across "
                    f"the fleet; traces may be incomplete -- raise the "
                    f"buffer size or export with --trace-file for a "
                    f"full record"
                ),
            }
        return 200, payload

    async def _scatter_profile(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        """``GET /v1/profile``: every worker sampled, one merged view.

        The capture windows run concurrently (total wall time is one
        ``seconds``, not workers x seconds).  Each worker's folded
        profile is tagged ``worker="wN"`` and folded into a merged
        profile whose stacks gain a leading ``worker:wN`` frame -- the
        per-worker attribution survives inside the flamegraph itself,
        mirroring the ``/v1/traces`` merge.  The router process does
        not sample; it only aggregates.
        """
        seconds, fmt = parse_profile_query(parse_qs(path.partition("?")[2]))
        workers = self._alive_workers()
        if not workers:
            raise UpstreamError("no live workers")
        upstream_path = f"/v1/profile?seconds={seconds:g}&format=json"
        results = await asyncio.gather(
            *(
                self._upstream_request(
                    worker, "GET", upstream_path, headers, b""
                )
                for worker in workers
            ),
            return_exceptions=True,
        )
        merged = FoldedProfile()
        per_worker: Dict[str, object] = {}
        for worker, result in zip(workers, results):
            if isinstance(result, BaseException):
                continue  # mid-capture death: merge the survivors
            status, response_headers, response_body = result
            if status != 200:
                continue
            payload = _decode_payload(response_headers, response_body)
            if not isinstance(payload, dict):
                continue
            payload["worker"] = worker
            per_worker[worker] = payload
            try:
                profile = FoldedProfile.from_payload(payload)
            except (TypeError, ValueError):
                continue
            merged.merge(profile, prefix=f"worker:{worker}")
        if not per_worker:
            return 503, error_payload(
                UpstreamError("no worker answered the profile capture")
            )
        if fmt == "folded":
            return 200, TextPayload(merged.to_text())
        doc = merged.payload()
        doc["top"] = merged.top_self(10)
        return 200, {
            "seconds": seconds,
            "workers": per_worker,
            "merged": doc,
        }

    async def _find_stream_owner(self, stream: str) -> Optional[str]:
        """The worker that knows ``stream``, or ``None``.

        One probe shape covers job streams and worker-local named
        streams alike: a zero-limit batch read answers 200 from the
        worker holding the stream and 404 everywhere else.
        """
        probe = f"/v1/events?stream={quote(stream, safe='')}&cursor=0&limit=0"
        headers = {"Content-Type": "application/json"}
        for worker in self._alive_workers():
            try:
                status, _headers, _body = await self._upstream_request(
                    worker, "GET", probe, headers, b""
                )
            except UpstreamError:
                self.supervisor.poll()
                continue
            if status == 200:
                return worker
        return None

    async def _events(
        self, method: str, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object, str, Dict[str, str]]:
        """``GET /v1/events``: the router's streams here, workers' spliced.

        The router's own streams (today the always-open ``cluster``
        stream of worker respawns) are served with the worker
        endpoint's contract and query parsers.  For any other stream
        the owning worker shapes the response (JSON batch or chunked
        SSE tail) and the loop relays its bytes verbatim (a
        :class:`~repro.service.http.RawStream`) from a fresh
        ``Connection: close`` upstream, so a long tail never pins a
        pooled connection.  A worker dying mid-tail simply ends the
        relay -- the client reconnects with its last cursor and the
        durable replay path fills the gap.
        """
        if method != "GET":
            raise MethodNotAllowedError("use GET for /v1/events")
        query = parse_qs(path.partition("?")[2])
        stream = query_stream(query)
        if not stream or self.events.known(stream):
            stream, cursor, follow = parse_events_query(query)
            if follow:
                events = EventStreamResponse(
                    self.events, stream, cursor=cursor
                )
            else:
                events = events_payload(
                    self.events, stream, cursor=cursor,
                    limit=parse_limit(query),
                )
            return 200, events, "router", {}
        owner = await self._find_stream_owner(stream)
        if owner is None:
            raise NotFoundError(f"no event stream {stream!r} on any worker")
        port = self.supervisor.ports().get(owner)
        if port is None:
            raise UpstreamError(f"worker {owner} has no port")
        reader, writer = await self._connect(port)
        # No drain: a worker gone by now ends the relay at once, as
        # one dying mid-tail does.
        writer.write(
            encode_request(
                "GET", path, {"Host": "worker", **headers}, keep_alive=False
            )
        )
        self._requests.inc(worker=owner, outcome="streamed")
        log_event(
            _log, "router.events_proxy", worker=owner, stream=stream
        )
        return 200, RawStream(reader, writer), owner, {}

    # ------------------------------------------------------------------
    # lifecycle: a handler on the service.http loop, plus the watchdog

    async def serve_until(
        self,
        stop: "asyncio.Event",
        host: Optional[str] = None,
        port: Optional[int] = None,
        ready: Optional["asyncio.Event"] = None,
    ) -> None:
        """Serve and watch the fleet until ``stop`` is set."""
        watchdog = asyncio.ensure_future(self._watchdog(stop))
        try:
            await serve_until(self, stop, host, port, ready)
        finally:
            watchdog.cancel()

    def listening(self, host: str, port: int) -> None:
        """Loop hook: the listener is bound."""
        self.bound_port = port
        log_event(
            _log, "router.listening", host=host, port=port,
            workers=self.config.workers, routing=self.config.routing,
        )

    def close(self) -> None:
        """Loop hook after the drain: close the upstream pools."""
        for pool in self._pools.values():
            for _reader, pooled_writer in pool:
                pooled_writer.close()
        self._pools.clear()
        log_event(_log, "router.shutdown")

    async def _watchdog(self, stop: "asyncio.Event") -> None:
        """Poll worker liveness (respawning the dead) until ``stop``."""
        while not stop.is_set():
            respawned = await asyncio.get_running_loop().run_in_executor(
                None, self.supervisor.poll
            )
            for worker in respawned:
                self._requests.inc(worker=worker, outcome="respawned")
                # Fleet watchers see the respawn the moment the
                # watchdog does, not on their next /metrics poll.
                self.events.publish(
                    "cluster",
                    "worker.respawn",
                    data={"worker": worker},
                )
            try:
                await asyncio.wait_for(stop.wait(), timeout=POLL_INTERVAL_S)
            except asyncio.TimeoutError:
                pass
