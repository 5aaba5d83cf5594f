"""Transport-independent request handling for the serving layer.

:class:`ModelService` owns the whole request lifecycle:

1. **Route** -- ``GET /healthz``, ``GET /metrics``, ``GET /v1/slo``,
   and the three model endpoints (``/v1/speedup``, ``/v1/sweep``,
   ``/v1/optimize``).
2. **Parse** -- strict JSON-schema validation into frozen request
   dataclasses (400 on any violation).
3. **Cache** -- an LRU keyed on the request dataclass; a hit is
   answered immediately and never reaches the grid.
4. **Evaluate** -- budgets resolve through the memoized
   :func:`~repro.projection.engine.node_budget` and the r-sweep runs
   through :meth:`~repro.service.batching.MicroBatcher.evaluate`, one
   NumPy grid call per (chip, f, r_max) of the request: a sweep's
   five nodes share one call.  Steps 3-4 make one pass with no await,
   so a concurrent duplicate of a request finds its answer cached.
   There is no deadline and no admission queue: the grid call runs
   inline on the loop, and the batched engine bounds it by the
   budgets' serial ceiling.
5. **Account** -- one record per finished request into the instance's
   metrics registry (labelled by route, never by raw path) and SLO
   tracker, behind both ``GET /metrics`` forms.  Tracing is opt-in by
   the rule every serving tier shares
   (:func:`~repro.service.tensor.fast_path_eligible`): a keep-alive
   model ``POST`` without ``X-Request-Id`` that answers 2xx records
   nothing else -- no span, no id, no access line -- exactly as a
   byte-cache replay.  Every other request gets its ids, a root
   ``http.request`` span and a structured JSON access line; an
   untraced request that fails gets them too, built when it ends.

The class is deliberately transport-free (``handle(method, path,
body) -> (status, payload)``) so tests drive the full lifecycle
in-process; :mod:`repro.service.http` adds the asyncio socket layer.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from .._version import __version__
from ..campaign.jobs import JobManager
from ..obs.context import current_context, new_span_id
from ..obs.logging import get_logger, log_event
from ..obs.metrics import MetricsRegistry, get_registry, render_merged
from ..obs.prof import acquire_sampler, release_sampler
from ..obs.slo import SLObjective, SLOTracker
from ..obs.stream import EventBus
from ..obs.trace import Span, get_tracer
from ..core.optimizer import optimize
from ..devices.bce import DEFAULT_BCE
from ..errors import (
    BadRequestError,
    InfeasibleDesignError,
    MethodNotAllowedError,
    ModelError,
    NotFoundError,
    ReproError,
    ServiceError,
)
from ..itrs.scenarios import get_scenario
from ..perf.cache import register_cache_metrics
from ..projection.designs import DesignSpec, standard_designs
from ..projection.engine import node_budget
from .batching import MicroBatcher
from .events import EventStreamResponse, events_payload
from .metrics import metrics_payload
from .respcache import ResponseCache
from .tensor import TensorServing, TransportFastPath, fast_path_eligible
from .schemas import (
    OptimizeRequest,
    SpeedupRequest,
    SweepRequest,
    design_point_payload,
    error_payload,
    parse_dse,
    parse_events_query,
    parse_job,
    parse_limit,
    parse_optimize,
    parse_profile_query,
    parse_speedup,
    parse_sweep,
    request_payload,
)

__all__ = ["ServiceConfig", "ModelService"]

_log = get_logger("service")
_access_log = get_logger("service.access")

#: Client request ids that can double as W3C-shaped trace ids.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: Request-id header values are echoed back; cap and sanitise them so
#: a hostile client cannot smuggle header-splitting bytes through us.
_REQUEST_ID_SAFE_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Root of the campaign result store backing ``POST /v1/jobs``;
    #: None keeps job results in an ephemeral temporary directory.
    store_dir: Optional[str] = None
    #: Graceful-shutdown budget: seconds to drain open connections and
    #: running jobs after SIGTERM/SIGINT before exiting anyway.
    drain_timeout_s: float = 5.0
    #: Append every finished span as one JSON line to this file
    #: (``serve --trace-file``); None keeps spans in memory only.  It
    #: records what is traced anyway (see
    #: :meth:`ModelService.handle_request`) and opts no request in.
    trace_file: Optional[str] = None
    #: Log level for the structured JSON logs (``--log-level`` /
    #: ``REPRO_LOG_LEVEL``); None resolves through the environment.
    log_level: Optional[str] = None
    #: Declarative latency/error objectives per endpoint; None takes
    #: :data:`repro.obs.slo.DEFAULT_OBJECTIVES`.
    slo_objectives: Optional[Tuple["SLObjective", ...]] = None
    #: Directory of a materialized tensor store (``repro-hetsim
    #: materialize build``); None serves everything live.  A store
    #: that fails its integrity checks is quarantined (served around,
    #: reported in ``/healthz``), never trusted.
    tensor_dir: Optional[str] = None
    #: Continuous sampling profiler (``GET /v1/profile``).  Default-on:
    #: the sampler costs well under the 2% overhead budget gated by
    #: ``make bench-profile``; ``serve --no-profile`` turns it off.
    profile: bool = True


class ModelService:
    """The serving layer's request broker (transport-independent).

    One instance per server, used from a single event loop.  Call
    :meth:`close` when done to drain jobs and mark it unready.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        #: The per-instance obs registry backing both /metrics forms;
        #: private, so two services in one process never share counts.
        self.registry = r = MetricsRegistry()
        self._started = time.monotonic()
        self._requests = r.counter(
            "repro_service_requests_total",
            "Finished requests by endpoint and HTTP status",
        )
        self._latency = r.histogram(
            "repro_service_request_seconds",
            "Request latency by endpoint (bounded window)",
        )
        self._cache_lookups = r.counter(
            "repro_service_response_cache_total",
            "Response-cache lookups by result",
        )
        #: Tensor-store outcomes; the fast path's drain counts here too.
        self.tensor_outcomes = r.counter(
            "repro_tensorstore_requests_total",
            "Materialized tensor-store lookups by outcome",
        )
        self._dse = r.counter(
            "repro_dse_requests_total",
            "DSE job submissions by mode and outcome",
        )
        r.gauge(
            "repro_service_uptime_seconds",
            "Seconds since this service instance started",
            callback=lambda: time.monotonic() - self._started,
        )
        register_cache_metrics(r)
        self.tracer = get_tracer()
        if self.config.trace_file is not None:
            self.tracer.set_export_path(self.config.trace_file)
        self.cache = ResponseCache()
        self.batcher = MicroBatcher(registry=self.registry)
        self._closed = False
        #: Per-instance SLO accounting; its repro_slo_* gauges render
        #: through the same registry as the request counters.
        self.slo = SLOTracker(
            objectives=self.config.slo_objectives,
            registry=self.registry,
        )
        #: The live telemetry plane: one stream per campaign job plus
        #: the always-on ``slo`` stream, served by ``GET /v1/events``.
        self.events = EventBus(registry=self.registry)
        self.events.ensure_stream("slo")
        self.slo.add_alert_hook(self._publish_slo_alert)
        self.jobs = JobManager(
            store_dir=self.config.store_dir,
            registry=self.registry,
            events=self.events,
        )
        #: Materialized serving (None when --tensor-dir is not given).
        self.tensor: Optional[TensorServing] = (
            TensorServing.open(self.config.tensor_dir)
            if self.config.tensor_dir is not None
            else None
        )
        #: Transport byte cache; only armed over a *ready* store.
        self.fastpath: Optional[TransportFastPath] = (
            TransportFastPath(self)
            if self.tensor is not None and self.tensor.ready
            else None
        )
        if self.tensor is not None and self.tensor.ready:
            built = self.tensor.built_unix()
            if built is not None:
                self.registry.gauge(
                    "repro_tensorstore_build_age_seconds",
                    "Seconds since the served tensor store was built",
                    callback=lambda: max(0.0, time.time() - built),
                )
        #: The continuous sampling profiler behind ``GET /v1/profile``.
        #: Refcounted process-global: many services (tests build
        #: dozens) share one sampling thread; :meth:`close` releases
        #: this instance's reference.
        self.sampler = (
            acquire_sampler()
            if self.config.profile
            else None
        )
        self._sampler_held = self.sampler is not None

    def listening(self, host: str, port: int) -> None:
        """Transport hook: log the bound address and the trace file."""
        log_event(
            _log, "listening", host=host, port=port,
            trace_file=self.config.trace_file,
        )

    def close(self) -> None:
        """Drain jobs, flush the campaign store, release the profiler
        reference and report unready from then on (idempotent)."""
        self._closed = True
        self._drain_fastpath()
        self.jobs.close(drain_timeout_s=self.config.drain_timeout_s)
        if self._sampler_held:
            self._sampler_held = False
            release_sampler()
        log_event(_log, "shutdown")

    # -- entry point -------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, Any]]:
        """Answer one request: ``(http_status, json_payload)``.

        The historical two-tuple form; the transport uses
        :meth:`handle_request`, which also returns response headers
        (``X-Request-Id``/``X-Trace-Id`` echo).
        """
        status, payload, _headers = await self.handle_request(
            method, path, body
        )
        return status, payload

    async def handle_request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Answer one request: ``(status, payload, response_headers)``.

        ``payload`` is a JSON-ready dict for every endpoint except the
        Prometheus exposition, which is pre-rendered text (the
        transport picks the content type by payload type).  Never
        raises for request-level failures -- every error becomes a
        ``{"error", "message"}`` payload with the matching status.

        A request the byte cache could answer
        (:func:`~repro.service.tensor.fast_path_eligible`: a keep-alive
        model ``POST`` without ``X-Request-Id``) is untraced: answered
        2xx, it records its metrics and SLO event only and carries no
        response headers.  Every other request runs inside a root
        ``http.request`` span: the trace id honours a client-supplied
        ``X-Request-Id`` when it is already a 32-hex trace id, else a
        fresh trace is started and the request id (generated if
        absent) rides along as a span attribute and a response header.
        An untraced request that fails gets the same ids, access line
        and root span, built when it ends and backdated to its start.
        """
        start = time.perf_counter()
        headers = headers or {}
        traced = not fast_path_eligible(method, path, headers)
        path, _, query_text = path.partition("?")
        query = parse_qs(query_text) if query_text else {}
        if traced:
            span, request_id = self._request_span(method, path, headers)
            with span:
                status, payload, cache_state = await self._answer(
                    method, path, body, query, request_id
                )
                _annotate(span, status, cache_state)
        else:
            status, payload, cache_state = await self._answer(
                method, path, body, query, None
            )
        latency = time.perf_counter() - start
        # Deferred fast-path accounting drains first so its (older)
        # capture timestamps reach the SLO tracker before this event's.
        self._drain_fastpath()
        if not traced:
            if status < 400:
                self.account(path, status, latency, cache_state)
                return status, payload, {}
            # An error stays resolvable through GET /v1/traces.
            span, request_id = self._request_span(method, path, headers)
            span.backdate(time.time() - latency, start)
            _annotate(span, status, cache_state)
            span.finish()
        self.account(path, status, latency, cache_state, span.trace_id)
        self._log_access(
            method, path, status, latency, cache_state,
            request_id=request_id, trace_id=span.trace_id,
        )
        response_headers = {
            "X-Request-Id": request_id,
            "X-Trace-Id": span.trace_id,
        }
        return status, payload, response_headers

    def account(
        self,
        path: str,
        status: int,
        latency: float,
        cache_state: Optional[bool] = None,
        trace_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Record one finished request: count, latency, cache, SLO.

        The ``endpoint`` label is the request's route
        (:func:`_route_label`), so a client cannot add series by
        choosing paths.  ``trace_id`` rides along as the latency
        sample's exemplar, so the slowest traced request in the window
        stays resolvable to its trace; ``now`` is the fast path's
        capture time (see :meth:`SLOTracker.record`).
        """
        endpoint = _route_label(path)
        self._requests.inc(endpoint=endpoint, status=str(status))
        self._latency.observe(latency, trace_id=trace_id, endpoint=endpoint)
        if cache_state is not None:
            self._cache_lookups.inc(result="hit" if cache_state else "miss")
        self.slo.record(endpoint, latency, error=status >= 500, now=now)

    def _request_span(
        self, method: str, path: str, headers: Dict[str, str]
    ) -> Tuple[Span, str]:
        """A request's root ``http.request`` span and its request id."""
        request_id, trace_id = self._request_identity(headers)
        span = self.tracer.span(
            "http.request",
            trace_id=trace_id,
            attributes={
                "method": method,
                "path": path,
                "request_id": request_id,
            },
        )
        return span, request_id

    @staticmethod
    def _request_identity(
        headers: Dict[str, str]
    ) -> Tuple[str, Optional[str]]:
        """``(request_id, trace_id)`` for one request.

        A client-supplied ``X-Request-Id`` is echoed back verbatim
        when it is header-safe (else replaced); when it is shaped like
        a trace id it *becomes* the trace id, so a caller can stitch
        our spans into its own trace.
        """
        supplied = headers.get("x-request-id", "").strip()
        if supplied and _TRACE_ID_RE.match(supplied):
            return supplied, supplied
        if supplied and _REQUEST_ID_SAFE_RE.match(supplied):
            return supplied, None
        return new_span_id(), None

    async def _answer(
        self,
        method: str,
        path: str,
        body: bytes,
        query: Dict[str, Any],
        request_id: Optional[str],
    ) -> Tuple[int, Any, Optional[bool]]:
        """:meth:`_dispatch`, with request-level failures as payloads."""
        try:
            return await self._dispatch(method, path, body, query, request_id)
        except ServiceError as exc:
            return exc.http_status, error_payload(exc), None
        except InfeasibleDesignError as exc:
            # Parsed fine, but the budgets admit no design: 422, with
            # the model's binding-bound message passed through.
            return 422, error_payload(exc), None
        except ReproError as exc:
            # Any other intentional model error is a client error.
            return 400, error_payload(exc), None

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        query: Dict[str, Any],
        request_id: Optional[str],
    ) -> Tuple[int, Any, Optional[bool]]:
        """Route one request (the routes are :data:`_ROUTES`)."""
        if path == "/healthz":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            return self._healthz() + (None,)
        if path == "/metrics":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            if query.get("format", [""])[0] == "prom":
                self.slo.refresh_gauges()
                text = render_merged(self.registry, get_registry())
                return 200, text, None
            snapshot = metrics_payload(self.registry)
            snapshot["campaign"] = self.jobs.stats()
            snapshot["slo"] = self.slo.snapshot()
            snapshot["events"] = self.events.stats()
            if self.tensor is not None:
                snapshot["tensorstore"]["store"] = self.tensor.status()
                if self.fastpath is not None:
                    snapshot["tensorstore"]["fastpath"] = (
                        self.fastpath.stats()
                    )
            return 200, snapshot, None
        if path == "/v1/slo":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            return 200, self.slo.snapshot(), None
        if path == "/v1/traces":
            self._require_method(method, "GET", path)
            return 200, self._traces(query), None
        if path == "/v1/profile":
            self._require_method(method, "GET", path)
            return 200, await self._profile(query), None
        if path == "/v1/events":
            self._require_method(method, "GET", path)
            return self._events(query) + (None,)
        if path == "/v1/jobs":
            if method == "POST":
                spec = parse_job(_decode_json(body))
                record = self.jobs.submit(spec, request_id=request_id)
                return 202, self.jobs.payload(record), None
            self._require_method(method, "GET", path)
            return 200, {"jobs": self.jobs.list_payload()}, None
        if path == "/v1/dse":
            self._require_method(method, "POST", path)
            try:
                spec = parse_dse(_decode_json(body))
            except BadRequestError:
                self._dse.inc(mode="invalid", outcome="rejected")
                raise
            mode = "halving" if spec.dse_halving else "pareto"
            record = self.jobs.submit(spec, request_id=request_id)
            self._dse.inc(mode=mode, outcome="accepted")
            return 202, self.jobs.payload(record), None
        if path.startswith("/v1/jobs/"):
            self._require_method(method, "GET", path)
            job_id = path[len("/v1/jobs/"):]
            record = self.jobs.get(job_id)
            if record is None:
                raise NotFoundError(f"no job {job_id!r}")
            return 200, self.jobs.payload(record), None
        if path == "/v1/speedup":
            self._require_method(method, "POST", path)
            request = parse_speedup(_decode_json(body))
            answered = self._tensor_eval(request, "speedup")
            if answered is not None:
                return answered
            return self._cached_eval(request, self._eval_speedup)
        if path == "/v1/sweep":
            self._require_method(method, "POST", path)
            request = parse_sweep(_decode_json(body))
            answered = self._tensor_eval(request, "sweep")
            if answered is not None:
                return answered
            return self._cached_eval(request, self._eval_sweep)
        if path == "/v1/optimize":
            self._require_method(method, "POST", path)
            request = parse_optimize(_decode_json(body))
            answered = self._tensor_eval(request, "optimize")
            if answered is not None:
                return answered
            return self._cached_eval(request, self._eval_optimize)
        raise NotFoundError(f"no route for {path!r}")

    def _drain_fastpath(self) -> None:
        """Flush deferred fast-path accounting before a metrics read."""
        if self.fastpath is not None:
            self.fastpath.drain()

    def _tensor_eval(
        self, request, kind: str
    ) -> Optional[Tuple[int, Dict[str, Any], Optional[bool]]]:
        """Try the materialized store; None means fall back to live.

        Every attempt lands in ``repro_tensorstore_requests_total``:
        ``hit`` (exact grid cell), ``interp`` (harmonic interpolation),
        or ``fallback`` (the store refused -- off-grid, quarantined,
        infeasible, or unknown names -- and the live path now owns the
        request, including its exact error behaviour).
        """
        if self.tensor is None:
            return None
        with (
            nullcontext()
            if current_context() is None  # an untraced request
            else self.tracer.span(
                "tensor.lookup", attributes={"endpoint": kind}
            )
        ) as span:
            answered = getattr(self.tensor, f"{kind}_payload")(request)
            outcome = "fallback" if answered is None else answered[1]
            if span is not None:
                span.set_attribute("outcome", outcome)
        self.tensor_outcomes.inc(outcome=outcome)
        if answered is None:
            return None
        return 200, answered[0], None

    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise MethodNotAllowedError(
                f"{path} only accepts {expected}, got {method}"
            )

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness *and* readiness: can this instance actually serve?

        ``store`` checks the campaign store is open and its root is
        reachable; ``dispatcher`` checks the service has not been
        closed.  Any failed check degrades the answer to 503 so load
        balancers stop routing here while the process is shutting
        down (or its disk has gone away).
        """
        checks = {
            "store": self.jobs.is_open() and self.jobs.store_ok(),
            "dispatcher": not self._closed,
        }
        healthy = all(checks.values())
        payload = {
            "status": "ok" if healthy else "degraded",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started,
            "checks": checks,
            # Informational only: a burning SLO means "stop deploying",
            # not "stop routing", so it never degrades the 200/503
            # readiness contract above.
            "slo": self.slo.overall_status(),
        }
        if self.tensor is not None:
            # Also informational: a quarantined tensor store costs
            # speed (every request falls back to live compute), never
            # correctness, so it does not flip readiness either.
            payload["tensor"] = self.tensor.status()
        return (200 if healthy else 503), payload

    def _publish_slo_alert(self, alert: Dict[str, Any]) -> None:
        """SLO burn episodes land on the always-open ``slo`` stream."""
        self.events.publish("slo", "slo.alert", data=alert)

    def _events(self, query: Dict[str, Any]) -> Tuple[int, Any]:
        """``GET /v1/events``: batch read or SSE tail of one stream.

        ``job_id`` (or the generic ``stream``) names the stream;
        ``cursor`` is the first sequence number wanted; ``follow=1``
        switches from a JSON batch to a chunked SSE tail; ``limit``
        caps a batch read.
        """
        stream, cursor, follow = parse_events_query(query)
        if not self.events.known(stream):
            raise NotFoundError(f"no event stream {stream!r}")
        if follow:
            return 200, EventStreamResponse(
                self.events, stream, cursor=cursor
            )
        return 200, events_payload(
            self.events, stream, cursor=cursor, limit=parse_limit(query)
        )

    async def _profile(self, query: Dict[str, Any]) -> Any:
        """``GET /v1/profile``: one sampled window off the live process.

        ``seconds`` (default 1, max 60) is the capture window --
        request time is dominated by it by design; ``seconds=0`` skips
        the wait and returns everything sampled since the profiler
        started.  ``format=json`` (default) returns the folded stacks
        plus a top-N self-time table; ``format=folded`` returns the
        raw collapsed-stack text that flamegraph.pl and speedscope
        ingest directly.
        """
        if self.sampler is None:
            raise _ProfilerDisabledError(
                "the continuous profiler is off on this instance "
                "(started with --no-profile)"
            )
        seconds, fmt = parse_profile_query(query)
        if seconds > 0:
            mark = self.sampler.mark()
            await asyncio.sleep(seconds)
            profile = self.sampler.window_since(mark)
        else:
            profile = self.sampler.profile()
        if fmt == "folded":
            from .http import TextPayload  # late: http imports app

            return TextPayload(profile.to_text())
        doc = profile.payload()
        doc["top"] = profile.top_self(10)
        return doc

    def _traces(self, query: Dict[str, Any]) -> Dict[str, Any]:
        """The ``GET /v1/traces`` payload: buffered spans, filtered."""
        trace_id = query.get("trace_id", [None])[0]
        spans = self.tracer.spans(trace_id=trace_id, limit=parse_limit(query))
        stats = self.tracer.stats()
        payload = {
            "spans": spans,
            "count": len(spans),
            "buffer": stats,
        }
        dropped = stats.get("dropped", 0)
        if dropped:
            # Eviction is no longer silent: a partial trace says so.
            payload["eviction"] = {
                "dropped": dropped,
                "note": (
                    f"ring buffer evicted {dropped} span(s); traces "
                    f"may be incomplete -- raise the buffer size or "
                    f"export with --trace-file for a full record"
                ),
            }
        return payload

    # -- response cache ----------------------------------------------------

    def _cached_eval(
        self, request, evaluator
    ) -> Tuple[int, Dict[str, Any], bool]:
        """The cached answer, else evaluate and cache it (no await)."""
        hit = self.cache.get(request)
        if hit is not None:
            return 200, hit, True
        payload = evaluator(request)
        self.cache.put(request, payload)
        return 200, payload, False

    # -- evaluators --------------------------------------------------------

    def _find_design(self, workload: str, fft_size, label: str) -> DesignSpec:
        designs = {
            d.short_label: d for d in standard_designs(workload, fft_size)
        }
        try:
            return designs[label]
        except KeyError:
            raise BadRequestError(
                f"unknown design {label!r} for workload {workload!r}; "
                f"available: {sorted(designs)}"
            ) from None

    def _node(self, scenario, node_nm: Optional[int]):
        if node_nm is None:
            return scenario.roadmap.nodes[-1]
        try:
            return scenario.roadmap.node(node_nm)
        except ModelError as exc:
            raise BadRequestError(str(exc)) from None

    def _eval_speedup(self, req: SpeedupRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        design = self._find_design(req.workload, req.fft_size, req.design)
        node = self._node(scenario, req.node_nm)
        budget = node_budget(
            node, req.workload, req.fft_size, scenario, DEFAULT_BCE,
            design.bandwidth_exempt,
        )
        (point,) = self.batcher.evaluate(
            design.chip, req.f, [budget], req.r_max
        )
        if point is None:
            # Re-run the scalar path to raise the exact binding-bound
            # message (error path only; the happy path never pays this).
            optimize(design.chip, req.f, budget, req.r_max)
            raise InfeasibleDesignError(
                f"no feasible design for {design.label} under {budget}"
            )  # pragma: no cover - optimize() raises first
        return {
            "request": request_payload(req),
            "node": node.label,
            "point": design_point_payload(point),
        }

    def _eval_sweep(self, req: SweepRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        design = self._find_design(req.workload, req.fft_size, req.design)
        nodes = scenario.roadmap.nodes
        budgets = [
            node_budget(
                node, req.workload, req.fft_size, scenario,
                DEFAULT_BCE, design.bandwidth_exempt,
            )
            for node in nodes
        ]
        points = self.batcher.evaluate(
            design.chip, req.f, budgets, req.r_max
        )
        cells = []
        for node, point in zip(nodes, points):
            cells.append(
                {
                    "node": node.label,
                    "node_nm": node.node_nm,
                    "feasible": point is not None,
                    "point": (
                        design_point_payload(point) if point else None
                    ),
                }
            )
        return {
            "request": request_payload(req),
            "design": design.label,
            "cells": cells,
        }

    def _eval_optimize(self, req: OptimizeRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        node = self._node(scenario, req.node_nm)
        designs = standard_designs(req.workload, req.fft_size)
        budgets = [
            node_budget(
                node, req.workload, req.fft_size, scenario,
                DEFAULT_BCE, design.bandwidth_exempt,
            )
            for design in designs
        ]
        # One grid call per design: the designs have different chips.
        points = [
            self.batcher.evaluate(d.chip, req.f, [b], req.r_max)[0]
            for d, b in zip(designs, budgets)
        ]
        candidates = []
        best = None
        for design, point in zip(designs, points):
            candidates.append(
                {
                    "design": design.label,
                    "feasible": point is not None,
                    "point": (
                        design_point_payload(point) if point else None
                    ),
                }
            )
            if point is not None and (
                best is None or point.speedup > best[1].speedup
            ):
                best = (design, point)
        if best is None:
            raise InfeasibleDesignError(
                f"no design is feasible for {req.workload} at "
                f"{node.label} under scenario {scenario.name!r}"
            )
        return {
            "request": request_payload(req),
            "node": node.label,
            "winner": {
                "design": best[0].label,
                "point": design_point_payload(best[1]),
            },
            "candidates": candidates,
        }

    # -- logging -----------------------------------------------------------

    def _log_access(
        self,
        method: str,
        path: str,
        status: int,
        latency: float,
        cache_state: Optional[bool],
        request_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        log_event(
            _access_log,
            "access",
            level=logging.INFO,
            method=method,
            path=path,
            status=status,
            latency_ms=round(latency * 1e3, 3),
            cache=(
                None
                if cache_state is None
                else ("hit" if cache_state else "miss")
            ),
            request_id=request_id,
            trace_id=trace_id,
        )


class _ProfilerDisabledError(ServiceError):
    http_status = 503


#: Every path :meth:`ModelService._dispatch` routes exactly; job ids
#: under ``/v1/jobs/`` share one label.
_ROUTES = frozenset(
    (
        "/healthz", "/metrics", "/v1/slo", "/v1/traces", "/v1/profile",
        "/v1/events", "/v1/jobs", "/v1/dse", "/v1/speedup", "/v1/sweep",
        "/v1/optimize",
    )
)


def _route_label(path: str) -> str:
    """The ``endpoint`` metric label of a request path (no query).

    A routed path is its own label, ``/v1/jobs/<id>`` is
    ``/v1/jobs/{id}`` and anything else is ``other``: the label set
    stays bounded whatever paths clients send.
    """
    if path in _ROUTES:
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    return "other"


def _annotate(span: Span, status: int, cache_state: Optional[bool]) -> None:
    """Stamp a request's outcome on its root span."""
    span.set_attribute("status", status)
    if cache_state is not None:
        span.set_attribute("cache", "hit" if cache_state else "miss")


def _decode_json(body: bytes) -> Any:
    if not body:
        raise BadRequestError("request body is empty; expected JSON")
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequestError(f"request body is not valid JSON: {exc}")
