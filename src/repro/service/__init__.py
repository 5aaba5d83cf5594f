"""Model serving: the paper's projections as a network API.

A stdlib-only (asyncio + the existing NumPy) HTTP JSON server that
turns the batched projection engine into a request/response service:

* ``POST /v1/speedup``  -- one (design, node) design point.
* ``POST /v1/sweep``    -- a design's full roadmap r-sweep.
* ``POST /v1/optimize`` -- the best design under one node's Table 1
  budgets (bit-identical to :func:`repro.perf.batch.optimize_batch`).
* ``GET /healthz``      -- liveness + version.
* ``GET /metrics``      -- latency / cache-hit / batch-size counters,
  as JSON (:func:`~repro.service.metrics.metrics_payload`) or
  Prometheus text, from one per-instance metrics registry.

A model request is answered in one pass, inline on the event loop:
an LRU response cache keyed on the frozen request dataclasses
(:class:`ResponseCache`), then, on a miss, one NumPy grid call per
(chip, f, r_max) of the request (:class:`MicroBatcher`; a sweep's
five nodes share one call), with no await in between.  Structured
JSON access logs (logger ``repro.service.access``) cover traced
requests -- all but a keep-alive model ``POST`` without
``X-Request-Id`` -- and every error.

Start a server from the CLI::

    repro-hetsim serve --port 8080

or in-process::

    from repro.service import ModelService, ServiceConfig, start_server
    service = ModelService(ServiceConfig(port=8080))
    server = await start_server(service)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "app": ("ModelService",),
    "batching": ("MicroBatcher",),
    "config": ("ServiceConfig",),
    "events": (
        "EventStreamResponse",
        "events_payload",
        "sse_end_frame",
        "sse_frame",
        "sse_lagged_frame",
    ),
    "http": ("run_server", "start_server"),
    "respcache": ("ResponseCache",),
    "watch": ("WatchState", "iter_sse_frames", "render_event", "watch"),
    "schemas": (
        "OptimizeRequest",
        "SpeedupRequest",
        "SweepRequest",
        "design_point_payload",
        "parse_optimize",
        "parse_speedup",
        "parse_sweep",
    ),
})
