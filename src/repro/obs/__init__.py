"""repro.obs -- zero-dependency observability for the whole runtime.

The source paper decomposes where a chip's area and power budgets go;
this subsystem is the same accounting for the reproduction's own
runtime: where does the wall-clock of a speedup evaluation go, which
layer answered a request, and what did one campaign task actually
cost.  Three coordinated pieces:

* **Tracing** (:mod:`repro.obs.trace`, :mod:`repro.obs.context`) --
  spans with parent/child linkage propagated across asyncio tasks
  (contextvars), campaign job threads (explicit carriers) and
  campaign process pools (parent-side task spans); exported to an
  in-process ring buffer (``GET /v1/traces``) and optionally to a JSONL file.
  The span is the one timing primitive: each is opened by the call
  that owns a loop (a traced request, a projection, a sensitivity
  run, a DSE sweep, a campaign task), and every finished span also
  records its duration in the ``repro_phase_seconds`` summary (read
  back per name by :func:`phase_totals`, which the ``BENCH_*.json``
  writers embed) and, while sampling, tags the profiler's stacks with
  ``phase:`` (off event-loop threads).
* **Metrics** (:mod:`repro.obs.metrics`) -- one process-wide
  :class:`MetricsRegistry` of counters, gauges and bounded-window
  histograms that the service, the perf cache and the campaign store
  all register into; rendered as JSON (``GET /metrics``,
  ``repro-hetsim metrics-dump``) and Prometheus text
  (``GET /metrics?format=prom``).
* **Profiling** (:mod:`repro.obs.prof`) -- a continuous sampling
  profiler producing folded stacks, with differential attribution
  (:mod:`repro.obs.profdiff`) for benchmark regressions.

Structured JSON logging with trace correlation lives in
:mod:`repro.obs.logging`.  Everything is stdlib-only.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "context": (
        "SpanContext",
        "attach",
        "current_context",
        "detach",
        "extract",
        "inject",
        "new_span_id",
        "new_trace_id",
    ),
    "logging": (
        "JsonLogFormatter",
        "configure_logging",
        "get_logger",
        "log_event",
        "resolve_level",
    ),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "get_registry",
        "percentile",
        "render_merged",
        "validate_prometheus",
    ),
    "history": (
        "HistoryStore",
        "envelope",
        "extract_metrics",
        "host_fingerprint",
        "record_benchmark",
    ),
    "prof": (
        "FoldedProfile",
        "StackSampler",
        "acquire_sampler",
        "get_sampler",
        "release_sampler",
    ),
    "profdiff": ("attribute_regression", "diff_profiles", "render_culprit"),
    "regress": (
        "MetricVerdict",
        "RegressionReport",
        "bootstrap_ci",
        "check_history",
        "select_baseline",
    ),
    "slo": ("SLObjective", "SLOTracker", "get_slo_tracker"),
    "stream": (
        "Event",
        "EventBus",
        "EventPublisher",
        "StreamSlice",
        "bind_publisher",
        "bound_publisher",
        "emit",
        "unbind_publisher",
    ),
    "trace": (
        "Span",
        "Tracer",
        "configure_tracer",
        "get_tracer",
        "phase_totals",
        "reset_phase_totals",
    ),
})
