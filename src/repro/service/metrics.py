"""Service counters, rebuilt on the unified obs metrics registry.

:class:`ServiceMetrics` keeps its historical role -- the serving
layer's accountant, snapshotted as JSON by ``GET /metrics`` -- but the
numbers now live in :class:`~repro.obs.metrics.MetricsRegistry`
instruments instead of private fields.  That buys two things with one
set of increments:

* the existing JSON ``/metrics`` shape (reconstructed by
  :meth:`snapshot`, unchanged for existing consumers and tests);
* the Prometheus text exposition (``GET /metrics?format=prom``) --
  every instrument renders itself, labelled by endpoint/status/state.

Each service instance owns a private registry, so two services in one
process (tests spin up dozens) never bleed counts into each other;
the process-wide registry (span phases, perf-cache collectors)
is merged in at render time by the app layer.

Latency quantiles are computed over a bounded window of the most
recent samples per endpoint and interpolate linearly between ranks
(:func:`repro.obs.metrics.percentile`) -- the seed's nearest-rank
rule biased p99 low on small windows, where the top rank was simply
unreachable.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..obs.metrics import MetricsRegistry, percentile
from ..perf.cache import cache_summary, register_cache_metrics

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counters for the serving layer.

    Args:
        latency_window: samples kept per endpoint for quantiles.
        registry: the instrument sink; ``None`` creates a private
            registry (one per service instance).
    """

    def __init__(
        self,
        latency_window: int = 2048,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._latency_window = latency_window
        r = self.registry
        self._requests = r.counter(
            "repro_service_requests_total",
            "Finished requests by endpoint and HTTP status",
        )
        self._latency = r.histogram(
            "repro_service_request_seconds",
            "Request latency by endpoint (bounded window)",
            window=latency_window,
        )
        self._resp_cache = r.counter(
            "repro_service_response_cache_total",
            "Response-cache lookups by result",
        )
        self._shed = r.counter(
            "repro_service_shed_total",
            "Requests shed with 429 at the admission queue",
        )
        self._timeouts = r.counter(
            "repro_service_timeouts_total",
            "Requests that exceeded the evaluation deadline (503)",
        )
        self._inflight = r.gauge(
            "repro_service_inflight",
            "Requests currently holding an evaluation slot",
        )
        self._batches = r.counter(
            "repro_service_batch_dispatches_total",
            "Micro-batch flushes (one optimize_batch grid call each)",
        )
        self._batched_items = r.counter(
            "repro_service_batched_items_total",
            "Evaluations coalesced across all micro-batches",
        )
        self._max_batch = r.gauge(
            "repro_service_max_batch_items",
            "Largest micro-batch coalesced so far",
        )
        self._jobs = r.counter(
            "repro_service_jobs_total",
            "Campaign job lifecycle events by state",
        )
        self._tensor = r.counter(
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
        # The perf-layer memoization totals render from this registry
        # too (callback gauges; no double bookkeeping).
        register_cache_metrics(r)

    # -- request lifecycle -------------------------------------------------

    def record_request(
        self,
        endpoint: str,
        status: int,
        latency_s: float,
        cache_hit: Optional[bool] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """Account one finished request.

        ``trace_id`` (when the caller has one -- the app layer always
        does) rides along as the latency sample's exemplar, so the
        slowest request in the window stays resolvable to its trace.
        """
        self._requests.inc(endpoint=endpoint, status=str(status))
        self._latency.observe(
            latency_s, trace_id=trace_id, endpoint=endpoint
        )
        if cache_hit is True:
            self._resp_cache.inc(result="hit")
        elif cache_hit is False:
            self._resp_cache.inc(result="miss")

    def record_shed(self) -> None:
        self._shed.inc()

    def record_tensor(self, outcome: str) -> None:
        """Account one tensor-store attempt (hit/interp/fallback)."""
        self._tensor.inc(outcome=outcome)

    def record_dse(self, mode: str, outcome: str) -> None:
        """Account one ``POST /v1/dse`` submission.

        ``mode`` is the search strategy (``pareto``/``halving``, or
        ``invalid`` when the body never parsed far enough to tell);
        ``outcome`` is ``accepted`` (202) or ``rejected`` (400).
        """
        self._dse.inc(mode=mode, outcome=outcome)

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def inflight_started(self) -> None:
        self._inflight.inc()

    def inflight_finished(self) -> None:
        self._inflight.dec()

    # -- campaign jobs -----------------------------------------------------

    def record_job(self, state: str) -> None:
        """Account one job lifecycle event (queued/succeeded/failed)."""
        self._jobs.inc(state=state)

    # -- dispatcher --------------------------------------------------------

    def record_batch(self, n_items: int) -> None:
        """Account one micro-batch flush of ``n_items`` coalesced calls."""
        self._batches.inc()
        self._batched_items.inc(n_items)
        with self._lock:
            if n_items > self._max_batch.value():
                self._max_batch.set(n_items)

    # -- export ------------------------------------------------------------

    @property
    def batch_efficiency(self) -> Optional[float]:
        """Coalesced evaluations per model dispatch (> 1 is a win)."""
        batches = self._batches.value()
        if not batches:
            return None
        return self._batched_items.value() / batches

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every counter (the historical shape)."""
        requests: Dict[str, Dict[str, int]] = {}
        for labels, count in self._requests.series():
            if not labels:
                continue  # the zero placeholder of an untouched counter
            requests.setdefault(labels["endpoint"], {})[
                labels["status"]
            ] = int(count)
        latency = {}
        for labels in self._latency.label_sets():
            endpoint = labels["endpoint"]
            samples = self._latency.window_values(endpoint=endpoint)
            if not samples:
                continue
            latency[endpoint] = {
                "count": len(samples),
                "mean_ms": 1e3 * sum(samples) / len(samples),
                "p50_ms": 1e3 * percentile(samples, 0.50),
                "p99_ms": 1e3 * percentile(samples, 0.99),
            }
            exemplar = self._latency.exemplar(endpoint=endpoint)
            if exemplar is not None:
                # The slowest traced sample in the window: a p99
                # spike links straight to GET /v1/traces?trace_id=.
                latency[endpoint]["slowest_ms"] = 1e3 * exemplar[0]
                latency[endpoint]["slowest_trace_id"] = exemplar[1]
        batches = int(self._batches.value())
        items = int(self._batched_items.value())
        jobs = {
            labels["state"]: int(count)
            for labels, count in self._jobs.series()
            if labels
        }
        dse = {"accepted": 0, "rejected": 0}
        for labels, count in self._dse.series():
            if labels:
                outcome = labels["outcome"]
                dse[outcome] = dse.get(outcome, 0) + int(count)
        return {
            "uptime_s": time.monotonic() - self._started,
            "inflight": int(self._inflight.value()),
            "requests": requests,
            "latency": latency,
            "cache": {
                "hits": int(self._resp_cache.value(result="hit")),
                "misses": int(self._resp_cache.value(result="miss")),
            },
            "batching": {
                "dispatches": batches,
                "items": items,
                "max_batch": int(self._max_batch.value()),
                "efficiency": items / batches if batches else None,
            },
            "shed": int(self._shed.value()),
            "timeouts": int(self._timeouts.value()),
            "jobs": jobs,
            "dse": dse,
            "tensorstore": {
                "hit": int(self._tensor.value(outcome="hit")),
                "interp": int(self._tensor.value(outcome="interp")),
                "fallback": int(
                    self._tensor.value(outcome="fallback")
                ),
            },
            # Model-layer memoization totals (repro.perf.cache):
            # distinct from the response cache above, which counts
            # whole answered requests.
            "perf_cache": cache_summary(),
        }
