"""The JSON ``GET /metrics`` body, read from a service's registry.

Every serving-layer number lives in a
:class:`~repro.obs.metrics.MetricsRegistry` instrument that the
component owning it creates and records into: the
:class:`~repro.service.app.ModelService` (requests, latency, response
cache, admission, tensor-store outcomes, DSE submissions, uptime), the
:class:`~repro.service.batching.MicroBatcher` (micro-batch flushes)
and the :class:`~repro.campaign.jobs.JobManager` (job lifecycle).  The
registry renders the Prometheus exposition itself;
:func:`metrics_payload` is the one place that knows the historical
JSON shape.

Latency quantiles cover each endpoint's bounded window of recent
samples and interpolate linearly between ranks
(:func:`repro.obs.metrics.percentile`).
"""

from __future__ import annotations

from typing import Any, Dict

from ..obs.metrics import MetricsRegistry, percentile
from ..perf.cache import cache_summary

__all__ = ["metrics_payload"]


def _by_label(registry: MetricsRegistry, name: str, label: str):
    """``(label value, count)`` for every touched series of a counter."""
    for labels, count in registry.counter(name).series():
        if labels:  # skip the zero placeholder of an untouched counter
            yield labels[label], int(count)


def metrics_payload(registry: MetricsRegistry) -> Dict[str, Any]:
    """The JSON ``/metrics`` body over a service registry's families."""
    requests: Dict[str, Dict[str, int]] = {}
    for labels, count in registry.counter(
        "repro_service_requests_total"
    ).series():
        if labels:
            requests.setdefault(labels["endpoint"], {})[
                labels["status"]
            ] = int(count)
    latency_family = registry.histogram("repro_service_request_seconds")
    latency = {}
    for labels in latency_family.label_sets():
        samples = latency_family.window_values(**labels)
        if not samples:
            continue
        endpoint = labels["endpoint"]
        latency[endpoint] = {
            "count": len(samples),
            "mean_ms": 1e3 * sum(samples) / len(samples),
            "p50_ms": 1e3 * percentile(samples, 0.50),
            "p99_ms": 1e3 * percentile(samples, 0.99),
        }
        exemplar = latency_family.exemplar(**labels)
        if exemplar is not None:
            # The slowest traced sample in the window: a p99 spike
            # links straight to GET /v1/traces?trace_id=.
            latency[endpoint]["slowest_ms"] = 1e3 * exemplar[0]
            latency[endpoint]["slowest_trace_id"] = exemplar[1]
    cache = dict(
        _by_label(registry, "repro_service_response_cache_total", "result")
    )
    batches = int(
        registry.counter("repro_service_batch_dispatches_total").value()
    )
    items = int(
        registry.counter("repro_service_batched_items_total").value()
    )
    dse = {"accepted": 0, "rejected": 0}
    for outcome, count in _by_label(
        registry, "repro_dse_requests_total", "outcome"
    ):
        dse[outcome] = dse.get(outcome, 0) + count
    tensor = dict(
        _by_label(registry, "repro_tensorstore_requests_total", "outcome")
    )
    return {
        "uptime_s": registry.gauge("repro_service_uptime_seconds").value(),
        "inflight": int(registry.gauge("repro_service_inflight").value()),
        "requests": requests,
        "latency": latency,
        "cache": {
            "hits": cache.get("hit", 0),
            "misses": cache.get("miss", 0),
        },
        "batching": {
            "dispatches": batches,
            "items": items,
            "max_batch": int(
                registry.gauge("repro_service_max_batch_items").value()
            ),
            "efficiency": items / batches if batches else None,
        },
        "shed": int(registry.counter("repro_service_shed_total").value()),
        "jobs": dict(
            _by_label(registry, "repro_service_jobs_total", "state")
        ),
        "dse": dse,
        "tensorstore": {
            outcome: tensor.get(outcome, 0)
            for outcome in ("hit", "interp", "fallback")
        },
        # Model-layer memoization totals (repro.perf.cache): distinct
        # from the response cache above, which counts whole answered
        # requests.
        "perf_cache": cache_summary(),
    }
