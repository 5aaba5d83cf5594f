"""Unit coverage for repro.obs: context, spans, metrics, span phase
sinks, logging.

The percentile tests double as the regression suite for the seed's
nearest-rank bias: ``repro.obs.metrics.percentile`` interpolates, so
p99 over a small window can actually reach the window maximum.
"""

import asyncio
import io
import json
import logging
import threading

import pytest

from repro.obs.context import (
    attach,
    current_context,
    detach,
    extract,
    inject,
    new_span_id,
    new_trace_id,
)
from repro.obs.logging import (
    JsonLogFormatter,
    configure_logging,
    get_logger,
    log_event,
    resolve_level,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    render_merged,
    validate_prometheus,
)
from repro.obs import prof
from repro.obs.prof import StackSampler
from repro.obs.trace import (
    Span,
    Tracer,
    phase_totals,
    reset_phase_totals,
)
from repro.service.metrics import ServiceMetrics


class TestContext:
    def test_ids_are_hex_of_w3c_width(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_attach_detach_restores(self):
        assert current_context() is None
        carrier = {"trace_id": "a" * 32, "span_id": "b" * 16}
        token = attach(extract(carrier))
        try:
            assert current_context().trace_id == "a" * 32
        finally:
            detach(token)
        assert current_context() is None

    def test_inject_outside_any_span_is_none(self):
        assert inject() is None

    def test_extract_malformed_carrier_is_none(self):
        assert extract(None) is None
        assert extract({}) is None
        assert extract({"trace_id": "a" * 32}) is None


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([], 0.5) == 0.0

    def test_single_sample_returns_it_for_every_q(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.5], q) == 7.5

    def test_interpolates_between_ranks(self):
        samples = list(range(1, 11))  # 1..10
        # rank = 0.99 * 9 = 8.91 -> between 9 and 10
        assert percentile(samples, 0.99) == pytest.approx(9.91)
        # The seed's nearest-rank rule could never exceed the 9th
        # value on ten samples; interpolation approaches the max.
        assert percentile(samples, 0.99) > 9.0
        assert percentile(samples, 0.5) == pytest.approx(5.5)
        assert percentile(samples, 1.0) == 10.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_service_latency_window_overflow(self):
        metrics = ServiceMetrics(latency_window=8)
        for i in range(20):
            metrics.record_request("/v1/x", 200, float(i), None)
        snap = metrics.snapshot()["latency"]["/v1/x"]
        # Quantiles cover only the newest 8 samples (12..19), and
        # p99 interpolates toward the window maximum (19s).
        assert snap["count"] == 8
        assert snap["p50_ms"] == pytest.approx(15.5e3)
        assert snap["p99_ms"] == pytest.approx(18.93e3)


class TestInstruments:
    def test_counter_labels_accumulate(self):
        c = Counter("t_total")
        c.inc(endpoint="/a", status="200")
        c.inc(2, endpoint="/a", status="200")
        c.inc(endpoint="/b", status="500")
        assert c.value(endpoint="/a", status="200") == 3
        assert c.value(endpoint="/b", status="500") == 1
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_callback_wins(self):
        g = Gauge("t_gauge", callback=lambda: 42.0)
        assert g.value() == 42.0
        plain = Gauge("t_plain")
        plain.set(3)
        plain.inc()
        plain.dec(2)
        assert plain.value() == 2

    def test_histogram_window_bounds_quantiles(self):
        h = Histogram("t_hist", window=4)
        for v in (1, 2, 3, 4, 100):
            h.observe(v, phase="x")
        assert h.window_values(phase="x") == [2, 3, 4, 100]
        summary = h.series_summary(phase="x")
        assert summary["count"] == 5
        assert summary["sum"] == 110

    def test_registry_get_or_create_and_type_conflict(self):
        r = MetricsRegistry()
        a = r.counter("dup_total")
        assert r.counter("dup_total") is a
        with pytest.raises(ValueError):
            r.gauge("dup_total")

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("bad name")
        c = r.counter("ok_total")
        with pytest.raises(ValueError):
            c.inc(**{"bad-label": "x"})


class TestPrometheusExposition:
    def _registry(self):
        r = MetricsRegistry()
        c = r.counter("t_requests_total", "requests")
        c.inc(endpoint="/a", status="200")
        r.gauge("t_inflight", "inflight").set(2)
        h = r.histogram("t_latency_seconds", "latency", window=16)
        h.observe(0.25, endpoint="/a")
        return r

    def test_render_validates(self):
        text = self._registry().render_prometheus()
        names = validate_prometheus(text)
        assert "t_requests_total" in names
        assert "t_latency_seconds_sum" in names
        assert "t_latency_seconds_count" in names
        # Summaries carry interpolated quantile labels.
        assert 'quantile="0.99"' in text

    def test_render_merged_first_wins_once_per_family(self):
        a, b = self._registry(), self._registry()
        b.counter("t_only_b_total").inc()
        text = render_merged(a, b)
        assert text.count("# TYPE t_requests_total counter") == 1
        assert "t_only_b_total" in text
        validate_prometheus(text)

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus("no trailing newline")
        with pytest.raises(ValueError):
            validate_prometheus('m{bad-label="x"} 1\n')
        with pytest.raises(ValueError):
            validate_prometheus("m notanumber\n")
        with pytest.raises(ValueError):
            validate_prometheus(
                "# TYPE m counter\n# TYPE m counter\nm 1\n"
            )
        # +Inf / NaN are legal sample values.
        validate_prometheus("# TYPE m gauge\nm +Inf\nm NaN\n")


class TestSpansAndTracer:
    def test_span_hierarchy_and_buffer(self):
        tracer = Tracer(buffer_size=8)
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["child", "parent"]
        assert spans[0]["duration_ms"] >= 0

    def test_error_status_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans()[-1]["status"] == "error"

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(buffer_size=2)
        for i in range(4):
            tracer.span(f"s{i}").finish()
        assert [s["name"] for s in tracer.spans()] == ["s2", "s3"]
        assert tracer.stats()["exported"] == 4

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(export_path=str(path))
        tracer.span("a").finish()
        tracer.span("b").finish()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"

    def test_backdate_extends_duration(self):
        tracer = Tracer()
        span = tracer.span("late")
        span.backdate(span.start_unix - 5.0, span._start_perf - 5.0)
        span.finish()
        assert tracer.spans()[-1]["duration_ms"] >= 5000

    def test_trace_filter_and_limit(self):
        tracer = Tracer()
        with tracer.span("t1") as s1:
            pass
        tracer.span("t2").finish()
        only = tracer.trace(s1.trace_id)
        assert [s["name"] for s in only] == ["t1"]
        assert len(tracer.spans(limit=1)) == 1


class TestProfiling:
    """The span is the one timing primitive: every finished span feeds
    the phase table, the ``repro_phase_seconds`` summary and, while a
    sampler runs, the ``phase:`` tag of its thread."""

    def setup_method(self):
        reset_phase_totals()

    def test_phase_totals_accumulate(self):
        tracer = Tracer()
        with tracer.span("test.phase"):
            pass
        tracer.span("test.phase").finish()
        totals = phase_totals()
        assert totals["test.phase"]["calls"] == 2
        assert totals["test.phase"]["total_s"] >= 0

    def test_reset_snapshot_is_atomic(self):
        Tracer().span("test.reset").finish()
        snap = phase_totals(reset=True)
        assert snap["test.reset"]["calls"] == 1
        assert "test.reset" not in phase_totals()

    def test_untraced_region_starts_one_root_span(self):
        tracer = Tracer()
        with tracer.span("test.untraced") as span:
            assert current_context() == span.context
        [only] = tracer.spans()
        assert only["name"] == "test.untraced"
        assert only["parent_id"] is None

    def test_traced_block_nests_under_current_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("test.traced", attributes={"items": 3}):
                pass
        spans = tracer.trace(outer.trace_id)
        child = [s for s in spans if s["name"] == "test.traced"][0]
        assert child["parent_id"] == outer.span_id
        assert child["attributes"]["items"] == 3

    def test_finished_span_feeds_phase_histogram(self):
        histogram = get_registry().histogram("repro_phase_seconds")
        before = histogram.series_summary(phase="test.hist")["count"]
        Tracer().span("test.hist").finish()
        after = histogram.series_summary(phase="test.hist")["count"]
        assert after == before + 1

    def test_entered_span_tags_sampled_stacks(self):
        sampler = StackSampler(hz=500.0)
        sampler.start()
        try:
            with Tracer().span("test.sampled"):
                threading.Event().wait(0.2)
        finally:
            sampler.stop()
        tagged = [
            stack for stack in sampler.profile().counts
            if stack[0] == "phase:test.sampled"
        ]
        assert tagged, "no sampled stack carried the span's phase tag"

    def test_span_on_an_event_loop_thread_does_not_tag(self, monkeypatch):
        monkeypatch.setattr(prof, "_TAGGING", True)
        ident = threading.get_ident()

        async def main():
            with Tracer().span("test.async"):
                return prof._current_phase(ident)

        assert asyncio.run(main()) is None
        with Tracer().span("test.sync"):
            assert prof._current_phase(ident) == "test.sync"
        assert prof._current_phase(ident) is None


class TestLogging:
    def test_resolve_level_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert resolve_level() == logging.INFO
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        assert resolve_level() == logging.DEBUG
        assert resolve_level("WARNING") == logging.WARNING
        with pytest.raises(ValueError):
            resolve_level("LOUD")

    def test_json_lines_carry_trace_ids(self):
        from repro.obs.trace import get_tracer

        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger = logging.getLogger("repro.test.obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with get_tracer().span("logged") as span:
                log_event(logger, "hello", answer=42)
        finally:
            logger.removeHandler(handler)
        line = json.loads(stream.getvalue())
        assert line["event"] == "hello"
        assert line["answer"] == 42
        assert line["trace_id"] == span.trace_id
        assert line["span_id"] == span.span_id

    def test_configure_logging_is_idempotent(self):
        first = configure_logging("INFO", stream=io.StringIO())
        second = configure_logging("DEBUG", stream=io.StringIO())
        assert first is second
        named = [
            h for h in second.handlers
            if h.get_name() == "repro-obs-json"
        ]
        assert len(named) == 1
        assert second.level == logging.DEBUG

    def test_get_logger_prefixes(self):
        assert get_logger("service").name == "repro.service"
        assert get_logger("repro.x").name == "repro.x"
