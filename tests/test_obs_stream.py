"""The event bus (repro.obs.stream): cursors, replay, retention.

Pure in-process tests of the telemetry plane's spine -- no sockets.
The property under test throughout is the streaming contract the
service layer builds on: monotonic per-stream cursors, byte-identical
replay from any cursor, bounded retention that never blocks a
publisher, and ambient emission that is a no-op outside a campaign.
"""

import json
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    EventBus,
    EventPublisher,
    bind_publisher,
    bound_publisher,
    emit,
    format_event_line,
    unbind_publisher,
)


def _bus(**kwargs):
    return EventBus(clock=lambda: 1234.5, **kwargs)


class TestCursorModel:
    def test_sequences_are_monotonic_from_zero(self):
        bus = _bus()
        seqs = [bus.publish("s", "k", data={"i": i}).seq for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert bus.cursor("s") == 5

    def test_read_from_cursor_is_a_suffix(self):
        bus = _bus()
        for i in range(6):
            bus.publish("s", "k", data={"i": i})
        full = bus.read("s", 0)
        suffix = bus.read("s", 4)
        assert [e.line for e in suffix.events] == [
            e.line for e in full.events
        ][4:]
        assert suffix.next_cursor == full.next_cursor == 6

    def test_next_cursor_resumes_with_no_gap_or_duplicate(self):
        bus = _bus()
        bus.publish("s", "a")
        first = bus.read("s", 0)
        bus.publish("s", "b")
        second = bus.read("s", first.next_cursor)
        assert [e.kind for e in second.events] == ["b"]

    def test_limit_caps_a_batch_and_keeps_the_cursor_honest(self):
        bus = _bus()
        for i in range(5):
            bus.publish("s", "k", data={"i": i})
        page = bus.read("s", 0, limit=2)
        assert len(page.events) == 2
        rest = bus.read("s", page.next_cursor)
        assert [e.payload["data"]["i"] for e in rest.events] == [2, 3, 4]

    def test_unknown_stream_reads_empty_and_unclosed(self):
        slice_ = _bus().read("nope", 0)
        assert slice_.events == () and not slice_.closed

    def test_negative_cursor_is_rejected(self):
        with pytest.raises(ValueError):
            _bus().read("s", -1)


class TestCanonicalLines:
    def test_line_is_compact_sorted_json(self):
        line = format_event_line(
            "s", 3, "k", 1.23456789, {"b": 1, "a": 2}, "t" * 32, "p" * 16
        )
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        doc = json.loads(line)
        assert doc["unix"] == 1.234568  # rounded to 6 places
        assert list(doc["data"]) == ["a", "b"]

    def test_replay_is_byte_identical(self):
        bus = _bus()
        lines = [
            bus.publish("s", "k", data={"i": i}).line for i in range(4)
        ]
        assert [e.line for e in bus.read("s", 0).events] == lines
        assert [e.line for e in bus.read("s", 2).events] == lines[2:]

    def test_trace_ids_ride_on_the_line(self):
        bus = _bus()
        event = bus.publish("s", "k", trace_id="ab" * 16, span_id="cd" * 8)
        assert event.payload["trace_id"] == "ab" * 16
        assert event.payload["span_id"] == "cd" * 8


class TestRetention:
    def test_overflow_trims_oldest_and_counts(self):
        registry = MetricsRegistry()
        bus = _bus(history_limit=3, registry=registry)
        for i in range(10):
            bus.publish("s", "k", data={"i": i})
        slice_ = bus.read("s", 0)
        # Publisher never blocked; the oldest 7 fell out of retention.
        assert [e.seq for e in slice_.events] == [7, 8, 9]
        assert slice_.dropped == 7
        assert bus.stats()["trimmed"] == 7
        assert registry.counter(
            "repro_stream_events_trimmed_total", ""
        ).value() == 7

    def test_durable_reader_reconstructs_the_trimmed_prefix(self):
        persisted = []
        bus = _bus(history_limit=2)
        bus.attach_store(
            "s",
            sink=persisted.append,
            reader=lambda cursor: [
                line
                for line in persisted
                if json.loads(line)["seq"] >= cursor
            ],
        )
        lines = [
            bus.publish("s", "k", data={"i": i}).line for i in range(6)
        ]
        replay = bus.read("s", 0)
        assert replay.dropped == 0
        assert [e.line for e in replay.events] == lines

    def test_partial_durable_coverage_reports_the_gap(self):
        persisted = []
        bus = _bus(history_limit=2)
        bus.attach_store(
            "s",
            sink=persisted.append,
            reader=lambda cursor: persisted[3:],  # first 3 lines lost
        )
        for i in range(6):
            bus.publish("s", "k", data={"i": i})
        replay = bus.read("s", 0)
        assert replay.dropped == 3
        assert [e.seq for e in replay.events] == [3, 4, 5]

    def test_failing_sink_never_breaks_the_publisher(self):
        def sink(line):
            raise OSError("disk gone")

        bus = _bus()
        bus.attach_store("s", sink=sink)
        assert bus.publish("s", "k").seq == 0

    def test_sink_preserves_publish_order_across_threads(self):
        persisted = []
        bus = EventBus()
        bus.attach_store("s", sink=persisted.append)

        def hammer():
            for _ in range(200):
                bus.publish("s", "k")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [json.loads(line)["seq"] for line in persisted]
        assert seqs == sorted(seqs) == list(range(800))


class TestLifecycle:
    def test_closed_stream_rejects_publishes_but_still_reads(self):
        bus = _bus()
        bus.publish("s", "k")
        bus.close("s")
        assert bus.closed("s")
        assert bus.read("s", 0).closed
        with pytest.raises(ValueError):
            bus.publish("s", "k")

    def test_ensure_stream_makes_an_empty_stream_known(self):
        bus = _bus()
        assert not bus.known("slo")
        bus.ensure_stream("slo")
        assert bus.known("slo")
        assert bus.read("slo", 0).events == ()

    def test_stats_count_streams_and_publishes(self):
        bus = _bus()
        bus.publish("a", "k")
        bus.publish("b", "k")
        bus.close("b")
        stats = bus.stats()
        assert stats == {
            "streams": 2, "published": 2, "trimmed": 0, "open": 1,
        }


class TestAmbientEmission:
    def test_unbound_emit_is_a_noop(self):
        assert bound_publisher() is None
        assert emit("k", {"x": 1}) is None

    def test_bound_emit_publishes_with_the_campaign_trace(self):
        bus = _bus()
        publisher = EventPublisher(bus, "job-1", trace_id="ef" * 16)
        token = bind_publisher(publisher)
        try:
            event = emit("dse.rung", {"rung_r": 2})
        finally:
            unbind_publisher(token)
        assert event.stream == "job-1"
        assert event.payload["trace_id"] == "ef" * 16
        assert event.payload["data"] == {"rung_r": 2}
        assert bound_publisher() is None

    def test_worker_threads_need_an_explicit_rebind(self):
        bus = _bus()
        publisher = EventPublisher(bus, "job-1")
        token = bind_publisher(publisher)
        seen = []

        def worker():
            # A fresh thread does not inherit the contextvar ...
            seen.append(emit("k"))
            # ... until it binds explicitly.
            inner = bind_publisher(publisher)
            try:
                seen.append(emit("k"))
            finally:
                unbind_publisher(inner)

        try:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        finally:
            unbind_publisher(token)
        assert seen[0] is None and seen[1] is not None
