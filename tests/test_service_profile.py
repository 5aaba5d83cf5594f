"""``GET /v1/profile`` and its consumers: endpoint semantics, the
shared-sampler lifecycle across service instances (the SIGTERM drain
path releases it through ``close()``), the watch loss footer, and the
CLI surfaces (``profile``, ``metrics-dump`` sections).
"""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.obs.prof import get_sampler, parse_folded_line
from repro.service.app import ModelService, ServiceConfig
from repro.service.events import sse_end_frame, telemetry_loss
from repro.service.http import TextPayload
from repro.service.watch import SSEFrame, WatchState, _apply, render_event


def _run(coro):
    return asyncio.run(coro)


def _service(**overrides):
    return ModelService(ServiceConfig(**overrides))


class TestProfileEndpoint:
    def test_json_capture_has_folded_and_top(self):
        async def main_():
            service = _service()
            try:
                return await service.handle(
                    "GET", "/v1/profile?seconds=0.05&format=json"
                )
            finally:
                service.close()

        status, payload = _run(main_())
        assert status == 200
        assert payload["format"] == "folded"
        assert payload["hz"] > 0
        assert payload["duration_s"] >= 0.05
        assert isinstance(payload["folded"], list)
        assert isinstance(payload["top"], list)
        for line in payload["folded"]:
            parse_folded_line(line)  # every line must parse

    def test_seconds_zero_returns_everything_since_start(self):
        async def main_():
            service = _service()
            try:
                # Wait for the first tick rather than a fixed time: a
                # loaded host can delay the sampler thread past any
                # one sleep.
                deadline = time.monotonic() + 5.0
                while (
                    service.sampler.samples < 1
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)
                return await service.handle("GET", "/v1/profile?seconds=0")
            finally:
                service.close()

        status, payload = _run(main_())
        assert status == 200
        assert payload["samples"] >= 1

    def test_folded_format_is_plain_text(self):
        async def main_():
            service = _service()
            try:
                return await service.handle(
                    "GET", "/v1/profile?seconds=0.05&format=folded"
                )
            finally:
                service.close()

        status, payload = _run(main_())
        assert status == 200
        assert isinstance(payload, TextPayload)
        assert payload.content_type.startswith("text/plain")
        for line in str(payload).splitlines():
            parse_folded_line(line)

    def test_disabled_profiler_answers_503(self):
        async def main_():
            service = _service(profile=False)
            try:
                assert service.sampler is None
                return await service.handle("GET", "/v1/profile")
            finally:
                service.close()

        status, payload = _run(main_())
        assert status == 503
        assert "profiler" in payload["message"]

    @pytest.mark.parametrize(
        "query",
        ["seconds=nan-ish", "seconds=-1", "seconds=61", "format=svg"],
    )
    def test_bad_arguments_answer_400(self, query):
        async def main_():
            service = _service()
            try:
                return await service.handle(
                    "GET", f"/v1/profile?{query}"
                )
            finally:
                service.close()

        status, _payload = _run(main_())
        assert status == 400


class TestSamplerLifecycle:
    def test_services_share_one_sampler_until_last_close(self):
        assert get_sampler() is None
        a = _service()
        b = _service()
        try:
            assert a.sampler is b.sampler
            assert a.sampler.running
        finally:
            a.close()
            assert get_sampler() is not None  # b still holds it
            b.close()
        # The drain path (serve_until -> service.close on SIGTERM)
        # released the last reference: the daemon thread is gone.
        assert get_sampler() is None

    def test_close_is_idempotent_about_the_reference(self):
        service = _service()
        service.close()
        service.close()  # second close must not over-release
        assert get_sampler() is None


class TestWatchLossFooter:
    def _end_frame(self, loss):
        raw = sse_end_frame("s1", loss=loss).decode("utf-8")
        data = [
            line[len("data: "):]
            for line in raw.splitlines()
            if line.startswith("data: ")
        ][0]
        return SSEFrame(seq=None, kind="stream.end", data=data)

    def test_loss_counters_fold_into_state(self):
        state = WatchState(stream="s1")
        frame = self._end_frame(
            {"events_trimmed": 7, "trace_spans_dropped": 3}
        )
        _apply(state, frame)
        assert state.finished
        assert state.events_trimmed == 7
        assert state.spans_dropped == 3
        line = render_event(state, frame)
        assert "7 event(s) trimmed" in line
        assert "3 span(s) evicted" in line

    def test_zero_loss_after_finished_job_renders_nothing(self):
        state = WatchState(stream="s1")
        state.final_state = "succeeded"
        frame = self._end_frame(
            {"events_trimmed": 0, "trace_spans_dropped": 0}
        )
        _apply(state, frame)
        assert render_event(state, frame) is None

    def test_loss_footer_after_finished_job(self):
        state = WatchState(stream="s1")
        state.final_state = "succeeded"
        frame = self._end_frame(
            {"events_trimmed": 2, "trace_spans_dropped": 0}
        )
        _apply(state, frame)
        line = render_event(state, frame)
        assert "2 event(s) trimmed" in line

    def test_telemetry_loss_since_marker_is_a_delta(self):
        from repro.obs.stream import EventBus

        bus = EventBus()
        before = telemetry_loss(bus)
        after = telemetry_loss(bus, since=before)
        assert after == {
            "events_trimmed": 0,
            "trace_spans_dropped": 0,
        }


class TestCLISurfaces:
    def test_profile_rejects_out_of_range_seconds(self, capsys):
        code = main(["profile", "http://127.0.0.1:1", "--seconds", "99"])
        assert code == 2
        assert "[0, 60]" in capsys.readouterr().err

    def test_profile_unreachable_server_fails_cleanly(self, capsys):
        code = main(
            ["profile", "http://127.0.0.1:9", "--seconds", "0"]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_metrics_dump_includes_slo_and_dse_sections(self, capsys):
        assert main(["metrics-dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "slo" in payload
        assert "dse" in payload
        assert set(payload["dse"]) >= {"accepted", "rejected"}
        assert "objectives" in payload["slo"] or payload["slo"]
