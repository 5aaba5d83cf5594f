"""HTTP-facing observability: request-id echo, ``/v1/traces``,
readiness-aware ``/healthz``, the Prometheus exposition, the
transport's handling of text payloads and response headers, and a
real ``serve`` process over a built tensor store, scraped and traced.
"""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys

from repro.obs.context import new_trace_id
from repro.obs.metrics import validate_prometheus
from repro.obs.trace import get_tracer
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import PROM_CONTENT_TYPE, _encode_response


def _run(coro):
    return asyncio.run(coro)


def _service(**overrides):
    return ModelService(ServiceConfig(**overrides))


def _request(method, path, body=b"", headers=None, **overrides):
    async def main():
        service = _service(**overrides)
        try:
            return await service.handle_request(
                method, path, body, headers
            )
        finally:
            service.close()

    return _run(main())


class TestRequestIdEcho:
    def test_safe_id_is_echoed_verbatim(self):
        _s, _p, headers = _request(
            "GET", "/healthz", headers={"x-request-id": "req-42.A_b"}
        )
        assert headers["X-Request-Id"] == "req-42.A_b"
        # A plain request id is not a trace id; a fresh trace starts.
        assert headers["X-Trace-Id"] != "req-42.A_b"
        assert len(headers["X-Trace-Id"]) == 32

    def test_unsafe_id_is_replaced(self):
        for hostile in ("bad\r\nInjected: 1", "spaced out", "x" * 200):
            _s, _p, headers = _request(
                "GET", "/healthz", headers={"x-request-id": hostile}
            )
            assert headers["X-Request-Id"] != hostile
            assert len(headers["X-Request-Id"]) == 16

    def test_missing_id_gets_generated(self):
        _s, _p, headers = _request("GET", "/healthz")
        assert len(headers["X-Request-Id"]) == 16
        int(headers["X-Request-Id"], 16)

    def test_trace_shaped_id_becomes_the_trace(self):
        supplied = new_trace_id()
        _s, _p, headers = _request(
            "GET", "/healthz", headers={"x-request-id": supplied}
        )
        assert headers["X-Request-Id"] == supplied
        assert headers["X-Trace-Id"] == supplied

    def test_every_response_carries_both_headers(self):
        for method, path in (
            ("GET", "/healthz"),
            ("GET", "/metrics"),
            ("GET", "/nope"),
            ("POST", "/v1/speedup"),  # malformed body -> 400
        ):
            _s, _p, headers = _request(method, path)
            assert "X-Request-Id" in headers
            assert "X-Trace-Id" in headers


class TestTracesEndpoint:
    def test_filter_by_trace_id(self):
        get_tracer().clear()

        async def main():
            service = _service()
            try:
                _s, _p, first = await service.handle_request(
                    "GET", "/healthz"
                )
                await service.handle_request("GET", "/healthz")
                return await service.handle_request(
                    "GET",
                    f"/v1/traces?trace_id={first['X-Trace-Id']}",
                ), first
            finally:
                service.close()

        (status, payload, _h), first = _run(main())
        assert status == 200
        assert payload["count"] == 1
        span = payload["spans"][0]
        assert span["trace_id"] == first["X-Trace-Id"]
        assert span["name"] == "http.request"
        assert payload["buffer"]["capacity"] > 0

    def test_limit_keeps_newest(self):
        get_tracer().clear()

        async def main():
            service = _service()
            try:
                for _ in range(3):
                    await service.handle_request("GET", "/healthz")
                return await service.handle_request(
                    "GET", "/v1/traces?limit=2"
                )
            finally:
                service.close()

        status, payload, _h = _run(main())
        assert status == 200
        assert payload["count"] == 2

    def test_bad_limit_is_400(self):
        status, payload, _h = _request("GET", "/v1/traces?limit=soon")
        assert status == 400
        assert "limit" in payload["message"]

    def test_post_is_405(self):
        status, _p, _h = _request("POST", "/v1/traces")
        assert status == 405


class TestHealthzReadiness:
    def test_open_service_is_ready(self):
        status, payload, _h = _request("GET", "/healthz")
        assert status == 200
        assert payload["checks"] == {
            "store": True, "dispatcher": True,
        }

    def test_closed_service_degrades_to_503(self):
        async def main():
            service = _service()
            service.close()
            return await service.handle_request("GET", "/healthz")

        status, payload, _h = _run(main())
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["checks"]["store"] is False
        assert payload["checks"]["dispatcher"] is False


class TestPrometheusEndpoint:
    def test_exposition_is_text_and_valid(self):
        async def main():
            service = _service()
            try:
                await service.handle_request(
                    "POST", "/v1/speedup",
                    json.dumps(
                        {"workload": "bs", "f": 0.9,
                         "design": "GTX285", "node_nm": 22}
                    ).encode(),
                )
                return await service.handle_request(
                    "GET", "/metrics?format=prom"
                )
            finally:
                service.close()

        status, payload, _h = _run(main())
        assert status == 200
        assert isinstance(payload, str)
        names = validate_prometheus(payload)
        assert "repro_service_requests_total" in names
        assert "repro_service_request_seconds_count" in names
        assert "repro_phase_seconds_count" in names
        assert 'endpoint="/v1/speedup"' in payload

    def test_default_format_stays_json(self):
        status, payload, _h = _request("GET", "/metrics")
        assert status == 200
        assert isinstance(payload, dict)
        assert "latency" in payload


class TestTransportEncoding:
    def test_str_payload_ships_as_prometheus_text(self):
        raw = _encode_response(200, "metric_total 1\n", True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"metric_total 1\n"
        assert (
            f"Content-Type: {PROM_CONTENT_TYPE}".encode() in head
        )

    def test_dict_payload_ships_as_json(self):
        raw = _encode_response(404, {"error": "x"}, False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert json.loads(body) == {"error": "x"}
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head

    def test_extra_headers_are_emitted(self):
        raw = _encode_response(
            200, {}, True,
            {"X-Request-Id": "abc", "X-Trace-Id": "f" * 32},
        )
        head, _, _body = raw.partition(b"\r\n\r\n")
        assert b"X-Request-Id: abc" in head
        assert b"X-Trace-Id: " + b"f" * 32 in head
        assert b"Connection: keep-alive" in head


#: The families CI's observability smoke has always required.
SMOKE_FAMILIES = [
    "repro_service_requests_total",
    "repro_service_request_seconds",
    "repro_phase_seconds",
    "repro_slo_events_total",
    "repro_slo_error_budget_remaining",
    "repro_slo_burn_rate",
    "repro_slo_status",
    "repro_tensorstore_requests_total",
    "repro_tensorstore_build_age_seconds",
]

ON_GRID_TRACE = "0af7651916cd43dd8448eb211c80319c"
OFF_GRID_TRACE = "1bf7651916cd43dd8448eb211c80319c"
ON_GRID_BODY = json.dumps(
    {"workload": "bs", "f": 0.9, "design": "GTX285", "node_nm": 22}
).encode()
OFF_GRID_BODY = json.dumps({"workload": "mmm", "f": 0.905}).encode()


def _serve(tensor_dir, trace_file):
    """A real ``repro-hetsim serve`` on an ephemeral port, and its port."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--tensor-dir", str(tensor_dir),
            "--trace-file", str(trace_file), "--log-level", "info",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    for line in proc.stdout:
        if line.startswith("{"):
            record = json.loads(line)
            if record["event"] == "listening":
                return proc, record["port"]
    proc.wait(timeout=30)
    raise AssertionError(f"serve exited {proc.returncode} before listening")


def _fetch(conn, method, path, body=None, headers=None):
    """``(status, body bytes)`` over one keep-alive connection."""
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


class TestServeSmoke:
    def test_boot_scrape_validate_trace(self, tmp_path):
        """Boot ``serve`` over a default-built tensor store with
        ``--trace-file``, then scrape, validate and trace it (CI's
        observability-smoke job runs this test)."""
        from repro.perf.tensorstore import build_tensor_store

        tensor_dir = tmp_path / "tensors"
        trace_file = tmp_path / "trace.jsonl"
        build_tensor_store(tensor_dir)
        proc, port = _serve(tensor_dir, trace_file)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            status, health = _fetch(conn, "GET", "/healthz")
            assert status == 200
            tensor = json.loads(health)["tensor"]
            assert tensor["status"] == "ready", tensor

            # Traced on-grid: answered from the tensor store.  The same
            # body untraced rides the transport fast path.  Traced
            # off-grid aggregate: falls back to live compute.
            traced = _fetch(
                conn, "POST", "/v1/speedup", ON_GRID_BODY,
                {"X-Request-Id": ON_GRID_TRACE},
            )
            fast = _fetch(conn, "POST", "/v1/speedup", ON_GRID_BODY)
            off_grid = _fetch(
                conn, "POST", "/v1/optimize", OFF_GRID_BODY,
                {"X-Request-Id": OFF_GRID_TRACE},
            )
            assert [traced[0], fast[0], off_grid[0]] == [200] * 3

            status, exposition = _fetch(
                conn, "GET", "/metrics?format=prom"
            )
            assert status == 200
            text = exposition.decode()
            validate_prometheus(text, required=SMOKE_FAMILIES)
            assert 'outcome="hit"' in text
            assert 'outcome="fallback"' in text

            status, slo = _fetch(conn, "GET", "/v1/slo")
            objectives = json.loads(slo)["objectives"]
            assert objectives, "no SLO objectives reported"
            assert all("status" in o for o in objectives)
            conn.close()

            # Graceful shutdown flushes the trace file.
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0

        # Both tiers answer bit-identically to live compute.
        status, payload = _request("POST", "/v1/speedup", ON_GRID_BODY)[:2]
        assert status == 200
        reference = json.dumps(payload)
        for _status, body in (traced, fast):
            assert json.dumps(json.loads(body)) == reference

        spans = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
        ]
        on_grid = {
            s["name"] for s in spans if s["trace_id"] == ON_GRID_TRACE
        }
        assert {"http.request", "tensor.lookup"} <= on_grid, on_grid
        off_grid = {
            s["name"] for s in spans if s["trace_id"] == OFF_GRID_TRACE
        }
        assert {"tensor.lookup", "perf.optimize_batch"} <= off_grid, (
            off_grid
        )
