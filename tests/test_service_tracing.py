"""Tracing is opt-in per request, by one rule on every serving tier.

:func:`repro.service.http.fast_path_eligible` decides it: a
keep-alive model ``POST`` without ``X-Request-Id`` is untraced.  An
untraced live request answered 2xx records only what ``/metrics`` and
the SLO tracker read -- no span, no ids, no ring entry, no access line.
A request that sends ``X-Request-Id`` keeps its span tree, ids and
access line, and an untraced request that fails still gets all three,
so every error resolves through ``GET /v1/traces``.  Pinned in process
and over a real socket; the metric ``endpoint`` label is pinned to
routes here too.
"""

import asyncio
import json
import logging

import pytest

import repro.service.app as app_module
from repro.core.constraints import Budget
from repro.obs.trace import get_tracer
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import encode_request, read_response, serve_until

#: One live (no tensor store) request per model endpoint.
LIVE = (
    ("/v1/speedup", {"workload": "mmm", "f": 0.97, "design": "ASIC",
                     "node_nm": 22}),
    ("/v1/sweep", {"workload": "fft", "f": 0.9, "design": "GTX285"}),
    ("/v1/optimize", {"workload": "bs", "f": 0.95, "node_nm": 32}),
)
ENDPOINTS = [path for path, _ in LIVE]

#: Fails validation: ``f`` must lie in [0, 1].
BAD_BODY = json.dumps({"workload": "mmm", "f": 2.0, "design": "ASIC"})


def _run(coro):
    return asyncio.run(coro)


def _service():
    return ModelService(ServiceConfig(profile=False))


def _exported():
    """Spans the shared tracer has finished so far (ring or not)."""
    return get_tracer().stats()["exported"]


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.data)


@pytest.fixture
def access():
    """The ``service.access`` records' fields, in order."""
    logger = logging.getLogger("repro.service.access")
    handler = _Lines()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield handler.lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _accounted(service, path):
    """``(200s counted, latency samples, exemplar, good SLO events of
    the catch-all objective)`` for one endpoint."""
    latency = service.registry.histogram("repro_service_request_seconds")
    availability = next(
        o for o in service.slo.snapshot()["objectives"]
        if o["name"] == "availability"
    )
    return (
        service.registry.counter("repro_service_requests_total").value(
            endpoint=path, status="200"
        ),
        len(latency.window_values(endpoint=path)),
        latency.exemplar(endpoint=path),
        availability["events_good"],
    )


class TestInProcess:
    @pytest.mark.parametrize("path,body", LIVE, ids=ENDPOINTS)
    def test_untraced_live_answer_records_metrics_only(
        self, path, body, access
    ):
        async def main():
            service = _service()
            try:
                before = _exported()
                answer = await service.handle_request(
                    "POST", path, json.dumps(body).encode()
                )
                return answer, _exported() - before, service
            finally:
                service.close()

        (status, _payload, headers), spans, service = _run(main())
        assert status == 200
        assert headers == {}
        assert spans == 0
        assert access == []
        assert _accounted(service, path) == (1, 1, None, 1)
        assert service.registry.counter(
            "repro_service_response_cache_total"
        ).value(result="miss") == 1

    def test_traced_request_keeps_its_tree_ids_and_access_line(
        self, access
    ):
        path, body = LIVE[0]

        async def main():
            service = _service()
            try:
                answer = await service.handle_request(
                    "POST", path, json.dumps(body).encode(),
                    {"x-request-id": "req-7"},
                )
                return answer, service
            finally:
                service.close()

        (status, _payload, headers), service = _run(main())
        assert status == 200
        assert headers["X-Request-Id"] == "req-7"
        trace_id = headers["X-Trace-Id"]
        spans = {s["name"]: s for s in get_tracer().trace(trace_id)}
        assert sorted(spans) == ["http.request", "perf.optimize_batch"]
        root = spans["http.request"]
        assert root["parent_id"] is None
        assert root["attributes"]["request_id"] == "req-7"
        assert spans["perf.optimize_batch"]["parent_id"] == root["span_id"]
        assert [(a["request_id"], a["trace_id"]) for a in access] == [
            ("req-7", trace_id)
        ]
        count, samples, exemplar, good = _accounted(service, path)
        assert (count, samples, exemplar[1], good) == (1, 1, trace_id, 1)

    @pytest.mark.parametrize("status", [400, 422])
    def test_untraced_error_gets_ids_a_span_and_an_access_line(
        self, status, access, monkeypatch
    ):
        body = BAD_BODY
        if status == 422:
            # A budget too tight for any serial core: infeasible.
            tight = Budget(area=0.5, power=0.25, bandwidth=0.5)
            monkeypatch.setattr(
                app_module, "node_budget", lambda *a, **k: tight
            )
            body = json.dumps(dict(LIVE[0][1]))

        async def main():
            service = _service()
            try:
                answer = await service.handle_request(
                    "POST", "/v1/speedup", body.encode()
                )
                _, traces, _ = await service.handle_request(
                    "GET",
                    f"/v1/traces?trace_id={answer[2]['X-Trace-Id']}",
                )
                return answer, traces, service
            finally:
                service.close()

        (got, _payload, headers), traces, service = _run(main())
        assert got == status
        request_id, trace_id = headers["X-Request-Id"], headers["X-Trace-Id"]
        assert len(request_id) == 16 and len(trace_id) == 32
        [span] = traces["spans"]
        assert span["name"] == "http.request"
        assert span["parent_id"] is None
        assert span["attributes"] == {
            "method": "POST", "path": "/v1/speedup",
            "request_id": request_id, "status": status,
        }
        # Built when the request ended, backdated to its start.
        [latency] = service.registry.histogram(
            "repro_service_request_seconds"
        ).window_values(endpoint="/v1/speedup")
        assert span["duration_ms"] >= latency * 1e3
        assert [
            (a["status"], a["request_id"], a["trace_id"])
            for a in access if a["path"] == "/v1/speedup"
        ] == [(status, request_id, trace_id)]


class TestRouteLabels:
    def test_client_paths_do_not_mint_series(self):
        """1,000 unknown paths and job polls: one label each."""

        async def main():
            service = _service()
            try:
                for i in range(1000):
                    await service.handle("GET", f"/nope-{i}")
                for i in range(3):
                    await service.handle("GET", f"/v1/jobs/job-{i}")
                await service.handle("GET", "/healthz")
                return service
            finally:
                service.close()

        service = _run(main())
        counts = {
            (labels["endpoint"], labels["status"]): count
            for labels, count in service.registry.counter(
                "repro_service_requests_total"
            ).series()
        }
        assert counts == {
            ("other", "404"): 1000,
            ("/v1/jobs/{id}", "404"): 3,
            ("/healthz", "200"): 1,
        }
        latency = service.registry.histogram(
            "repro_service_request_seconds"
        )
        assert sorted(s["endpoint"] for s in latency.label_sets()) == [
            "/healthz", "/v1/jobs/{id}", "other",
        ]


async def _free_port():
    probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = probe.sockets[0].getsockname()[1]
    probe.close()
    await probe.wait_closed()
    return port


class TestOverASocket:
    def test_keep_alive_connection_honours_the_opt_in(self, access):
        async def main():
            service = _service()
            stop, ready = asyncio.Event(), asyncio.Event()
            port = await _free_port()
            server = asyncio.create_task(
                serve_until(service, stop, port=port, ready=ready)
            )
            await ready.wait()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )

            async def exchange(method, path, body=b"", headers=None):
                writer.write(
                    encode_request(method, path, headers or {}, body)
                )
                return await read_response(reader)

            try:
                before = _exported()
                untraced = [
                    await exchange("POST", path, json.dumps(body).encode())
                    for path, body in LIVE
                ]
                spans = _exported() - before
                lines = len(access)
                traced = [
                    await exchange(
                        "POST", path, json.dumps(body).encode(),
                        {"X-Request-Id": f"req-{i}"},
                    )
                    for i, (path, body) in enumerate(LIVE)
                ]
                bad = await exchange("POST", "/v1/speedup", BAD_BODY.encode())
                trace = await exchange(
                    "GET", f"/v1/traces?trace_id={bad[1]['x-trace-id']}"
                )
                metrics = await exchange("GET", "/metrics")
            finally:
                writer.close()
                stop.set()
                await server
            return untraced, spans, lines, traced, bad, trace, metrics

        untraced, spans, lines, traced, bad, trace, metrics = _run(main())
        for i, (plain, opted) in enumerate(zip(untraced, traced)):
            assert plain[0] == opted[0] == 200
            assert "x-request-id" not in plain[1]
            assert "x-trace-id" not in plain[1]
            assert opted[1]["x-request-id"] == f"req-{i}"
            assert plain[2] == opted[2]  # byte-identical bodies
        assert (spans, lines) == (0, 0)
        assert bad[0] == 400
        assert bad[1]["x-request-id"]
        [span] = json.loads(trace[2])["spans"]
        assert span["name"] == "http.request"
        assert span["attributes"]["status"] == 400
        requests = json.loads(metrics[2])["requests"]
        for path in ENDPOINTS:
            assert requests[path]["200"] == 2
        assert requests["/v1/speedup"]["400"] == 1
