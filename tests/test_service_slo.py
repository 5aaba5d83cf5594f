"""The serving layer's SLO surface: ``GET /v1/slo``, the ``slo``
sections of both ``/metrics`` forms, and the ``/healthz`` payload
carrying SLO status without changing its readiness contract.
"""

import asyncio

from repro.obs.metrics import validate_prometheus
from repro.obs.slo import SLObjective, SLOTracker
from repro.service.app import ModelService, ServiceConfig


def _run(coro):
    return asyncio.run(coro)


def _service(**overrides):
    return ModelService(ServiceConfig(**overrides))


def _request(method, path, body=b"", headers=None, **overrides):
    async def main():
        service = _service(**overrides)
        try:
            return await service.handle_request(method, path, body, headers)
        finally:
            service.close()

    return _run(main())


class TestSLOEndpoint:
    def test_slo_snapshot_shape(self):
        status, payload, _h = _request("GET", "/v1/slo")
        assert status == 200
        assert payload["status"] == "ok"
        names = {o["name"] for o in payload["objectives"]}
        assert {
            "availability",
            "speedup-latency",
            "sweep-latency",
            "optimize-latency",
        } <= names
        assert all("status" in o for o in payload["objectives"])
        assert payload["windows"]["fast_s"] > 0

    def test_slo_rejects_post(self):
        status, payload, _h = _request("POST", "/v1/slo")
        assert status == 405

    def test_requests_are_accounted(self):
        async def main():
            service = _service()
            try:
                await service.handle_request(
                    "POST", "/v1/speedup",
                    b'{"workload": "mmm", "f": 0.99, '
                    b'"design": "ASIC", "node_nm": 22}',
                )
                _s, payload, _h = await service.handle_request(
                    "GET", "/v1/slo"
                )
            finally:
                service.close()
            return payload

        payload = _run(main())
        by_name = {o["name"]: o for o in payload["objectives"]}
        accounted = by_name["availability"]
        assert accounted["events_good"] + accounted["events_bad"] >= 1

    def test_custom_objectives(self):
        status, payload, _h = _request(
            "GET", "/v1/slo",
            slo_objectives=(
                SLObjective(name="only", endpoint="*", target=0.9),
            ),
        )
        assert status == 200
        assert [o["name"] for o in payload["objectives"]] == ["only"]


class TestMetricsCarrySLO:
    def test_json_metrics_has_slo_section(self):
        status, payload, _h = _request("GET", "/metrics")
        assert status == 200
        assert payload["slo"]["status"] == "ok"
        assert payload["slo"]["objectives"]

    def test_prometheus_exposition_has_slo_families(self):
        async def main():
            service = _service()
            try:
                await service.handle_request("GET", "/healthz")
                _s, text, _h = await service.handle_request(
                    "GET", "/metrics?format=prom"
                )
            finally:
                service.close()
            return text

        text = _run(main())
        names = validate_prometheus(text, required=[
            "repro_slo_events_total",
            "repro_slo_error_budget_remaining",
            "repro_slo_burn_rate",
            "repro_slo_status",
        ])
        assert names


class TestHealthzContract:
    def test_payload_keeps_old_keys_and_adds_slo(self):
        # The pre-SLO healthz contract is pinned: consumers key on
        # these fields, so the new "slo" entry only ever adds.
        status, payload, _h = _request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        for key in ("status", "version", "uptime_s", "checks"):
            assert key in payload
        assert payload["slo"] == "ok"

    def test_burning_slo_does_not_degrade_readiness(self):
        async def main():
            service = _service()
            clock = {"now": 0.0}
            tracker = SLOTracker(
                objectives=(
                    SLObjective(
                        name="lat", endpoint="/v1/x", target=0.99,
                        latency_threshold_ms=100.0,
                    ),
                ),
                registry=service.registry,
                clock=lambda: clock["now"],
            )
            alerts = []
            tracker.add_alert_hook(alerts.append)
            service.slo = tracker
            try:
                for _ in range(10_000):
                    tracker.record("/v1/x", 0.01, error=False)
                clock["now"] = 3700.0
                for _ in range(50):
                    tracker.record("/v1/x", 5.0, error=False)
                health = await service.handle_request("GET", "/healthz")
                slo = await service.handle_request("GET", "/v1/slo")
            finally:
                service.close()
            return health, slo, alerts

        (h_status, h_payload, _), (s_status, s_payload, _), alerts = (
            _run(main())
        )
        # Burning means "stop deploying", not "stop routing": healthz
        # stays 200/ok while reporting the hot SLO.
        assert (h_status, h_payload["status"]) == (200, "ok")
        assert h_payload["slo"] == "burning"
        assert (s_status, s_payload["status"]) == (200, "burning")
        assert len(alerts) == 1
