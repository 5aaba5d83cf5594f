"""Request lifecycle through ModelService: route -> parse -> cache ->
admit -> batch -> respond.

Covers the acceptance matrix: schema-invalid body -> 400, infeasible
budgets -> 422 with the binding-bound message, queue overflow -> 429,
cache-hit short-circuit (the second identical request never reaches
the dispatcher), and the bit-identical guarantee of ``/v1/optimize``
against a direct ``optimize_batch`` call.
"""

import asyncio
import json

import pytest

from repro.core.constraints import Budget
from repro.itrs.scenarios import get_scenario
from repro.perf.batch import optimize_batch
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget
from repro.service.app import ModelService, ServiceConfig


def _run(coro):
    return asyncio.run(coro)


def _service(**overrides):
    return ModelService(ServiceConfig(**overrides))


def _dispatches(service):
    """Micro-batch flushes so far, from the service registry."""
    return service.registry.counter(
        "repro_service_batch_dispatches_total"
    ).value()


async def _post(service, path, body):
    return await service.handle(
        "POST", path, json.dumps(body).encode()
    )


class TestPlumbing:
    def test_healthz_reports_version(self):
        import repro

        async def main():
            service = _service()
            try:
                return await service.handle("GET", "/healthz")
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == repro.__version__
        assert payload["uptime_s"] >= 0

    def test_unknown_route_404(self):
        async def main():
            service = _service()
            try:
                return await service.handle("GET", "/v2/nothing")
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 404
        assert payload["error"] == "NotFoundError"

    def test_wrong_method_405(self):
        async def main():
            service = _service()
            try:
                return await service.handle("POST", "/healthz", b"{}")
            finally:
                service.close()

        status, _ = _run(main())
        assert status == 405

    def test_query_string_stripped(self):
        async def main():
            service = _service()
            try:
                return await service.handle("GET", "/healthz?probe=1")
            finally:
                service.close()

        assert _run(main())[0] == 200


class TestValidationErrors:
    def test_malformed_json_400(self):
        async def main():
            service = _service()
            try:
                return await service.handle(
                    "POST", "/v1/speedup", b"{not json"
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 400
        assert "JSON" in payload["message"]

    def test_schema_invalid_400(self):
        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/speedup",
                    {"workload": "mmm", "f": 2.0, "design": "ASIC"},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 400
        assert payload["error"] == "BadRequestError"
        assert "'f'" in payload["message"]

    def test_unknown_design_400_names_available(self):
        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/speedup",
                    {"workload": "mmm", "f": 0.9, "design": "TPU"},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 400
        assert "TPU" in payload["message"]
        assert "ASIC" in payload["message"]

    def test_unknown_node_400(self):
        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/speedup",
                    {"workload": "mmm", "f": 0.9, "design": "ASIC",
                     "node_nm": 7},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 400
        assert "7nm" in payload["message"]


class TestInfeasible422:
    def test_infeasible_budget_carries_binding_bound(self, monkeypatch):
        """A budget too tight for any serial core -> 422, message
        naming the binding serial bound (from InfeasibleDesignError)."""
        import repro.service.app as app_module

        tight = Budget(area=0.5, power=0.25, bandwidth=0.5)
        monkeypatch.setattr(
            app_module, "node_budget", lambda *a, **k: tight
        )

        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/speedup",
                    {"workload": "mmm", "f": 0.99, "design": "ASIC"},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 422
        assert payload["error"] == "InfeasibleDesignError"
        assert "bound by" in payload["message"]

    def test_optimize_all_infeasible_422(self, monkeypatch):
        import repro.service.app as app_module

        tight = Budget(area=0.5, power=0.25, bandwidth=0.5)
        monkeypatch.setattr(
            app_module, "node_budget", lambda *a, **k: tight
        )

        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/optimize",
                    {"workload": "mmm", "f": 0.99},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 422
        assert "no design is feasible" in payload["message"]


class TestOverloadAndTimeout:
    def test_queue_full_429(self):
        async def main():
            service = _service(max_inflight=1, queue_depth=0)

            async def slow(chip, f, budget, r_max=16):
                await asyncio.sleep(0.2)
                return optimize_batch(chip, f, [budget], r_max)[0]

            service.batcher.evaluate = slow
            body = {"workload": "mmm", "f": 0.99, "design": "ASIC"}
            first = asyncio.create_task(
                _post(service, "/v1/speedup", body)
            )
            await asyncio.sleep(0.05)  # first holds the only slot
            # A *different* request (no cache hit) while saturated:
            second = await _post(
                service, "/v1/speedup", {**body, "node_nm": 22}
            )
            result_first = await first
            service.close()
            return result_first, second

        (status1, _), (status2, payload2) = _run(main())
        assert status1 == 200
        assert status2 == 429
        assert payload2["error"] == "TooManyRequestsError"
        assert "capacity" in payload2["message"]

    def test_shed_counted_in_metrics(self):
        async def main():
            service = _service(max_inflight=1, queue_depth=0)

            async def slow(chip, f, budget, r_max=16):
                await asyncio.sleep(0.2)
                return optimize_batch(chip, f, [budget], r_max)[0]

            service.batcher.evaluate = slow
            body = {"workload": "mmm", "f": 0.99, "design": "ASIC"}
            first = asyncio.create_task(
                _post(service, "/v1/speedup", body)
            )
            await asyncio.sleep(0.05)  # first holds the only slot
            await _post(service, "/v1/speedup", {**body, "node_nm": 22})
            await first
            _, metrics = await service.handle("GET", "/metrics")
            service.close()
            return metrics

        metrics = _run(main())
        assert metrics["shed"] == 1
        assert metrics["requests"]["/v1/speedup"] == {"200": 1, "429": 1}
        assert "timeouts" not in metrics

    def test_huge_r_max_grid_stops_at_the_serial_ceiling(self):
        """Unstubbed: the grid runs inline on the loop and ``r_max``
        has no upper bound, so the work must be bounded by the budgets.
        A ``10**12`` sweep answers within a second, alongside a
        ``/healthz``, with the cells of an ``r_max`` just past
        double-power's largest serial ceiling (149.6 at 11 nm)."""
        body = {
            "workload": "mmm", "f": 0.99, "design": "SymCMP",
            "scenario": "double-power",
        }

        async def main():
            service = _service()
            loop = asyncio.get_running_loop()
            try:
                start = loop.time()
                huge, health = await asyncio.gather(
                    _post(service, "/v1/sweep", {**body, "r_max": 10**12}),
                    service.handle("GET", "/healthz"),
                )
                elapsed = loop.time() - start
                capped = await _post(
                    service, "/v1/sweep", {**body, "r_max": 150}
                )
                return huge, health, capped, elapsed
            finally:
                service.close()

        (status, huge), (health, _), (_, capped), elapsed = _run(main())
        assert (status, health) == (200, 200)
        assert huge["cells"] == capped["cells"]
        assert elapsed < 1.0


class TestResponseCache:
    def test_cache_hit_short_circuits_dispatcher(self):
        body = {"workload": "fft", "f": 0.99, "design": "ASIC"}

        async def main():
            service = _service()
            first = await _post(service, "/v1/speedup", body)
            dispatches = _dispatches(service)
            second = await _post(service, "/v1/speedup", body)
            _, metrics = await service.handle("GET", "/metrics")
            service.close()
            return (
                first, second, dispatches, _dispatches(service), metrics,
            )

        first, second, before, after, metrics = _run(main())
        assert first == second == (200, first[1])
        assert after == before  # second request never reached it
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1

    def test_different_requests_do_not_share_entries(self):
        async def main():
            service = _service()
            a = await _post(
                service, "/v1/speedup",
                {"workload": "fft", "f": 0.99, "design": "ASIC"},
            )
            b = await _post(
                service, "/v1/speedup",
                {"workload": "fft", "f": 0.9, "design": "ASIC"},
            )
            service.close()
            return a, b

        (_, pa), (_, pb) = _run(main())
        assert pa["point"]["speedup"] != pb["point"]["speedup"]

    def test_errors_are_not_cached(self):
        async def main():
            service = _service()
            await _post(
                service, "/v1/speedup",
                {"workload": "mmm", "f": 0.9, "design": "TPU"},
            )
            service.close()
            return len(service.cache)

        assert _run(main()) == 0


class TestBitIdentical:
    """The acceptance criterion: served results == optimize_batch."""

    def test_optimize_matches_direct_batch_call(self):
        f, workload = 0.999, "mmm"
        scenario = get_scenario("baseline")
        node = scenario.roadmap.nodes[-1]

        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/optimize",
                    {"workload": workload, "f": f},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200

        by_design = {
            c["design"]: c for c in payload["candidates"]
        }
        best_label, best_speedup = None, float("-inf")
        for design in standard_designs(workload):
            budget = node_budget(
                node, workload, None, scenario,
                bandwidth_exempt=design.bandwidth_exempt,
            )
            direct = optimize_batch(design.chip, f, [budget])[0]
            served = by_design[design.label]
            if direct is None:
                assert served["feasible"] is False
                continue
            # bit-identical floats, straight through JSON
            roundtrip = json.loads(json.dumps(served["point"]))
            assert roundtrip["speedup"] == direct.speedup
            assert roundtrip["r"] == direct.r
            assert roundtrip["n"] == direct.n
            if direct.speedup > best_speedup:
                best_label, best_speedup = design.label, direct.speedup
        assert payload["winner"]["design"] == best_label
        assert payload["winner"]["point"]["speedup"] == best_speedup

    def test_sweep_matches_projection_engine(self):
        from repro.projection.engine import project

        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/sweep",
                    {"workload": "fft", "f": 0.99, "design": "GTX480"},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200
        series = project("fft", 0.99).by_label()["GTX480"]
        assert len(payload["cells"]) == len(series.cells)
        for cell, engine_cell in zip(payload["cells"], series.cells):
            assert cell["node"] == engine_cell.node.label
            if engine_cell.point is None:
                assert cell["point"] is None
            else:
                assert cell["point"]["speedup"] == engine_cell.point.speedup

    def test_speedup_matches_scalar_optimize(self):
        from repro.core.optimizer import optimize

        async def main():
            service = _service()
            try:
                return await _post(
                    service, "/v1/speedup",
                    {"workload": "bs", "f": 0.9, "design": "GTX285",
                     "node_nm": 22},
                )
            finally:
                service.close()

        status, payload = _run(main())
        assert status == 200
        design = {
            d.short_label: d for d in standard_designs("bs")
        }["GTX285"]
        scenario = get_scenario("baseline")
        budget = node_budget(
            scenario.roadmap.node(22), "bs", None, scenario,
            bandwidth_exempt=design.bandwidth_exempt,
        )
        direct = optimize(design.chip, 0.9, budget)
        assert payload["point"]["speedup"] == direct.speedup
        assert payload["point"]["r"] == direct.r


class TestBatchingAcrossRequests:
    def test_concurrent_same_design_requests_coalesce(self):
        """Five users asking about the same design at different nodes
        ride one optimize_batch dispatch."""
        nodes = [40, 32, 22, 16, 11]

        async def main():
            service = _service()
            results = await asyncio.gather(
                *(
                    _post(
                        service, "/v1/speedup",
                        {"workload": "mmm", "f": 0.99,
                         "design": "ASIC", "node_nm": nm},
                    )
                    for nm in nodes
                )
            )
            dispatches = _dispatches(service)
            items = service.registry.counter(
                "repro_service_batched_items_total"
            ).value()
            service.close()
            return results, dispatches, items

        results, dispatches, items = _run(main())
        assert all(status == 200 for status, _ in results)
        assert dispatches == 1
        assert items == len(nodes)
        # Every caller still got its own node's answer.
        answered = {p["node"] for _, p in results}
        assert answered == {f"{nm}nm" for nm in nodes}
