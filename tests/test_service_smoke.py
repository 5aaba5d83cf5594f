"""Serving-layer smoke benchmark (``make bench-quick``).

Deselected from the tier-1 suite by the ``perfbench`` marker.  Drives
a burst of concurrent requests through the in-process service and
asserts that grid calls carry more than one budget on average (a
sweep's five nodes share one call; batch efficiency strictly above 1)
and that the cache makes repeats effectively free.  The full load
benchmark lives in ``benchmarks/bench_service_load.py``.
"""

import asyncio
import json

import pytest

from repro.service.app import ModelService, ServiceConfig

pytestmark = pytest.mark.perfbench

SWEEP = json.dumps({"workload": "mmm", "f": 0.99, "design": "ASIC"}).encode()


def _body(nm):
    return json.dumps(
        {"workload": "mmm", "f": 0.99, "design": "ASIC", "node_nm": nm}
    ).encode()


def test_concurrent_burst_batches_and_caches():
    nodes = [40, 32, 22, 16, 11]

    async def burst(service):
        # One sweep (one grid call of 5 budgets) and the same 5 nodes
        # as speedups (one call each), all at once.
        return await asyncio.gather(
            service.handle("POST", "/v1/sweep", SWEEP),
            *(
                service.handle("POST", "/v1/speedup", _body(nm))
                for nm in nodes
            ),
        )

    async def main():
        service = ModelService(ServiceConfig())
        first = await burst(service)
        # Repeat the burst: every request is now a cache hit.
        second = await burst(service)
        _, metrics = await service.handle("GET", "/metrics")
        service.close()
        return first, second, metrics

    first, second, metrics = asyncio.run(main())
    assert all(status == 200 for status, _ in first + second)

    batching = metrics["batching"]
    assert batching["efficiency"] is not None
    assert batching["efficiency"] > 1, (
        f"no grid call evaluated more than one budget: {batching}"
    )
    # The repeat burst never touched the grid.
    assert batching["items"] == 2 * len(nodes)
    assert metrics["cache"]["hits"] == len(nodes) + 1
