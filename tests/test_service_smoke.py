"""Serving-layer smoke benchmark (``make bench-quick``).

Deselected from the tier-1 suite by the ``perfbench`` marker.  Drives
a burst of concurrent requests through the in-process service and
asserts the micro-batcher actually coalesces work (batch efficiency
strictly above 1) and that the cache makes repeats effectively free.
The full load benchmark lives in ``benchmarks/bench_service_load.py``.
"""

import asyncio
import json

import pytest

from repro.service.app import ModelService, ServiceConfig

pytestmark = pytest.mark.perfbench


def _body(nm):
    return json.dumps(
        {"workload": "mmm", "f": 0.99, "design": "ASIC", "node_nm": nm}
    ).encode()


def test_concurrent_burst_batches_and_caches():
    nodes = [40, 32, 22, 16, 11]

    async def main():
        service = ModelService(ServiceConfig())
        # Burst: 5 distinct requests sharing one (chip, f) key.
        first = await asyncio.gather(
            *(
                service.handle("POST", "/v1/speedup", _body(nm))
                for nm in nodes
            )
        )
        # Repeat the burst: every request is now a cache hit.
        second = await asyncio.gather(
            *(
                service.handle("POST", "/v1/speedup", _body(nm))
                for nm in nodes
            )
        )
        _, metrics = await service.handle("GET", "/metrics")
        service.close()
        return first, second, metrics

    first, second, metrics = asyncio.run(main())
    assert all(status == 200 for status, _ in first + second)

    batching = metrics["batching"]
    assert batching["efficiency"] is not None
    assert batching["efficiency"] > 1, (
        f"micro-batcher never coalesced: {batching}"
    )
    # The repeat burst never touched the dispatcher.
    assert batching["items"] == len(nodes)
    assert metrics["cache"]["hits"] == len(nodes)
