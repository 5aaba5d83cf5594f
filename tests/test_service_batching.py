"""Micro-batching dispatcher: coalescing, demux, and error paths.

The acceptance property is *bit-identical demultiplexing*: whatever
gets coalesced, each caller receives exactly the DesignPoint a direct
``optimize_batch(chip, f, [its budget])`` call would return.
"""

import asyncio

import pytest

from repro.core.constraints import Budget
from repro.errors import ModelError
from repro.itrs.scenarios import BASELINE
from repro.obs.metrics import MetricsRegistry
from repro.perf.batch import optimize_batch
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget
from repro.service.batching import MicroBatcher


def _mmm_designs():
    return {d.short_label: d for d in standard_designs("mmm")}


def _batcher():
    """A batcher counting into a registry the test can read."""
    registry = MetricsRegistry()
    return MicroBatcher(registry=registry), registry


def _count(registry, name="repro_service_batch_dispatches_total"):
    return registry.counter(name).value()


def _roadmap_budgets(design):
    return [
        node_budget(
            node, "mmm", None, BASELINE,
            bandwidth_exempt=design.bandwidth_exempt,
        )
        for node in BASELINE.roadmap.nodes
    ]


class TestCoalescing:
    def test_same_key_concurrent_requests_share_one_dispatch(self):
        design = _mmm_designs()["ASIC"]
        budgets = _roadmap_budgets(design)

        async def main():
            batcher, registry = _batcher()
            points = await asyncio.gather(
                *(
                    batcher.evaluate(design.chip, 0.99, b)
                    for b in budgets
                )
            )
            return registry, points

        registry, points = asyncio.run(main())
        assert _count(registry) == 1
        assert _count(registry, "repro_service_batched_items_total") == len(
            budgets
        )
        direct = optimize_batch(design.chip, 0.99, budgets)
        assert points == direct

    def test_different_f_values_do_not_coalesce(self):
        design = _mmm_designs()["ASIC"]
        budget = _roadmap_budgets(design)[0]

        async def main():
            batcher, registry = _batcher()
            await asyncio.gather(
                batcher.evaluate(design.chip, 0.9, budget),
                batcher.evaluate(design.chip, 0.99, budget),
            )
            return registry

        assert _count(asyncio.run(main())) == 2

    def test_different_chips_do_not_coalesce(self):
        designs = _mmm_designs()
        asic, sym = designs["ASIC"], designs["SymCMP"]
        budget = node_budget(BASELINE.roadmap.nodes[0], "mmm", None)

        async def main():
            batcher, registry = _batcher()
            points = await asyncio.gather(
                batcher.evaluate(asic.chip, 0.99, budget),
                batcher.evaluate(sym.chip, 0.99, budget),
            )
            return registry, points

        registry, points = asyncio.run(main())
        assert _count(registry) == 2
        assert points[0].label == "ASIC"
        assert points[1].label == "SymCMP"

    def test_requests_after_tick_get_a_fresh_batch(self):
        design = _mmm_designs()["ASIC"]
        budget = _roadmap_budgets(design)[0]

        async def main():
            batcher, registry = _batcher()
            first = await batcher.evaluate(design.chip, 0.99, budget)
            second = await batcher.evaluate(design.chip, 0.99, budget)
            return registry, first, second

        registry, first, second = asyncio.run(main())
        assert _count(registry) == 2
        assert first == second


class TestDemux:
    def test_each_caller_gets_its_own_budget_result(self):
        """Interleave two designs x five nodes; nothing crosses wires."""
        designs = _mmm_designs()
        pairs = [
            (designs[label], b)
            for label in ("ASIC", "GTX285")
            for b in _roadmap_budgets(designs[label])
        ]

        async def main():
            batcher = MicroBatcher()
            return await asyncio.gather(
                *(
                    batcher.evaluate(d.chip, 0.999, b)
                    for d, b in pairs
                )
            )

        points = asyncio.run(main())
        for (design, budget), point in zip(pairs, points):
            direct = optimize_batch(design.chip, 0.999, [budget])[0]
            assert point == direct

    def test_infeasible_budget_yields_none(self):
        design = _mmm_designs()["ASIC"]
        tight = Budget(area=0.5, power=0.25, bandwidth=0.5)

        async def main():
            batcher = MicroBatcher()
            return await batcher.evaluate(design.chip, 0.99, tight)

        assert asyncio.run(main()) is None


class TestErrors:
    def test_model_error_propagates_to_every_caller(self):
        design = _mmm_designs()["ASIC"]
        budget = _roadmap_budgets(design)[0]

        async def main():
            batcher, registry = _batcher()
            results = await asyncio.gather(
                batcher.evaluate(design.chip, -1.0, budget),
                batcher.evaluate(design.chip, -1.0, budget),
                return_exceptions=True,
            )
            return registry, results

        registry, results = asyncio.run(main())
        assert _count(registry) == 0  # the flush failed
        assert all(isinstance(r, ModelError) for r in results)

    def test_pending_key_cleared_after_flush(self):
        design = _mmm_designs()["ASIC"]
        budget = _roadmap_budgets(design)[0]

        async def main():
            batcher = MicroBatcher()
            await batcher.evaluate(design.chip, 0.99, budget)
            return batcher.pending_keys()

        assert asyncio.run(main()) == []


class TestMetricsAccounting:
    def test_batch_sizes_recorded(self):
        from repro.service.metrics import metrics_payload

        design = _mmm_designs()["ASIC"]
        budgets = _roadmap_budgets(design)
        registry = MetricsRegistry()

        async def main():
            batcher = MicroBatcher(registry=registry)
            await asyncio.gather(
                *(
                    batcher.evaluate(design.chip, 0.99, b)
                    for b in budgets
                )
            )

        asyncio.run(main())
        snap = metrics_payload(registry)["batching"]
        assert snap["dispatches"] == 1
        assert snap["items"] == len(budgets)
        assert snap["efficiency"] == pytest.approx(len(budgets))
