"""The serving path's counted grid call: results, errors, accounting.

The acceptance property is *bit identity*: whatever budgets a request
passes in one call, each gets exactly the DesignPoint a direct
``optimize_batch(chip, f, [its budget])`` call would return.
"""

import pytest

from repro.core.constraints import Budget
from repro.errors import ModelError
from repro.itrs.scenarios import BASELINE
from repro.obs.metrics import MetricsRegistry
from repro.perf.batch import optimize_batch
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget
from repro.service.batching import MicroBatcher
from repro.service.metrics import metrics_payload


def _mmm_designs():
    return {d.short_label: d for d in standard_designs("mmm")}


def _batcher():
    """A batcher counting into a registry the test can read."""
    registry = MetricsRegistry()
    return MicroBatcher(registry=registry), registry


def _roadmap_budgets(design):
    return [
        node_budget(
            node, "mmm", None, BASELINE,
            bandwidth_exempt=design.bandwidth_exempt,
        )
        for node in BASELINE.roadmap.nodes
    ]


class TestDemux:
    def test_each_caller_gets_its_own_budget_result(self):
        """Two designs x five nodes, one call per design: every row
        equals its own one-budget grid call, and nothing crosses."""
        designs = _mmm_designs()
        batcher = MicroBatcher()
        for label in ("ASIC", "GTX285"):
            design = designs[label]
            budgets = _roadmap_budgets(design)
            points = batcher.evaluate(design.chip, 0.999, budgets)
            assert points == optimize_batch(design.chip, 0.999, budgets)
            for budget, point in zip(budgets, points):
                direct = optimize_batch(design.chip, 0.999, [budget])[0]
                assert point == direct
                assert point.label == label

    def test_infeasible_budget_yields_none(self):
        design = _mmm_designs()["ASIC"]
        tight = Budget(area=0.5, power=0.25, bandwidth=0.5)
        roomy = _roadmap_budgets(design)[0]
        points = MicroBatcher().evaluate(design.chip, 0.99, [tight, roomy])
        assert points[0] is None
        assert points[1] == optimize_batch(design.chip, 0.99, [roomy])[0]


class TestErrors:
    def test_model_error_propagates_to_every_caller(self):
        """A call that raises counts nothing in any batch family."""
        design = _mmm_designs()["ASIC"]
        budgets = _roadmap_budgets(design)
        batcher, registry = _batcher()
        with pytest.raises(ModelError):
            batcher.evaluate(design.chip, -1.0, budgets)
        assert metrics_payload(registry)["batching"] == {
            "dispatches": 0, "items": 0, "max_batch": 0,
            "efficiency": None,
        }


class TestMetricsAccounting:
    def test_batch_sizes_recorded(self):
        design = _mmm_designs()["ASIC"]
        budgets = _roadmap_budgets(design)
        batcher, registry = _batcher()
        batcher.evaluate(design.chip, 0.99, budgets)
        batcher.evaluate(design.chip, 0.9, budgets[:1])
        snap = metrics_payload(registry)["batching"]
        assert snap["dispatches"] == 2
        assert snap["items"] == len(budgets) + 1
        assert snap["max_batch"] == len(budgets)
        assert snap["efficiency"] == pytest.approx((len(budgets) + 1) / 2)
