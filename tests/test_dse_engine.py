"""DSE engine: providers, multi-U-core chips, config expansion.

The headline acceptance properties asserted here:

* a multi-U-core chip with one substrate forced collapses to the
  single-U-core optimizer bit-identically;
* the ``table1`` provider is the identity regime -- its sweep
  reproduces :mod:`repro.projection` floats exactly;
* the alternative providers genuinely change the answer.
"""

import math

import pytest

from repro.core.chip import HeterogeneousChip
from repro.core.constraints import Budget
from repro.core.multicore import MultiUCoreChip, WorkloadSegment
from repro.core.optimizer import optimize, sweep_designs
from repro.devices.params import ucore_for
from repro.dse.dsl import ChipSpec, DSEScenario, SegmentSpec
from repro.dse.engine import (
    evaluate_config,
    exhaustive_sweep,
    expand_configs,
    resolve_chip,
)
from repro.dse.providers import get_provider, provider_names
from repro.errors import ModelError
from repro.itrs.scenarios import BASELINE
from repro.projection.engine import node_budget, project

BUDGET = Budget(area=149.0, power=36.0, bandwidth=52.0)


def _asic():
    return ucore_for("ASIC", "mmm")


class TestMultiUCoreCollapse:
    def test_single_segment_equals_heterogeneous_chip(self):
        asic = _asic()
        multi = MultiUCoreChip(
            [WorkloadSegment("only", 3.0, asic)]
        )
        single = HeterogeneousChip(asic)
        assert multi.allocation == (1.0,)
        assert multi.phi_eff == asic.phi
        assert multi.mu_bw == asic.mu
        for f in (0.0, 0.9, 0.999):
            for r, n in ((1.0, 40.0), (4.0, 9.5), (16.0, 66.0)):
                if f > 0 and n <= r:
                    continue
                assert multi.speedup(f, n, r) == single.speedup(
                    f, n, r
                )
        for r in (1.0, 4.0, 16.0):
            assert multi.bound_power(BUDGET, r) == (
                single.bound_power(BUDGET, r)
            )
            assert multi.bound_bandwidth(BUDGET, r) == (
                single.bound_bandwidth(BUDGET, r)
            )

    def test_single_segment_optimize_bit_identical(self):
        asic = _asic()
        multi = MultiUCoreChip([WorkloadSegment("only", 1.0, asic)])
        single = HeterogeneousChip(asic)
        a = optimize(multi, 0.99, BUDGET)
        b = optimize(single, 0.99, BUDGET)
        assert (a.r, a.n, a.speedup) == (b.r, b.n, b.speedup)
        assert a.limiter is b.limiter

    def test_allocation_sums_to_one_and_follows_sqrt_rule(self):
        gpu = ucore_for("GTX480", "mmm")
        asic = _asic()
        chip = MultiUCoreChip(
            [
                WorkloadSegment("hot", 3.0, asic),
                WorkloadSegment("simd", 1.0, gpu),
            ]
        )
        assert math.isclose(sum(chip.allocation), 1.0)
        g = (0.75, 0.25)
        want = [
            math.sqrt(g[0] / asic.mu),
            math.sqrt(g[1] / gpu.mu),
        ]
        total = sum(want)
        for got, expect in zip(chip.allocation, want):
            assert math.isclose(got, expect / total)

    def test_optimal_split_beats_perturbed_splits(self):
        """The closed form really is the minimiser of parallel time."""
        gpu = ucore_for("GTX480", "mmm")
        asic = _asic()
        segments = [
            WorkloadSegment("hot", 2.0, asic),
            WorkloadSegment("simd", 1.0, gpu),
        ]
        chip = MultiUCoreChip(segments)
        a_opt = chip.allocation[0]
        g = chip._g
        mus = (asic.mu, gpu.mu)

        def parallel_time(a0):
            return g[0] / (mus[0] * a0) + g[1] / (mus[1] * (1 - a0))

        best = parallel_time(a_opt)
        for eps in (-0.05, -0.01, 0.01, 0.05):
            a = a_opt + eps
            if 0 < a < 1:
                assert parallel_time(a) >= best

    def test_needs_fabric_and_segments(self):
        asic = _asic()
        with pytest.raises(ModelError, match="at least one"):
            MultiUCoreChip([])
        with pytest.raises(ModelError, match="weight"):
            WorkloadSegment("k", 0.0, asic)
        chip = MultiUCoreChip([WorkloadSegment("k", 1.0, asic)])
        with pytest.raises(ModelError, match="fabric"):
            chip.speedup(0.99, 4.0, 4.0)

    @pytest.mark.parametrize(
        "weights", [(5e-324, 1.0), (1e308, 1e308)],
        ids=["share-underflows", "total-overflows"],
    )
    def test_weights_that_cannot_split_are_a_model_error(self, weights):
        """The rule DSE scenario validation applies, in the model: a
        finite total and every share a normal float (these weights
        raised a bare ``ZeroDivisionError`` in the fabric split)."""
        gpu = ucore_for("GTX480", "mmm")
        segments = [
            WorkloadSegment("hot", weights[0], _asic()),
            WorkloadSegment("simd", weights[1], gpu),
        ]
        with pytest.raises(ModelError, match="weights"):
            MultiUCoreChip(segments)


class TestProviders:
    def test_registry(self):
        assert provider_names() == [
            "table1", "ginosar-sqrtm", "yavits"
        ]
        with pytest.raises(ModelError, match="provider"):
            get_provider("magic")

    def test_table1_is_identity(self):
        p = get_provider("table1")
        assert p.identity
        assert p.effective_parallel(9.0) == 9.0
        assert p.transform_budget(BUDGET) is BUDGET

    def test_ginosar_sublinear(self):
        p = get_provider("ginosar-sqrtm")
        assert not p.identity
        assert p.effective_parallel(0.5) == 0.5
        assert p.effective_parallel(16.0) == 4.0
        assert p.transform_budget(BUDGET) is BUDGET

    def test_yavits_transforms_power(self):
        p = get_provider("yavits")
        transformed = p.transform_budget(BUDGET)
        assert transformed.power == BUDGET.power ** 0.9
        assert transformed.area == BUDGET.area
        assert p.effective_parallel(1.0) < 1.0 or math.isclose(
            p.effective_parallel(1.0), 1.0 / (1 + 0.05 * math.log(2))
        )

    def test_providers_disagree_on_the_same_space(self):
        best = {}
        for name in provider_names():
            scenario = DSEScenario(
                name=f"p-{name}",
                provider=name,
                f_values=(0.99,),
                chips=(ChipSpec(kind="single", device="GTX480"),),
            )
            points, _ = exhaustive_sweep(expand_configs(scenario))
            best[name] = max(p.speedup for p in points)
        assert best["ginosar-sqrtm"] < best["table1"]
        assert best["yavits"] < best["table1"]


class TestResolveChip:
    def test_single_asic_mmm_is_bandwidth_exempt(self):
        chip, exempt = resolve_chip(
            ChipSpec(kind="single", device="ASIC"), "mmm"
        )
        assert isinstance(chip, HeterogeneousChip)
        assert exempt

    def test_single_gpu_keeps_the_bandwidth_bound(self):
        _, exempt = resolve_chip(
            ChipSpec(kind="single", device="GTX480"), "mmm"
        )
        assert not exempt

    def test_best_substrate_resolves_to_highest_mu(self):
        chip, exempt = resolve_chip(
            ChipSpec(
                kind="multi",
                segments=(SegmentSpec(name="k", device="best"),),
            ),
            "mmm",
        )
        assert chip.label == "ASIC"  # highest mu for MMM
        assert exempt  # all resolved devices are ASIC

    def test_mixed_multi_chip_is_not_exempt(self):
        _, exempt = resolve_chip(
            ChipSpec(
                kind="multi",
                segments=(
                    SegmentSpec(name="a", device="ASIC"),
                    SegmentSpec(name="b", device="GTX480"),
                ),
            ),
            "mmm",
        )
        assert not exempt


class TestExpansion:
    def test_deterministic_order_and_unique_ids(self):
        scenario = DSEScenario(name="exp", f_values=(0.9, 0.99))
        a = expand_configs(scenario, (0.5, 1.0), (1.0,))
        b = expand_configs(scenario, (0.5, 1.0), (1.0,))
        ids = [c.config_id for c in a]
        assert ids == [c.config_id for c in b]
        assert len(set(ids)) == len(ids)
        # 5 default chips x 2 f x 5 nodes x 2 area x 1 power
        assert len(a) == 100

    def test_single_segment_multi_matches_single_through_engine(self):
        single = DSEScenario(
            name="s",
            f_values=(0.99,),
            chips=(ChipSpec(kind="single", device="ASIC"),),
        )
        multi = DSEScenario(
            name="m",
            f_values=(0.99,),
            chips=(
                ChipSpec(
                    kind="multi",
                    segments=(
                        SegmentSpec(name="k", device="ASIC"),
                    ),
                ),
            ),
        )
        pa, _ = exhaustive_sweep(expand_configs(single))
        pb, _ = exhaustive_sweep(expand_configs(multi))
        assert len(pa) == len(pb) == 5
        for a, b in zip(pa, pb):
            assert (a.speedup, a.r, a.n, a.limiter) == (
                b.speedup, b.r, b.n, b.limiter
            )

    def test_table1_sweep_matches_projection_engine(self):
        """The engine's floats == repro.projection's floats."""
        scenario = DSEScenario(name="diff", f_values=(0.99,))
        points, _ = exhaustive_sweep(expand_configs(scenario))
        result = project("mmm", 0.99, BASELINE)
        by_key = {
            (p.chip, p.node): p.speedup for p in points
        }
        for series in result.series:
            label = series.design.short_label
            if label not in ("LX760", "GTX285", "GTX480", "R5870",
                             "ASIC"):
                continue
            for cell in series.cells:
                if cell.point is None:
                    continue
                assert by_key[(label, cell.node.label)] == (
                    cell.point.speedup
                )

    def test_infeasible_configs_count_not_crash(self):
        scenario = DSEScenario(
            name="tiny",
            f_values=(0.99,),
            chips=(ChipSpec(kind="single", device="ASIC"),),
        )
        configs = expand_configs(scenario, (1e-9,), (1e-9,))
        points, infeasible = exhaustive_sweep(configs)
        assert infeasible == len(configs)
        assert points == []

    def test_evaluate_config_speedup_positive(self):
        scenario = DSEScenario(name="one", f_values=(0.5,))
        config = expand_configs(scenario)[0]
        point = evaluate_config(config)
        assert point is not None
        assert point.speedup > 0
        # the nominal budgets survive untouched on the point
        node = BASELINE.roadmap.nodes[0]
        budget = node_budget(node, "mmm", None, BASELINE)
        assert point.area == budget.area
        assert point.power == budget.power
