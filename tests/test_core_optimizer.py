"""Unit tests for repro.core.optimizer (the r-sweep)."""

import math
import time

import pytest

from repro.core.chip import HeterogeneousChip, SymmetricCMP
from repro.core.constraints import Budget, LimitingFactor
from repro.core.optimizer import (
    DEFAULT_R_MAX,
    evaluate_design,
    feasible_r_values,
    optimize,
    sweep_designs,
)
from repro.core.ucore import UCore
from repro.errors import InfeasibleDesignError


class TestFeasibleR:
    def test_default_sweep_is_1_to_16(self, sym_chip, roomy_budget):
        assert feasible_r_values(sym_chip, roomy_budget) == list(
            range(1, 17)
        )

    def test_no_serial_core_raises_named_error(self, sym_chip):
        # P = 0.5 -> max_serial_r < 1: not even a single-BCE core fits
        # the serial power bound.
        budget = Budget(area=100.0, power=0.5)
        with pytest.raises(InfeasibleDesignError) as exc:
            feasible_r_values(sym_chip, budget)
        assert "serial power" in str(exc.value)

    def test_binding_bandwidth_bound_is_named(self, sym_chip):
        # B = 0.2 -> sqrt(r) <= 0.2 -> r <= 0.04: bandwidth binds.
        budget = Budget(area=100.0, power=1e9, bandwidth=0.2)
        with pytest.raises(InfeasibleDesignError) as exc:
            feasible_r_values(sym_chip, budget)
        assert "serial bandwidth" in str(exc.value)

    def test_binding_area_bound_is_named(self, sym_chip):
        budget = Budget(area=0.5, power=1e9)
        with pytest.raises(InfeasibleDesignError) as exc:
            feasible_r_values(sym_chip, budget)
        assert "area" in str(exc.value)

    def test_guard_reaches_optimize(self, sym_chip):
        budget = Budget(area=100.0, power=0.5)
        with pytest.raises(InfeasibleDesignError):
            optimize(sym_chip, 0.9, budget)

    def test_nan_ceiling_from_custom_override(self, roomy_budget):
        class BrokenChip(SymmetricCMP):
            def max_serial_r(self, budget):
                return math.nan

        with pytest.raises(InfeasibleDesignError) as exc:
            feasible_r_values(BrokenChip(), roomy_budget)
        assert "NaN" in str(exc.value)

    def test_serial_power_truncates(self, sym_chip):
        # P = 10 -> r <= 13.9, so 14..16 are excluded.
        budget = Budget(area=100.0, power=10.0)
        values = feasible_r_values(sym_chip, budget)
        assert values == list(range(1, 14))

    def test_r_max_parameter(self, sym_chip, roomy_budget):
        assert feasible_r_values(sym_chip, roomy_budget, r_max=4) == [
            1, 2, 3, 4,
        ]

    def test_r_max_past_the_ceiling_stops_at_the_ceiling(self, sym_chip):
        # Area 100 binds at r <= 100: a 10**8 r_max lists 1..100 at
        # once, where walking every candidate takes seconds.
        budget = Budget(area=100.0, power=1e9)
        start = time.perf_counter()
        values = feasible_r_values(sym_chip, budget, r_max=10**8)
        assert time.perf_counter() - start < 1.0
        assert values == list(range(1, 101))

    def test_default_r_max_constant(self):
        assert DEFAULT_R_MAX == 16


class TestEvaluateDesign:
    def test_basic_evaluation(self, sym_chip, basic_budget):
        point = evaluate_design(sym_chip, 0.9, basic_budget, 2)
        assert point is not None
        assert point.r == 2
        assert point.n <= basic_budget.area
        assert point.speedup > 1.0

    def test_infeasible_r_returns_none(self, sym_chip, basic_budget):
        assert evaluate_design(sym_chip, 0.9, basic_budget, 16) is None

    def test_het_needs_fabric(self, gpu_like):
        chip = HeterogeneousChip(gpu_like)
        # Area exactly r: no room for U-cores.
        budget = Budget(area=4.0, power=1e9)
        assert evaluate_design(chip, 0.9, budget, 4) is None

    def test_point_records_limiter(self, gpu_like):
        chip = HeterogeneousChip(gpu_like)
        budget = Budget(area=1000.0, power=10.0, bandwidth=1e9)
        point = evaluate_design(chip, 0.9, budget, 2)
        assert point.limiter is LimitingFactor.POWER

    def test_parallel_resources_property(self, sym_chip, basic_budget):
        point = evaluate_design(sym_chip, 0.9, basic_budget, 2)
        assert point.parallel_resources == pytest.approx(point.n - 2)

    def test_describe_mentions_limiter(self, sym_chip, basic_budget):
        point = evaluate_design(sym_chip, 0.9, basic_budget, 2)
        assert point.limiter.value in point.describe()


class TestSweepAndOptimize:
    def test_optimize_picks_sweep_maximum(self, sym_chip, basic_budget):
        points = sweep_designs(sym_chip, 0.9, basic_budget)
        best = optimize(sym_chip, 0.9, basic_budget)
        assert best.speedup == pytest.approx(
            max(p.speedup for p in points)
        )

    def test_serial_workload_prefers_big_core(self, sym_chip):
        budget = Budget(area=64.0, power=1e9)
        best = optimize(sym_chip, 0.0, budget, r_max=16)
        assert best.r == 16

    def test_parallel_workload_prefers_small_cores(self, sym_chip):
        budget = Budget(area=64.0, power=1e9)
        best = optimize(sym_chip, 1.0, budget, r_max=16)
        assert best.r == 1

    def test_r_values_override(self, sym_chip, basic_budget):
        points = sweep_designs(
            sym_chip, 0.9, basic_budget, r_values=[2.5]
        )
        assert len(points) == 1
        assert points[0].r == 2.5

    def test_infeasible_raises(self, gpu_like):
        chip = HeterogeneousChip(gpu_like)
        budget = Budget(area=1.0, power=1e9)  # only room for the core
        with pytest.raises(InfeasibleDesignError):
            optimize(chip, 0.9, budget)

    def test_speedup_monotonic_in_budget_area(self, gpu_like):
        chip = HeterogeneousChip(gpu_like)
        speeds = [
            optimize(
                chip, 0.99, Budget(area=a, power=1e9)
            ).speedup
            for a in (8.0, 16.0, 64.0, 256.0)
        ]
        assert speeds == sorted(speeds)

    def test_bandwidth_cap_applies(self, asic_like):
        # A huge-mu U-core under finite B is pinned to speedup ~ B/f.
        chip = HeterogeneousChip(asic_like)
        budget = Budget(area=1e6, power=1e9, bandwidth=50.0)
        best = optimize(chip, 1.0, budget, r_max=1)
        assert best.limiter is LimitingFactor.BANDWIDTH
        assert best.speedup == pytest.approx(50.0, rel=1e-6)

    def test_brute_force_cross_check(self, gpu_like):
        """The optimizer matches exhaustive evaluation."""
        chip = HeterogeneousChip(gpu_like)
        budget = Budget(area=37.0, power=13.3, bandwidth=46.0)
        f = 0.99
        best_manual = -math.inf
        for r in range(1, 17):
            if not chip.serial_feasible(budget, r):
                continue
            n = chip.bounds(budget, r).n_effective
            if n <= r:
                continue
            best_manual = max(best_manual, chip.speedup(f, n, r))
        assert optimize(chip, f, budget).speedup == pytest.approx(
            best_manual
        )
