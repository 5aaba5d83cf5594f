"""Tests for the Pareto-frontier and sensitivity-analysis extensions."""

import math

import numpy as np
import pytest

from repro.core.chip import HeterogeneousChip
from repro.core.optimizer import optimize
from repro.core.ucore import UCore
from repro.errors import InfeasibleDesignError, ModelError
from repro.itrs.scenarios import get_scenario, scenario_names
from repro.projection.engine import node_budget
from repro.projection.pareto import (
    ParetoPoint,
    design_space_points,
    pareto_frontier,
)
from repro.projection.designs import standard_designs
from repro.projection.sensitivity import (
    SensitivityConfig,
    SensitivitySummary,
    run_sensitivity,
)


class TestParetoPoint:
    def _point(self, speedup, energy):
        design = standard_designs("mmm")[0]
        return ParetoPoint(
            design=design, r=1, n=10, speedup=speedup, energy=energy
        )

    def test_dominance(self):
        better = self._point(10.0, 0.5)
        worse = self._point(5.0, 1.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_no_self_dominance(self):
        p = self._point(10.0, 0.5)
        assert not p.dominates(p)

    def test_incomparable(self):
        fast_hot = self._point(10.0, 1.0)
        slow_cool = self._point(5.0, 0.2)
        assert not fast_hot.dominates(slow_cool)
        assert not slow_cool.dominates(fast_hot)


class TestDesignSpace:
    def test_points_cover_every_design(self):
        points = design_space_points("mmm", 0.99, 22)
        labels = {p.design.short_label for p in points}
        assert labels == {
            "SymCMP", "AsymCMP", "LX760", "GTX285", "GTX480", "R5870",
            "ASIC",
        }

    def test_multiple_r_per_design(self):
        points = design_space_points("mmm", 0.99, 22)
        asic_rs = {p.r for p in points if p.design.short_label == "ASIC"}
        assert len(asic_rs) > 5

    def test_fft_defaults_size(self):
        points = design_space_points("fft", 0.9, 40)
        assert points  # runs without explicit size


class TestFrontier:
    def test_frontier_is_nondominated(self):
        points = design_space_points("mmm", 0.99, 22)
        frontier = pareto_frontier(points)
        for fp in frontier:
            assert not any(p.dominates(fp) for p in points)

    def test_frontier_sorted_and_monotone(self):
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        energies = [p.energy for p in frontier]
        speedups = [p.speedup for p in frontier]
        assert energies == sorted(energies)
        assert speedups == sorted(speedups)

    def test_asic_on_the_frontier(self):
        # Custom logic must appear on the MMM frontier at high f -- it
        # is both the fastest and the most energy-efficient fabric.
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        assert any(p.design.short_label == "ASIC" for p in frontier)

    def test_cmps_dominated_at_high_f(self):
        # At f=0.99 the plain CMPs should not reach the frontier's
        # fast end; if present at all they sit at the frugal tail.
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        fastest = max(frontier, key=lambda p: p.speedup)
        assert fastest.design.short_label not in ("SymCMP", "AsymCMP")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            pareto_frontier([])


class TestSensitivity:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_sensitivity(
            "mmm", 0.99, node_nm=11,
            config=SensitivityConfig(trials=60, seed=7),
        )

    def test_trials_accounted(self, summary):
        assert sum(summary.win_counts.values()) == 60

    def test_asic_wins_robustly(self, summary):
        # The paper's MMM conclusion survives +/-30% parameter noise.
        assert summary.most_frequent_winner() == "ASIC"
        assert summary.win_rate("ASIC") > 0.8

    def test_speedup_distributions_populated(self, summary):
        for label in ("ASIC", "GTX285", "SymCMP"):
            assert len(summary.speedups[label]) == 60

    def test_spread_is_finite_positive(self, summary):
        spread = summary.spread("ASIC")
        assert 0 < spread < 2.0

    def test_median_close_to_deterministic(self, summary):
        from repro.projection.engine import project

        deterministic = project("mmm", 0.99).by_label()[
            "ASIC"
        ].final_speedup()
        assert summary.median_speedup("ASIC") == pytest.approx(
            deterministic, rel=0.35
        )

    def test_bandwidth_noise_shifts_fft_plateau(self):
        # FFT is bandwidth-pinned, so its spread tracks the bandwidth
        # sigma closely; with sigma=0 the plateau barely moves.
        noisy = run_sensitivity(
            "fft", 0.99, node_nm=11,
            config=SensitivityConfig(
                trials=40, bandwidth_sigma=0.4, mu_sigma=0.0,
                phi_sigma=0.0, power_sigma=0.0, seed=3,
            ),
        )
        quiet = run_sensitivity(
            "fft", 0.99, node_nm=11,
            config=SensitivityConfig(
                trials=40, bandwidth_sigma=0.0, mu_sigma=0.0,
                phi_sigma=0.0, power_sigma=0.0, seed=3,
            ),
        )
        assert noisy.spread("ASIC") > quiet.spread("ASIC")
        assert quiet.spread("ASIC") == pytest.approx(0.0, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            SensitivityConfig(trials=0)
        with pytest.raises(ModelError):
            SensitivityConfig(mu_sigma=-0.1)

    @pytest.mark.parametrize("field", [
        "mu_sigma", "phi_sigma", "bandwidth_sigma", "power_sigma",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_is_rejected(self, field, value):
        """``nan < 0`` is False, so a NaN sigma used to pass."""
        with pytest.raises(ModelError, match=field):
            SensitivityConfig(**{field: value})

    def test_deterministic_given_seed(self):
        a = run_sensitivity(
            "bs", 0.9, config=SensitivityConfig(trials=20, seed=11)
        )
        b = run_sensitivity(
            "bs", 0.9, config=SensitivityConfig(trials=20, seed=11)
        )
        assert a.win_counts == b.win_counts
        assert a.speedups == b.speedups


def _per_trial_sensitivity(workload, f, node_nm, scenario, config):
    """Reference: the per-trial loop :func:`run_sensitivity` replaced.

    Each trial draws the bandwidth and power multipliers, then a
    perturbed clone of every heterogeneous design's U-core, and
    optimizes every design with the scalar optimizer.
    """
    fft_size = 1024 if workload == "fft" else None
    designs = standard_designs(workload, fft_size)
    node = scenario.roadmap.node(node_nm)
    rng = np.random.default_rng(config.seed)
    summary = SensitivitySummary(
        workload=workload, f=f, node_nm=node_nm, trials=config.trials
    )
    for design in designs:
        summary.speedups[design.short_label] = []
    base = {
        design.short_label: node_budget(
            node, workload, fft_size, scenario,
            bandwidth_exempt=design.bandwidth_exempt,
        )
        for design in designs
    }
    for _ in range(config.trials):
        bw_mult = float(rng.lognormal(0.0, config.bandwidth_sigma))
        power_mult = float(rng.lognormal(0.0, config.power_sigma))
        best_label, best_speed = None, -math.inf
        for design in designs:
            chip = design.chip
            if isinstance(chip, HeterogeneousChip):
                ucore = chip.ucore
                chip = HeterogeneousChip(
                    UCore(
                        name=ucore.name,
                        mu=ucore.mu
                        * float(rng.lognormal(0.0, config.mu_sigma)),
                        phi=ucore.phi
                        * float(rng.lognormal(0.0, config.phi_sigma)),
                        kind=ucore.kind,
                        workload=ucore.workload,
                    )
                )
            budget = base[design.short_label].scaled(
                power=power_mult, bandwidth=bw_mult
            )
            try:
                point = optimize(chip, f, budget)
            except InfeasibleDesignError:
                continue
            summary.speedups[design.short_label].append(point.speedup)
            if point.speedup > best_speed:
                best_label, best_speed = design.short_label, point.speedup
        if best_label is not None:
            summary.win_counts[best_label] = (
                summary.win_counts.get(best_label, 0) + 1
            )
    return summary


@pytest.mark.parametrize("scenario_name", scenario_names())
@pytest.mark.parametrize("workload", ("mmm", "fft", "bs"))
def test_array_kernel_matches_the_per_trial_loop(scenario_name, workload):
    """One kernel call per design reproduces the per-trial scalar loop:
    the same payload (every speedup bit for bit) and the same
    ``win_counts`` insertion order, on every node, edge and high f,
    built-in scenario and seed."""
    scenario = get_scenario(scenario_name)
    for node_nm in (40, 32, 22, 16, 11):
        for f in (0.0, 0.5, 0.99, 1.0):
            for seed in (1, 2):
                config = SensitivityConfig(trials=4, seed=seed)
                got = run_sensitivity(
                    workload, f, node_nm, scenario, config=config
                )
                want = _per_trial_sensitivity(
                    workload, f, node_nm, scenario, config
                )
                assert got.payload() == want.payload()
                assert list(got.win_counts.items()) == list(
                    want.win_counts.items()
                )
