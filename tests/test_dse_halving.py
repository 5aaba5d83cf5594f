"""Successive halving: exact front at a fraction of the evaluations.

The ISSUE acceptance criterion is asserted here verbatim: on a
config space of >= 1000 points, halving reaches the *same* Pareto
front as the exhaustive sweep while fully evaluating <= 25% of the
configs.
"""

import inspect

import pytest

from repro.dse.dsl import (
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    builtin_scenario,
)
from repro.dse.engine import (
    exhaustive_sweep,
    expand_configs,
    feasible_signature,
    feasible_signatures,
)
from repro.dse.front import pareto_front
from repro.dse.halving import successive_halving
from repro.errors import ModelError

#: >= 1000 configs: 5 chips x 4 f x 5 nodes x 5 area x 2 power.
AREA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
POWER_GRID = (0.5, 1.0)


class TestAcceptance:
    def test_halving_front_equals_exhaustive_on_1000_configs(self):
        scenario = DSEScenario(name="accept")
        configs = expand_configs(scenario, AREA_GRID, POWER_GRID)
        assert len(configs) >= 1000

        points, infeasible = exhaustive_sweep(configs)
        exhaustive_front = pareto_front(points)

        result = successive_halving(
            scenario,
            area_scale_grid=AREA_GRID,
            power_scale_grid=POWER_GRID,
        )
        assert result.n_configs == len(configs)
        assert result.n_infeasible == infeasible
        # exactly the exhaustive front, point for point (same floats,
        # same canonical order)
        assert list(result.front) == exhaustive_front
        # ... at <= 25% of the full-fidelity evaluations
        assert result.full_evaluations <= 0.25 * len(configs)
        assert result.full_eval_fraction <= 0.25

    @pytest.mark.parametrize(
        "provider", ["ginosar-sqrtm", "yavits"]
    )
    def test_exactness_holds_under_alternative_providers(
        self, provider
    ):
        scenario = DSEScenario(
            name=f"alt-{provider}",
            provider=provider,
            f_values=(0.9, 0.999),
        )
        grids = ((0.5, 1.0, 2.0), (1.0,))
        points, _ = exhaustive_sweep(
            expand_configs(scenario, *grids)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=grids[0],
            power_scale_grid=grids[1],
        )
        assert list(result.front) == pareto_front(points)

    def test_exactness_holds_for_multi_ucore_chips(self):
        scenario = DSEScenario(
            name="multi",
            f_values=(0.99,),
            chips=(
                ChipSpec(kind="single", device="ASIC"),
                ChipSpec(
                    kind="multi",
                    segments=(
                        SegmentSpec(name="hot", weight=3.0,
                                    device="ASIC"),
                        SegmentSpec(name="simd", weight=1.0,
                                    device="GTX480"),
                    ),
                ),
            ),
        )
        grids = ((0.5, 1.0, 2.0), (0.5, 1.0))
        points, _ = exhaustive_sweep(
            expand_configs(scenario, *grids)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=grids[0],
            power_scale_grid=grids[1],
        )
        assert list(result.front) == pareto_front(points)

    def test_all_points_match_exhaustive_not_just_the_front(self):
        """Class sharing reproduces every survivor bit-identically."""
        scenario = DSEScenario(name="pts", f_values=(0.99,))
        exhaustive = {
            p.config_id: p
            for p in exhaustive_sweep(expand_configs(scenario))[0]
        }
        result = successive_halving(scenario)
        for point in result.points:
            assert exhaustive[point.config_id] == point


MULTI_UCORE = DSEScenario(
    name="multi",
    f_values=(0.99,),
    chips=(
        ChipSpec(kind="single", device="ASIC"),
        ChipSpec(
            kind="multi",
            segments=(
                SegmentSpec(name="hot", weight=3.0, device="ASIC"),
                SegmentSpec(name="simd", weight=1.0, device="GTX480"),
            ),
        ),
    ),
)
#: The benchmark campaign's halving space: 3,600 baseline configs.
CAMPAIGN_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


class TestStreamedSignatures:
    @pytest.mark.parametrize(
        "scenario,grids",
        [
            (builtin_scenario("baseline"), (CAMPAIGN_GRID, CAMPAIGN_GRID)),
            (
                DSEScenario(name="alt-ginosar", provider="ginosar-sqrtm",
                            f_values=(0.9, 0.999)),
                ((0.5, 1.0, 2.0), (1.0,)),
            ),
            (
                DSEScenario(name="alt-yavits", provider="yavits",
                            f_values=(0.9, 0.999)),
                ((0.5, 1.0, 2.0), (1.0,)),
            ),
            (MULTI_UCORE, ((0.5, 1.0, 2.0), (0.5, 1.0))),
        ],
        ids=["campaign-3600", "ginosar-sqrtm", "yavits", "multi-ucore"],
    )
    def test_equal_the_scalar_signature(self, scenario, grids):
        """The block kernel's signatures are the scalar reference's,
        config for config, in config order."""
        configs = expand_configs(scenario, *grids)
        streamed = feasible_signatures(configs)
        assert inspect.isgenerator(streamed)
        pairs = list(streamed)
        assert [config for config, _ in pairs] == configs
        assert [signature for _, signature in pairs] == [
            feasible_signature(config) for config in configs
        ]


class TestValidation:
    def test_rungs_must_increase(self):
        with pytest.raises(ModelError, match="strictly increasing"):
            successive_halving(
                DSEScenario(name="x"), rungs=(4, 2)
            )

    def test_rungs_bounded_by_r_max(self):
        with pytest.raises(ModelError, match="r_max"):
            successive_halving(
                DSEScenario(name="x"), rungs=(2, 32), r_max=16
            )

    def test_stats_are_consistent(self):
        result = successive_halving(
            DSEScenario(name="stats", f_values=(0.99,))
        )
        assert result.n_configs == 25
        assert result.full_evaluations <= result.n_classes
        assert 0.0 < result.full_eval_fraction <= 1.0
        assert len(result.points) + result.n_infeasible <= (
            result.n_configs
        )
