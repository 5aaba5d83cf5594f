"""The DSE sweep on the grid kernel, held to its scalar reference.

:func:`~repro.dse.engine.exhaustive_sweep` evaluates each run of
configs that share ``(chip, f)`` with one
:func:`~repro.perf.batch.optimize_batch` call;
:func:`~repro.dse.engine.evaluate_config` is the per-config scalar
r-sweep it replaced.  The property holds the two equal -- every
point's payload in order, the infeasible count, and the
``ModelError`` when one is raised -- over the three providers, single
and multi chips (random weights, ``best`` devices), budget overrides
that make configs infeasible, alpha and ``r_max``.  Shuffled config
lists split the ``(chip, f)`` runs.

A Pareto shard expands only ``configs[shard::shards]``; the shard
tests hold that slice equal to the full expansion's, config for
config, and the shared count equal to the full length.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import execute_task
from repro.campaign.spec import ParetoFrontTask
from repro.dse.dsl import (
    BEST_SUBSTRATE,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    builtin_scenario,
    substrates_for,
)
from repro.dse.engine import (
    config_count,
    evaluate_config,
    exhaustive_sweep,
    expand_configs,
)
from repro.dse.providers import provider_names
from repro.errors import ModelError

_WORKLOADS = (("mmm", None), ("fft", 1024), ("bs", None))
_SCALES = (0.01, 0.25, 1.0, 4.0)


def _outcome(sweep):
    """A sweep's result as comparable text: payloads in order and the
    infeasible count, or the error it raised."""
    try:
        points, infeasible = sweep()
    except ModelError as exc:
        return f"ModelError: {exc}"
    return json.dumps([[p.payload() for p in points], infeasible])


def _scalar_sweep(configs, r_max):
    points, infeasible = [], 0
    for config in configs:
        point = evaluate_config(config, r_max=r_max)
        if point is None:
            infeasible += 1
        else:
            points.append(point)
    return points, infeasible


def _chip(draw, devices):
    if draw(st.booleans()):
        return ChipSpec(kind="single", device=draw(st.sampled_from(devices)))
    segments = draw(
        st.lists(
            st.builds(
                SegmentSpec,
                name=st.sampled_from(["a", "b", "c"]),
                device=st.sampled_from(devices + (BEST_SUBSTRATE,)),
                weight=st.floats(0.01, 100.0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return ChipSpec(kind="multi", segments=tuple(segments))


@st.composite
def _spaces(draw):
    workload, fft_size = draw(st.sampled_from(_WORKLOADS))
    devices = substrates_for(workload, fft_size)
    chips = ()
    if draw(st.booleans()):
        chips = tuple(
            _chip(draw, devices)
            for _ in range(draw(st.integers(1, 3)))
        )
    scenario = DSEScenario(
        name="prop",
        workload=workload,
        fft_size=fft_size,
        provider=draw(st.sampled_from(provider_names())),
        power_budget_w=draw(st.none() | st.floats(0.05, 400.0)),
        bandwidth_gbps_at_start=draw(st.none() | st.floats(0.5, 800.0)),
        area_factor=draw(st.floats(0.05, 4.0)),
        alpha=draw(st.floats(1.0, 3.0)),
        f_values=tuple(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0])
                    | st.floats(0.0, 1.0),
                    min_size=1,
                    max_size=3,
                )
            )
        ),
        chips=chips,
    )
    grids = [
        tuple(sorted(draw(
            st.sets(st.sampled_from(_SCALES), min_size=1, max_size=2)
        )))
        for _ in range(2)
    ]
    configs = expand_configs(scenario, *grids)
    if draw(st.booleans()):
        random.Random(draw(st.integers(0, 2**32))).shuffle(configs)
    return configs, draw(st.integers(1, 64))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_spaces())
def test_vector_sweep_equals_the_scalar_reference(space):
    configs, r_max = space
    assert _outcome(lambda: exhaustive_sweep(configs, r_max)) == _outcome(
        lambda: _scalar_sweep(configs, r_max)
    )


def test_r_max_below_one_raises_the_scalar_error():
    configs = expand_configs(builtin_scenario("baseline"))
    vector = _outcome(lambda: exhaustive_sweep(configs, 0))
    assert vector == _outcome(lambda: _scalar_sweep(configs, 0))
    assert vector == "ModelError: r_max must be >= 1, got 0"


def test_infeasible_configs_split_a_run():
    """Configs whose serial bounds fit no core sit in the same
    ``(chip, f)`` run as feasible ones and are counted, in order."""
    scenario = DSEScenario(
        name="mixed", provider="yavits", f_values=(0.9,),
        chips=(ChipSpec(kind="single", device="GTX480"),),
    )
    configs = expand_configs(scenario, (1e-3, 1.0), (1e-3, 1.0))
    points, infeasible = exhaustive_sweep(configs)
    assert 0 < infeasible < len(configs)
    assert _outcome(lambda: (points, infeasible)) == _outcome(
        lambda: _scalar_sweep(configs, 16)
    )


_SHARD_SPACES = [
    (builtin_scenario("baseline"), (0.25, 1.0, 4.0), (0.5, 1.0)),
    (
        DSEScenario(
            name="multi", provider="ginosar-sqrtm",
            f_values=(0.9, 0.99),
            chips=(
                ChipSpec(kind="single", device="ASIC"),
                ChipSpec(
                    kind="multi",
                    segments=(
                        SegmentSpec(name="a", device="best", weight=2.0),
                        SegmentSpec(name="b", device="GTX480"),
                    ),
                ),
            ),
        ),
        (0.5, 1.0),
        (1.0, 2.0),
    ),
]


def _fields(config):
    return (
        config.config_id, config.scenario, config.provider,
        config.chip_label, type(config.chip), config.workload,
        config.f, config.node, config.area_scale, config.power_scale,
        config.budget, config.eval_budget,
    )


@pytest.mark.parametrize("shards", [1, 2, 3, 7, 997])
@pytest.mark.parametrize(
    "space", _SHARD_SPACES, ids=["baseline", "multi-provider"]
)
def test_a_shard_expands_exactly_its_slice(space, shards):
    scenario, area, power = space
    full = expand_configs(scenario, area, power)
    for shard in sorted({0, shards // 2, shards - 1}):
        part = expand_configs(
            scenario, area, power, shard=shard, shards=shards
        )
        assert [_fields(c) for c in part] == [
            _fields(c) for c in full[shard::shards]
        ]


@pytest.mark.parametrize(
    "space", _SHARD_SPACES, ids=["baseline", "multi-provider"]
)
def test_config_count_is_the_expanded_length(space):
    scenario, area, power = space
    n_configs = len(expand_configs(scenario, area, power))
    assert config_count(scenario, area, power) == n_configs
    result = execute_task(
        ParetoFrontTask(
            scenario_json=scenario.canonical(),
            area_scale_grid=area,
            power_scale_grid=power,
            shard=1,
            shards=4,
        )
    )
    assert result["n_configs"] == n_configs
    assert result["n_shard_configs"] == len(range(1, n_configs, 4))
