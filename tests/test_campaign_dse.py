"""DSE tasks through the campaign layer: specs, runner, resume.

Asserts the campaign-integration acceptance properties: DSE tasks are
content-addressed and resumable bit-identically, per-shard fronts
merge to the halving front, and the spec validates eagerly with
messages naming the offending field.
"""

import json

import pytest

from repro.campaign.runner import CampaignRunner, execute_task
from repro.campaign.spec import (
    CampaignSpec,
    MAX_DSE_CONFIGS,
    ParetoFrontTask,
    SuccessiveHalvingTask,
    task_hash,
)
from repro.campaign.store import ResultStore
from repro.dse.dsl import builtin_scenario
from repro.dse.front import merge_fronts, points_from_payload
from repro.errors import ModelError

SCENARIO_JSON = builtin_scenario("baseline").canonical()

SPEC = CampaignSpec(
    name="dse",
    dse_pareto=tuple(
        ParetoFrontTask(
            scenario_json=SCENARIO_JSON,
            area_scale_grid=(0.5, 1.0),
            shard=shard,
            shards=2,
        )
        for shard in range(2)
    ),
    dse_halving=(
        SuccessiveHalvingTask(
            scenario_json=SCENARIO_JSON,
            area_scale_grid=(0.5, 1.0),
        ),
    ),
)


def serial_runner(store, **kwargs):
    kwargs.setdefault("executor", "serial")
    kwargs.setdefault("backoff_base_s", 0.0)
    return CampaignRunner(store=store, **kwargs)


class TestSpecValidation:
    def test_empty_scenario_json_is_rejected(self):
        with pytest.raises(ModelError, match="scenario_json"):
            CampaignSpec(
                dse_pareto=(ParetoFrontTask(),)
            ).tasks()

    def test_invalid_scenario_json_names_the_field(self):
        bad = json.dumps({"name": "x", "provider": "magic"})
        with pytest.raises(ModelError, match="provider"):
            CampaignSpec(
                dse_pareto=(
                    ParetoFrontTask(scenario_json=bad),
                )
            ).tasks()

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"area_scale_grid": ()}, "area_scale_grid"),
            ({"area_scale_grid": (1.0, 0.5)}, "area_scale_grid"),
            ({"power_scale_grid": (-1.0,)}, "power_scale_grid"),
            ({"r_max": 0}, "r_max"),
            ({"shard": 2, "shards": 2}, "shard"),
            ({"shards": 0}, "shards"),
        ],
    )
    def test_grid_and_shard_validation(self, kwargs, field):
        task = ParetoFrontTask(
            scenario_json=SCENARIO_JSON, **kwargs
        )
        with pytest.raises(ModelError, match=field):
            CampaignSpec(dse_pareto=(task,)).tasks()

    @pytest.mark.parametrize(
        "rungs", [(4, 2), (0, 4), (2, 32), (2.5,)]
    )
    def test_rung_validation(self, rungs):
        task = SuccessiveHalvingTask(
            scenario_json=SCENARIO_JSON, rungs=rungs
        )
        with pytest.raises(ModelError, match="rungs"):
            CampaignSpec(dse_halving=(task,)).tasks()

    def test_config_space_bound(self):
        huge = tuple(float(i + 1) for i in range(400))
        task = ParetoFrontTask(
            scenario_json=SCENARIO_JSON,
            area_scale_grid=huge,
            power_scale_grid=huge,
        )
        assert 400 * 400 * 100 > MAX_DSE_CONFIGS
        with pytest.raises(ModelError, match="config space"):
            CampaignSpec(dse_pareto=(task,)).tasks()

    def test_config_space_counts_the_default_substrates(self):
        """A scenario without ``chips`` expands one chip per measured
        substrate (5 on mmm), and the bound counts them: 5 chips x 4 f
        x 5 nodes x 100 x 100 is 1,000,000 configs, not 200,000."""
        grid = tuple(float(i + 1) for i in range(100))
        task = ParetoFrontTask(
            scenario_json=SCENARIO_JSON,
            area_scale_grid=grid,
            power_scale_grid=grid,
        )
        with pytest.raises(
            ModelError, match="config space has 1000000 configs"
        ):
            CampaignSpec(dse_pareto=(task,)).tasks()

    def test_payload_roundtrip_preserves_hashes(self):
        rebuilt = CampaignSpec.from_payload(SPEC.payload())
        assert rebuilt == SPEC
        assert rebuilt.spec_hash() == SPEC.spec_hash()
        assert [task_hash(t) for t in rebuilt.tasks()] == [
            task_hash(t) for t in SPEC.tasks()
        ]


class TestExecution:
    def test_shard_fronts_merge_to_the_halving_front(self, tmp_path):
        report = serial_runner(ResultStore(tmp_path)).run(SPEC)
        assert report.ok
        by_kind = {}
        for outcome in report.outcomes:
            by_kind.setdefault(outcome.task.kind, []).append(
                outcome.result
            )
        shard_fronts = [
            points_from_payload(r)
            for r in by_kind["dse-pareto"]
        ]
        merged = merge_fronts(shard_fronts)
        halving_front = points_from_payload(
            by_kind["dse-halving"][0]
        )
        assert merged == halving_front
        halving = by_kind["dse-halving"][0]
        assert halving["full_evaluations"] <= (
            0.25 * halving["n_configs"]
        )

    def test_pareto_shards_partition_the_space(self, tmp_path):
        report = serial_runner(ResultStore(tmp_path)).run(SPEC)
        shard_results = [
            o.result
            for o in report.outcomes
            if o.task.kind == "dse-pareto"
        ]
        total = sum(r["n_shard_configs"] for r in shard_results)
        assert total == shard_results[0]["n_configs"] == 200

    def test_resume_is_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        first = serial_runner(store).run(SPEC)
        second = CampaignRunner(
            store=ResultStore(tmp_path),
            executor="process",
            workers=4,
            resume=True,
        ).run(SPEC)
        assert second.cached == len(SPEC.tasks())
        assert second.executed == 0
        a = json.dumps(
            [o.result for o in first.outcomes], sort_keys=True
        )
        b = json.dumps(
            [o.result for o in second.outcomes], sort_keys=True
        )
        assert a == b

    def test_execute_task_dispatches_both_kinds(self):
        pareto = execute_task(
            ParetoFrontTask(
                scenario_json=SCENARIO_JSON,
                shard=0,
                shards=4,
            )
        )
        assert pareto["kind"] == "dse-pareto"
        assert pareto["n_shard_configs"] == 25
        halving = execute_task(
            SuccessiveHalvingTask(scenario_json=SCENARIO_JSON)
        )
        assert halving["kind"] == "dse-halving"
        assert halving["front"]
