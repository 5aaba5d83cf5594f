"""CampaignSpec expansion, task hashing, and payload round-trips."""

from dataclasses import asdict

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    FigureTask,
    ParetoFrontTask,
    ParetoTask,
    SensitivityTask,
    SuccessiveHalvingTask,
    canonical_json,
    figure_campaign,
    flat_asdict,
    task_hash,
)
from repro.dse.front import DSEPoint
from repro.errors import ModelError
from repro.projection.engine import PAPER_F_VALUES
from repro.projection.paperfigs import CAMPAIGN_FIGURES
from repro.service.schemas import (
    OptimizeRequest,
    SpeedupRequest,
    SweepRequest,
)


class TestExpansion:
    def test_figures_expand_in_paper_order(self):
        spec = CampaignSpec(figures=("F6", "F7"))
        tasks = spec.tasks()
        assert len(tasks) == 2 * len(PAPER_F_VALUES)
        assert [t.figure for t in tasks[:4]] == ["F6"] * 4
        assert tuple(t.f for t in tasks[:4]) == PAPER_F_VALUES
        assert all(t.kind == "figure" for t in tasks)

    def test_mixed_spec_orders_figures_pareto_sensitivity(self):
        spec = CampaignSpec(
            figures=("F8",),
            pareto=(ParetoTask(workload="mmm", f=0.99),),
            sensitivity=(SensitivityTask(workload="bs", f=0.9, trials=5),),
        )
        kinds = [t.kind for t in spec.tasks()]
        assert kinds == ["figure", "figure", "pareto", "sensitivity"]

    def test_expansion_is_deterministic(self):
        spec = CampaignSpec(figures=("F6", "F8"))
        assert spec.tasks() == spec.tasks()
        assert [task_hash(t) for t in spec.tasks()] == [
            task_hash(t) for t in CampaignSpec(figures=("F6", "F8")).tasks()
        ]

    def test_unknown_figure_rejected(self):
        with pytest.raises(ModelError, match="F42"):
            CampaignSpec(figures=("F42",)).tasks()
        assert sorted(CAMPAIGN_FIGURES) == ["F6", "F7", "F8", "F9"]

    def test_empty_spec_rejected(self):
        with pytest.raises(ModelError, match="empty campaign"):
            CampaignSpec()

    def test_bad_method_rejected(self):
        with pytest.raises(ModelError, match="method"):
            CampaignSpec(figures=("F6",), method="quantum")

    @pytest.mark.parametrize("task", [
        ParetoTask(workload="nope", f=0.5),
        ParetoTask(workload="mmm", f=1.5),
        ParetoTask(workload="mmm", f=0.5, scenario="utopia"),
        ParetoTask(workload="mmm", f=0.5, fft_size=1024),
        SensitivityTask(workload="mmm", f=0.5, trials=0),
    ])
    def test_out_of_domain_task_fields_rejected(self, task):
        spec = (
            CampaignSpec(pareto=(task,))
            if isinstance(task, ParetoTask)
            else CampaignSpec(sensitivity=(task,))
        )
        with pytest.raises(ModelError):
            spec.tasks()


class TestFigureCampaign:
    def test_default_campaign_shape(self):
        tasks = figure_campaign()
        assert len(tasks) == 14  # 4 + 4 + 2 + 4 panels
        assert [t.figure for t in tasks[:4]] == ["F6"] * 4
        assert {t.figure for t in tasks} == set(CAMPAIGN_FIGURES)

    def test_single_figure(self):
        tasks = figure_campaign(["F9"])
        assert all(t.figure == "F9" for t in tasks)
        assert all(t.scenario == "high-bandwidth" for t in tasks)
        assert tuple(t.f for t in tasks) == PAPER_F_VALUES

    def test_unknown_figure(self):
        with pytest.raises(ModelError, match="F11"):
            figure_campaign(["F6", "F11"])

    def test_tasks_are_hashable(self):
        task = figure_campaign(["F6"])[0]
        assert task in {task}


class TestHashing:
    def test_hash_is_stable_across_instances(self):
        a = FigureTask(figure="F6", workload="fft", f=0.99,
                       fft_size=1024)
        b = FigureTask(figure="F6", workload="fft", f=0.99,
                       fft_size=1024)
        assert a == b
        assert task_hash(a) == task_hash(b)
        assert len(task_hash(a)) == 64  # sha256 hex

    def test_any_field_change_changes_the_hash(self):
        base = SensitivityTask(workload="mmm", f=0.99, trials=10)
        variants = [
            SensitivityTask(workload="bs", f=0.99, trials=10),
            SensitivityTask(workload="mmm", f=0.9, trials=10),
            SensitivityTask(workload="mmm", f=0.99, trials=11),
            SensitivityTask(workload="mmm", f=0.99, trials=10, seed=1),
            SensitivityTask(workload="mmm", f=0.99, trials=10,
                            mu_sigma=0.4),
        ]
        hashes = {task_hash(t) for t in [base, *variants]}
        assert len(hashes) == len(variants) + 1

    def test_different_kinds_never_collide(self):
        # Same field values, different task kind => different hash.
        pareto = ParetoTask(workload="mmm", f=0.99, node_nm=11)
        sens = SensitivityTask(workload="mmm", f=0.99, node_nm=11)
        assert task_hash(pareto) != task_hash(sens)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [1.5, None]})
        assert text == '{"a":[1.5,null],"b":1}'

    def test_spec_hash_tracks_content(self):
        a = CampaignSpec(figures=("F6",))
        b = CampaignSpec(figures=("F6",))
        c = CampaignSpec(figures=("F7",))
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != c.spec_hash()


class TestFlatAsdict:
    """The shallow field dict that task hashes, spec payloads, result
    echoes, DSE front points and live responses encode equals
    ``asdict``: every field of these types is a scalar or a tuple of
    scalars."""

    @pytest.mark.parametrize(
        "obj",
        [
            SpeedupRequest(workload="fft", f=0.99, design="ASIC",
                           fft_size=1024),
            SweepRequest(workload="mmm", f=0.5, design="GTX480",
                         r_max=4),
            OptimizeRequest(workload="bs", f=0.9, node_nm=None),
            FigureTask(figure="F7", f=0.9, method="scalar"),
            ParetoTask(workload="fft", fft_size=1024, node_nm=11),
            SensitivityTask(workload="bs", trials=7, seed=3),
            ParetoFrontTask(scenario_json='{"name":"x"}',
                            area_scale_grid=(0.5, 2.0), shard=1,
                            shards=3),
            SuccessiveHalvingTask(scenario_json='{"name":"x"}',
                                  power_scale_grid=(1.0, 4.0),
                                  rungs=(1, 8)),
            DSEPoint(config_id="ASIC#4|45nm|f=0.9|a=1|p=1",
                     scenario="baseline", provider="table1",
                     chip="ASIC", workload="mmm", f=0.9, node="45nm",
                     area_scale=1.0, power_scale=1.0, area=19.0,
                     power=7.5, speedup=12.5, r=2, n=19.0,
                     limiter="area"),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_equals_asdict(self, obj):
        shallow = flat_asdict(obj)
        assert shallow == asdict(obj)
        assert list(shallow) == list(asdict(obj))
        assert canonical_json(shallow) == canonical_json(asdict(obj))


class TestPayloadRoundTrip:
    def test_round_trip_preserves_tasks(self):
        spec = CampaignSpec(
            name="rt",
            figures=("F9",),
            pareto=(ParetoTask(workload="fft", f=0.5, fft_size=256),),
            sensitivity=(
                SensitivityTask(workload="mmm", f=0.99, trials=7,
                                seed=42),
            ),
            method="scalar",
        )
        rebuilt = CampaignSpec.from_payload(spec.payload())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ModelError, match="sensitivty"):
            CampaignSpec.from_payload(
                {"figures": ["F6"], "sensitivty": []}
            )

    def test_bad_entry_shape_rejected(self):
        with pytest.raises(ModelError, match="pareto"):
            CampaignSpec.from_payload({"pareto": ["not-an-object"]})
        with pytest.raises(ModelError, match="pareto"):
            CampaignSpec.from_payload(
                {"pareto": [{"workload": "mmm", "f": 0.5,
                             "bogus_field": 1}]}
            )

    def test_non_mapping_rejected(self):
        with pytest.raises(ModelError, match="mapping"):
            CampaignSpec.from_payload([1, 2, 3])


class TestMaterializeTasks:
    """The inputs a tensor-store build accepts, checked before it
    writes anything (the build is not a campaign task)."""

    def _build(self, tmp_path, **overrides):
        from repro.perf.tensorstore import build_tensor_store

        fields = dict(workloads=(("mmm", None),), f_grid=(0.0, 0.5, 0.99),
                      r_max=3)
        fields.update(overrides)
        directory = tmp_path / "tensors"
        try:
            return build_tensor_store(directory, **fields)
        finally:
            assert not directory.exists()

    def test_empty_f_grid_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="f_grid"):
            self._build(tmp_path, f_grid=())

    def test_unsorted_f_grid_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="strictly increasing"):
            self._build(tmp_path, f_grid=(0.5, 0.1))

    def test_out_of_range_f_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="parallel fraction"):
            self._build(tmp_path, f_grid=(0.0, 1.5))

    def test_fft_needs_explicit_size(self, tmp_path):
        with pytest.raises(ModelError, match="fft"):
            self._build(tmp_path, workloads=(("fft", None),))
