"""The DSE scenario DSL: validation, round-trips, bit-identity.

The tentpole differential test lives here: every builtin DSL scenario
must reproduce the registered :mod:`repro.itrs.scenarios` scenario
*bit-for-bit*, both structurally (equal roadmaps) and through the
projection engine (identical floats in every figure series).
"""

import json

import pytest

from repro.dse.dsl import (
    BUILTIN_SCENARIOS,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    builtin_scenario,
    builtin_scenario_names,
    list_scenario_files,
    load_scenario_file,
    scenario_summary,
)
from repro.errors import ModelError
from repro.itrs.scenarios import SCENARIO_OVERRIDES, SCENARIOS
from repro.projection.engine import project


class TestBuiltinBitIdentity:
    def test_builtins_cover_every_registered_scenario(self):
        assert set(BUILTIN_SCENARIOS) == set(SCENARIOS)
        assert set(BUILTIN_SCENARIOS) == set(SCENARIO_OVERRIDES)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_to_scenario_equals_registry(self, name):
        """Structural equality: same roadmap rows, same alpha."""
        rebuilt = builtin_scenario(name).to_scenario()
        registered = SCENARIOS[name]
        assert rebuilt.alpha == registered.alpha
        assert rebuilt.roadmap == registered.roadmap
        assert rebuilt == registered

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_projection_bit_for_bit(self, name):
        """The DSL scenario drives project() to identical floats."""
        via_dsl = project(
            "mmm", 0.99, builtin_scenario(name).to_scenario()
        )
        via_registry = project("mmm", 0.99, SCENARIOS[name])
        for s_dsl, s_reg in zip(via_dsl.series, via_registry.series):
            assert s_dsl.label == s_reg.label
            assert s_dsl.speedups() == s_reg.speedups()


class TestScenarioValidation:
    def test_unknown_field_is_named(self):
        with pytest.raises(ModelError, match="bandwidthh"):
            DSEScenario.from_payload(
                {"name": "x", "bandwidthh": 90.0}
            )

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"name": ""}, "'name'"),
            ({"name": "x", "workload": "sort"}, "'workload'"),
            ({"name": "x", "fft_size": 64}, "'fft_size'"),
            (
                {"name": "x", "power_budget_w": -5},
                "'power_budget_w'",
            ),
            ({"name": "x", "area_factor": 0}, "'area_factor'"),
            ({"name": "x", "alpha": 0.5}, "'alpha'"),
            ({"name": "x", "provider": "magic"}, "'provider'"),
            ({"name": "x", "f_values": []}, "'f_values'"),
            ({"name": "x", "f_values": [1.5]}, "'f_values'"),
            ({"name": "x", "alpha": float("inf")}, "'alpha'"),
            ({"name": "x", "area_factor": float("inf")}, "'area_factor'"),
            (
                {"name": "x", "bandwidth_gbps_at_start": float("inf")},
                "'bandwidth_gbps_at_start'",
            ),
            ({"name": "x", "power_budget_w": float("inf")}, "'power_budget_w'"),
            ({"name": "x", "description": ["a"]}, "'description'"),
            ({"name": "x", "workload": "fft"}, "'fft_size'"),
            ({"name": "x", "workload": "fft", "fft_size": 100}, "'fft_size'"),
            (
                {"name": "x", "workload": "fft", "fft_size": 1024.0},
                "'fft_size'",
            ),
            (
                {"name": "x", "chips": [{"kind": "multi", "segments": [
                    {"name": "k", "weight": float("inf")},
                ]}]},
                "'weight'",
            ),
            (
                {"name": "x", "chips": [{"kind": "multi", "segments": [
                    {"name": "a", "weight": 1e308},
                    {"name": "b", "weight": 1e308},
                ]}]},
                "'weight'",
            ),
            (
                {"name": "x", "chips": [{"kind": "multi", "segments": [
                    {"name": "a", "weight": 5e-324},
                    {"name": "b", "weight": 1},
                ]}]},
                "'weight'",
            ),
            (
                {"name": "x", "chips": [{"kind": "multi", "segments": [
                    {"weight": 1},
                ]}]},
                "'name'",
            ),
            (
                {"name": "x", "workload": "bs",
                 "chips": [{"kind": "single", "device": "GTX480"}]},
                "'device'",
            ),
        ],
    )
    def test_errors_name_the_offending_field(self, payload, field):
        with pytest.raises(ModelError, match=field):
            DSEScenario.from_payload(payload)

    def test_chip_errors_name_the_offending_field(self):
        with pytest.raises(ModelError, match="'device'"):
            ChipSpec(kind="single", device="TPU")
        with pytest.raises(ModelError, match="'kind'"):
            ChipSpec(kind="hybrid")
        with pytest.raises(ModelError, match="'segments'"):
            ChipSpec(kind="multi")
        with pytest.raises(ModelError, match="'weight'"):
            SegmentSpec(name="k", weight=0.0)

    def test_segment_unknown_field(self):
        with pytest.raises(ModelError, match="speed"):
            DSEScenario.from_payload(
                {
                    "name": "x",
                    "chips": [
                        {
                            "kind": "multi",
                            "segments": [{"name": "k", "speed": 2}],
                        }
                    ],
                }
            )


class TestSerialisation:
    def test_payload_roundtrip(self):
        scenario = DSEScenario(
            name="rt",
            workload="fft",
            fft_size=1024,
            power_budget_w=60.0,
            provider="yavits",
            f_values=(0.9, 0.99),
            chips=(
                ChipSpec(kind="single", device="ASIC"),
                ChipSpec(
                    kind="multi",
                    segments=(
                        SegmentSpec(name="a", weight=2.0),
                        SegmentSpec(
                            name="b", weight=1.0, device="GTX480"
                        ),
                    ),
                ),
            ),
        )
        rebuilt = DSEScenario.from_payload(scenario.payload())
        assert rebuilt == scenario
        assert rebuilt.canonical() == scenario.canonical()

    def test_canonical_is_stable_json(self):
        a = builtin_scenario("baseline").canonical()
        b = DSEScenario.from_payload(
            json.loads(a)
        ).canonical()
        assert a == b


class TestScenarioFiles:
    def test_load_and_list(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(
            json.dumps(
                builtin_scenario("low-power").payload()
            )
        )
        (tmp_path / "notes.txt").write_text("ignored")
        loaded = load_scenario_file(str(path))
        assert loaded == builtin_scenario("low-power")
        assert list_scenario_files(str(tmp_path)) == [str(path)]

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(ModelError, match="nope.json"):
            load_scenario_file(str(tmp_path / "nope.json"))

    def test_bad_json_names_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="broken.json"):
            load_scenario_file(str(path))

    def test_invalid_scenario_names_path_and_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "alpha": -1}))
        with pytest.raises(ModelError, match="bad.json.*alpha"):
            load_scenario_file(str(path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ModelError, match="does not exist"):
            list_scenario_files(str(tmp_path / "void"))


class TestSummaries:
    def test_builtin_names_start_with_baseline(self):
        assert builtin_scenario_names()[0] == "baseline"

    def test_summary_shape(self):
        summary = scenario_summary(builtin_scenario("high-alpha"))
        assert summary["name"] == "high-alpha"
        assert summary["source"] == "builtin"
        assert summary["provider"] == "table1"
        assert summary["chips"]  # defaults to the five substrates
