"""Tests for the benchmark's own code (no program under test is run).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import percentile, quartiles  # noqa: E402

BENCH = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
NEAR = [("mmm", "ASIC", 22, 0.505, 8), ("bs", "LX760", 11, 0.7321, 3)]


def _first(stream, count=300):
    return [(r.index, r.path, r.body)
            for r in itertools.islice(iter(stream), count)]


class TestSeededInputs:
    def test_ongrid_same_seed_same_sequence(self):
        assert _first(workloads.OnGridStream(3, NEAR)) == _first(
            workloads.OnGridStream(3, NEAR)
        )

    def test_ongrid_other_seed_other_sequence(self):
        assert _first(workloads.OnGridStream(3, NEAR)) != _first(
            workloads.OnGridStream(4, NEAR)
        )

    def test_ongrid_keys_are_on_grid_or_from_the_pool(self):
        near_f = {key[3] for key in NEAR}
        for _i, path, body in _first(workloads.OnGridStream(5, NEAR), 2000):
            fields = json.loads(body)
            assert path in dict(workloads.ENDPOINT_MIX)
            assert fields["f"] in workloads.F_GRID or (
                path == "/v1/speedup" and fields["f"] in near_f
            )

    def test_live_same_seed_same_sequence(self):
        assert _first(workloads.LiveStream(3)) == _first(
            workloads.LiveStream(3)
        )

    def test_live_other_seed_other_sequence(self):
        assert _first(workloads.LiveStream(3)) != _first(
            workloads.LiveStream(4)
        )

    def test_live_f_is_off_the_grid(self):
        for _i, _path, body in _first(workloads.LiveStream(9), 1000):
            assert json.loads(body)["f"] not in workloads.F_GRID

    def test_campaign_same_seed_same_spec(self):
        assert workloads.campaign_payload(3) == workloads.campaign_payload(3)

    def test_campaign_other_seed_other_spec(self):
        assert workloads.campaign_payload(3) != workloads.campaign_payload(4)

    def test_campaign_size_does_not_depend_on_seed(self):
        def shape(payload):
            return {k: len(v) for k, v in payload.items()
                    if isinstance(v, list)}

        assert shape(workloads.campaign_payload(3)) == shape(
            workloads.campaign_payload(99)
        )

    def test_near_grid_candidates_are_seeded(self):
        assert workloads.near_grid_candidates(1, 50) == (
            workloads.near_grid_candidates(1, 50)
        )
        assert workloads.near_grid_candidates(1, 50) != (
            workloads.near_grid_candidates(2, 50)
        )

    def test_interpolable_keeps_brackets_that_agree(self):
        keys = [("mmm", "ASIC", 22, 0.505, 8, 50),
                ("mmm", "ASIC", 22, 0.615, 8, 61)]

        def optimal_r(w, d, node, f, r_max):
            return 2 if f >= 0.62 else 1

        assert workloads.interpolable(keys, optimal_r) == [
            ("mmm", "ASIC", 22, 0.505, 8)
        ]


class TestStatistics:
    def test_percentile_reports_its_sample_count(self):
        result = percentile([float(x) for x in range(1, 1001)], 0.99)
        assert result["samples"] == 1000
        assert result["beyond"] == 10
        assert result["value"] == pytest.approx(990.01)

    def test_percentile_of_nothing_has_no_samples(self):
        assert percentile([], 0.5)["samples"] == 0

    def test_quartiles_match_statistics_quantiles(self):
        summary = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary["median"] == 3.0
        assert summary["spread"] == pytest.approx((4.5 - 1.5) / 3.0)


class TestClient:
    def test_a_failed_request_misses_every_latency_limit(self):
        load = client.LoadResult(seconds=1)
        load.fail()
        assert (load.attempted, load.failed) == (1, 1)
        assert percentile(load.latencies_s, 0.5)["value"] == math.inf

    def test_rates_count_answers_per_window(self):
        load = client.LoadResult(seconds=2)
        for done in (0.1, 0.2, 1.5, 2.5):
            load.answer(0.01, done)
        load.fail(0.3)
        assert load.rates() == [2.0, 1.0]

    @staticmethod
    def _stolen_load():
        load = client.LoadResult(seconds=1)
        # (time, host steal ticks, program CPU seconds)
        load.marks = [(0.0, 5, 0.0), (0.1, 5, 0.01), (0.2, 6, 0.05),
                      (0.3, 6, 0.06)]
        load.answer(0.01, 0.05)   # 0.04..0.05: no steal around it
        load.answer(0.02, 0.15)   # 0.13..0.15: counter moved 5 -> 6
        load.answer(0.03, 0.25)   # 0.22..0.25: no steal around it
        load.fail(0.16)           # failures always count
        return load

    def test_undisturbed_drops_requests_the_host_stole_from(
        self, monkeypatch
    ):
        monkeypatch.setattr(client, "MIN_UNDISTURBED", 2)
        assert self._stolen_load().undisturbed() == [0.01, 0.03, math.inf]

    def test_undisturbed_tops_up_with_the_least_disturbed(
        self, monkeypatch
    ):
        monkeypatch.setattr(client, "MIN_UNDISTURBED", 3)
        assert self._stolen_load().undisturbed() == [
            0.01, 0.02, 0.03, math.inf
        ]

    def test_cpu_per_op_leaves_out_stolen_windows(self):
        # Windows 0-0.1 and 0.2-0.3 are undisturbed: 20 ms of CPU for
        # the two answers in them; the stolen window's 40 ms is left out.
        value, used, windows = self._stolen_load().cpu_ms_per_op()
        assert (used, windows) == (2, 3)
        assert value == pytest.approx(10.0)


class TestLedger:
    def _span(self, layer, start, end, span_id, parent=None, **attrs):
        return {"layer": layer, "start": start, "end": end,
                "id": (1, span_id),
                "parent": (1, parent) if parent else None,
                "failed": False, "attrs": attrs, "pid": 1}

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            self._span("a", 0, 100, 1),
            self._span("b", 10, 40, 2, parent=1),
            self._span("c", 30, 60, 3, parent=1),  # overlaps b
        ]
        ledger.annotate_self_times(spans)
        assert [s["self"] for s in spans] == [50, 30, 30]

    def test_self_times_sum_to_the_root(self):
        spans = [
            self._span("a", 0, 100, 1),
            self._span("b", 10, 40, 2, parent=1),
            self._span("c", 20, 30, 3, parent=2),
        ]
        ledger.annotate_self_times(spans)
        assert sum(s["self"] for s in spans) == 100
        shares = ledger.layer_shares(spans, 1, [(0, 150), (150, 200)])
        assert sum(shares.values()) == pytest.approx(0.5)

    def test_every_layer_metric_is_produced(self):
        produced = ledger.layer_metrics([], (0, 1), [], {}, 1)
        declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        extra = {"bench.trace_overhead_pct", "bench.unattributed_pct"}
        assert set(declared) - extra == set(produced)
        for name, (_value, unit) in produced.items():
            assert declared[name] == unit, name


class TestReport:
    @pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
    def test_every_declared_metric_is_printed_with_its_unit(self, section):
        wanted = {m["name"]: m["unit"] for m in BENCH[section]}
        out = run.Outcome()
        for index, (name, unit) in enumerate(wanted.items()):
            out.metrics[name] = (index + 0.5, unit)
            out.samples[name] = 7
        lines = run.report("w", wanted, out)
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert set(result["metrics"]) == set(wanted)
        for name, unit in wanted.items():
            assert result["metrics"][name]["unit"] == unit
            assert any(
                line.startswith(f"w {name} = ")
                and line.endswith(f" {unit} (n=7)")
                for line in lines
            ), name

    def test_a_missing_metric_fails_the_run(self):
        lines = run.report("w", {"ops_per_s": "1/s"}, run.Outcome())
        assert json.loads(lines[-1])["correct"] is False

    def test_a_wrong_unit_fails_the_run(self):
        out = run.Outcome()
        out.metrics["ops_per_s"] = (1.0, "ms")
        lines = run.report("w", {"ops_per_s": "1/s"}, out)
        assert json.loads(lines[-1])["correct"] is False
        assert any("CHECK FAILED" in line for line in lines)


class TestBenchmarkFile:
    def test_campaign_digest_is_recorded(self):
        digest = run.golden_digest(BENCH)
        assert digest is not None and len(digest) == 64

    def test_setup_metric_is_declared(self):
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s"
        assert setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(
            m["bound"] for m in BENCH["end_to_end"]
        )
