"""``POST /v1/dse``: submission, eager validation, DSE metrics."""

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.dse.front import points_from_payload
from repro.obs.metrics import validate_prometheus
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import start_server
from repro.service.schemas import parse_dse
from repro.errors import BadRequestError


def run(coro):
    return asyncio.run(coro)


def _body(**fields):
    return json.dumps(fields).encode()


async def _await_job(service, job_id, deadline_s=60.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        status, payload = await service.handle(
            "GET", f"/v1/jobs/{job_id}"
        )
        assert status == 200
        if payload["state"] in ("succeeded", "failed"):
            return payload
        await asyncio.sleep(0.02)
    raise AssertionError("job did not finish in time")


class TestParseDse:
    def test_builtin_scenario_defaults(self):
        spec = parse_dse({"scenario": "baseline"})
        assert spec.name == "dse-baseline"
        assert len(spec.dse_pareto) == 1
        assert not spec.dse_halving

    def test_sharded_pareto(self):
        spec = parse_dse({"scenario": "baseline", "shards": 3})
        assert [t.shard for t in spec.dse_pareto] == [0, 1, 2]
        assert all(t.shards == 3 for t in spec.dse_pareto)

    def test_halving_with_rungs(self):
        spec = parse_dse(
            {
                "scenario": "baseline",
                "mode": "halving",
                "rungs": [2, 4, 8],
            }
        )
        assert spec.dse_halving[0].rungs == (2, 4, 8)

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"scenario": "warp-speed"}, "scenario"),
            ({"scenario": 42}, "'scenario'"),
            ({"scenario": {"name": "x", "alpha": 0}}, "alpha"),
            ({"scenario": {"name": "x", "chipz": []}}, "chipz"),
            ({"mode": "genetic"}, "'mode'"),
            ({"area_scale_grid": []}, "area_scale_grid"),
            ({"area_scale_grid": [1.0, "a"]}, "area_scale_grid"),
            ({"area_scale_grid": [2.0, 1.0]}, "area_scale_grid"),
            ({"rungs": [2, 4]}, "rungs"),
            ({"mode": "halving", "shards": 2}, "shards"),
            ({"mode": "halving", "rungs": [4, 2]}, "rungs"),
            ({"r_max": 0}, "r_max"),
            ({"unknown_knob": 1}, "unknown_knob"),
            ({"scenario": {"name": "x", "alpha": float("inf")}}, "alpha"),
            (
                {"scenario": {"name": "x", "area_factor": float("inf")}},
                "area_factor",
            ),
            (
                {"scenario": {
                    "name": "x", "bandwidth_gbps_at_start": float("inf"),
                }},
                "bandwidth_gbps_at_start",
            ),
            (
                {"scenario": {"name": "x", "power_budget_w": float("inf")}},
                "power_budget_w",
            ),
            (
                {"scenario": {"name": "x", "description": ["a"]}},
                "description",
            ),
            ({"scenario": {"name": "x", "workload": "fft"}}, "fft_size"),
            (
                {"scenario": {
                    "name": "x", "workload": "fft", "fft_size": 100,
                }},
                "fft_size",
            ),
            (
                {"scenario": {"name": "x", "chips": [{
                    "kind": "multi",
                    "segments": [{"name": "k", "weight": float("inf")}],
                }]}},
                "weight",
            ),
            (
                {"scenario": {"name": "x", "chips": [{
                    "kind": "multi",
                    "segments": [
                        {"name": "a", "weight": 1e308},
                        {"name": "b", "weight": 1e308},
                    ],
                }]}},
                "weight",
            ),
        ],
    )
    def test_eager_400_names_the_offending_field(
        self, body, message
    ):
        with pytest.raises(BadRequestError, match=message):
            parse_dse(body)

    def test_shards_past_the_config_count_rejected_before_any_task(
        self, monkeypatch
    ):
        import repro.campaign.spec as spec_module
        from repro.dse.dsl import builtin_scenario
        from repro.dse.engine import config_count

        n_configs = config_count(builtin_scenario("baseline"))
        spec = parse_dse({"scenario": "baseline", "shards": n_configs})
        assert len(spec.dse_pareto) == n_configs
        built = []
        monkeypatch.setattr(
            spec_module, "ParetoFrontTask",
            lambda **fields: built.append(fields),
        )
        with pytest.raises(
            BadRequestError,
            match=f"'shards' must be at most the scenario's "
                  f"{n_configs} configs, got {n_configs + 1}",
        ):
            parse_dse({"scenario": "baseline", "shards": n_configs + 1})
        assert built == []

    def test_inline_scenario_payload(self):
        spec = parse_dse(
            {
                "scenario": {
                    "name": "inline",
                    "f_values": [0.99],
                    "chips": [
                        {"kind": "single", "device": "ASIC"}
                    ],
                },
            }
        )
        payload = json.loads(
            spec.dse_pareto[0].scenario_json
        )
        assert payload["name"] == "inline"


class TestEndpoint:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = ModelService(
            ServiceConfig(store_dir=str(tmp_path))
        )
        yield svc
        svc.close()

    def test_submit_poll_and_front(self, service):
        async def main():
            status, payload = await service.handle(
                "POST",
                "/v1/dse",
                _body(
                    scenario={
                        "name": "smoke",
                        "f_values": [0.99],
                        "chips": [
                            {"kind": "single", "device": "ASIC"},
                            {"kind": "single", "device": "GTX480"},
                        ],
                    },
                    mode="halving",
                ),
            )
            assert status == 202
            final = await _await_job(service, payload["job_id"])
            assert final["state"] == "succeeded"
            (result,) = final["results"]
            assert result["kind"] == "dse-halving"
            front = points_from_payload(result)
            assert front
            assert all(p.scenario == "smoke" for p in front)

        run(main())

    def test_invalid_body_is_eager_400(self, service):
        async def main():
            status, payload = await service.handle(
                "POST",
                "/v1/dse",
                _body(scenario={"name": "x", "provider": "magic"}),
            )
            assert status == 400
            assert "provider" in payload["message"]
            # nothing was queued
            status, listing = await service.handle(
                "GET", "/v1/jobs"
            )
            assert listing["jobs"] == []

        run(main())

    def test_method_guard(self, service):
        async def main():
            status, payload = await service.handle("GET", "/v1/dse")
            assert status == 405

        run(main())

    def test_dse_metrics_families(self, service):
        async def main():
            await service.handle(
                "POST", "/v1/dse", _body(scenario="baseline")
            )
            await service.handle("POST", "/v1/dse", b"{}1")
            # wait for the job so the evaluation counter moves
            assert service.jobs.join(timeout=60)
            status, snap = await service.handle("GET", "/metrics")
            assert snap["dse"]["accepted"] == 1
            assert snap["dse"]["rejected"] == 1
            status, text = await service.handle(
                "GET", "/metrics?format=prom"
            )
            assert "repro_dse_requests_total" in text
            assert (
                'repro_dse_requests_total{mode="pareto",'
                'outcome="accepted"} 1' in text
            )
            assert "repro_dse_configs_evaluated_total" in text

        run(main())


def _smoke_over_http(base):
    """The dse-smoke checks, as a client of a running server."""
    body = json.dumps({
        "scenario": {
            "name": "ci-smoke",
            "f_values": [0.99, 0.999],
            "chips": [
                {"kind": "single", "device": "ASIC"},
                {"kind": "single", "device": "GTX480"},
            ],
        },
        "mode": "halving",
        "area_scale_grid": [0.5, 1.0],
    }).encode()

    def submit():
        req = urllib.request.Request(
            f"{base}/v1/dse", data=body, method="POST"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 202, resp.status
            return json.load(resp)["job_id"]

    def wait(job_id, deadline_s=60):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                f"{base}/v1/jobs/{job_id}", timeout=30
            ) as resp:
                payload = json.load(resp)
            if payload["state"] in ("succeeded", "failed"):
                return payload
            time.sleep(0.1)
        raise AssertionError("job did not finish in time")

    # The first run executes every task through the content-addressed
    # store; the resubmission is served from it, bit-identically.
    first = wait(submit())
    assert first["state"] == "succeeded", first
    (result,) = first["results"]
    assert result["front"], "empty Pareto front"
    assert result["full_evaluations"] <= result["n_configs"]
    second = wait(submit())
    assert second["state"] == "succeeded", second
    assert second["progress"]["cached"] >= 1, second
    a = json.dumps(first["results"], sort_keys=True)
    b = json.dumps(second["results"], sort_keys=True)
    assert a == b, "resumed DSE results diverged"

    # A malformed scenario is an eager 400 naming the offending field,
    # not a failed job.
    bad = urllib.request.Request(
        f"{base}/v1/dse",
        data=b'{"scenario": {"name": "x", "provider": "magic"}}',
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(bad, timeout=30)
    assert excinfo.value.code == 400
    message = json.load(excinfo.value)["message"]
    assert "provider" in message, message

    with urllib.request.urlopen(
        f"{base}/metrics?format=prom", timeout=30
    ) as resp:
        text = resp.read().decode()
    validate_prometheus(text, required=[
        "repro_dse_requests_total",
        "repro_dse_configs_evaluated_total",
        "repro_service_requests_total",
    ])
    assert 'mode="halving",outcome="accepted"} 2' in text
    assert 'mode="invalid",outcome="rejected"} 1' in text


class TestOverHttp:
    def test_sweep_resume_and_metrics(self, tmp_path):
        """A DSL sweep submitted twice over a socket, the second run
        resumed from the durable store; an eager 400; and a
        Prometheus exposition that validates, route labels included
        (CI's dse-smoke job runs this test)."""

        async def main():
            service = ModelService(
                ServiceConfig(store_dir=str(tmp_path / "dse-store"))
            )
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                # The client blocks, so it runs off the server's loop.
                await asyncio.to_thread(
                    _smoke_over_http, f"http://127.0.0.1:{port}"
                )
            finally:
                server.close()
                await server.wait_closed()
                service.close()

        run(main())
