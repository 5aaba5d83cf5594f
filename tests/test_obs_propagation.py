"""Trace propagation across the three execution substrates.

One trace id must survive every hand-off the stack performs: the
asyncio handler (contextvars, down to the request's grid call), the
campaign job thread (an explicit carrier), and the campaign runner's
process pool (parent-side spans backdated to the submit instant,
workers shipping only wall-clock starts home).  These tests
pin the parent/child linkage at each seam and that concurrent
requests never bleed into each other's traces.

They share the process-global tracer (the service and runner do), so
each test clears it first; pytest runs the module serially.
"""

import asyncio
import json

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import (
    CampaignSpec,
    ParetoFrontTask,
    ParetoTask,
    SensitivityTask,
    SuccessiveHalvingTask,
)
from repro.campaign.store import ResultStore
from repro.dse.dsl import builtin_scenario
from repro.dse.engine import expand_configs, exhaustive_sweep
from repro.obs.context import new_trace_id
from repro.obs.trace import get_tracer
from repro.projection.sensitivity import (
    SensitivityConfig,
    run_sensitivity,
)
from repro.service.app import ModelService, ServiceConfig


def _run(coro):
    return asyncio.run(coro)


def _service(**overrides):
    return ModelService(ServiceConfig(**overrides))


def _speedup_body(node_nm=22, design="GTX285"):
    return json.dumps(
        {"workload": "bs", "f": 0.9, "design": design,
         "node_nm": node_nm}
    ).encode()


#: The opt-in to tracing: a model POST without it records no span.
_TRACED = {"x-request-id": "req-1"}


def _by_name(spans, name):
    return [s for s in spans if s["name"] == name]


def _lookup(spans):
    return {s["span_id"]: s for s in spans}


class TestAsyncioHandler:
    def test_single_request_is_one_rooted_trace(self):
        get_tracer().clear()

        async def main():
            service = _service()
            try:
                return await service.handle_request(
                    "POST", "/v1/speedup", _speedup_body(), _TRACED
                )
            finally:
                service.close()

        status, _payload, headers = _run(main())
        assert status == 200
        trace = get_tracer().trace(headers["X-Trace-Id"])
        roots = [s for s in trace if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["http.request"]
        assert roots[0]["attributes"]["status"] == 200

    def test_concurrent_requests_do_not_share_traces(self):
        get_tracer().clear()
        nodes = [45, 32, 22, 16, 11]

        async def main():
            service = _service()
            try:
                return await asyncio.gather(
                    *(
                        service.handle_request(
                            "POST", "/v1/speedup", _speedup_body(nm),
                            {"x-request-id": f"req-{nm}"},
                        )
                        for nm in nodes
                    )
                )
            finally:
                service.close()

        responses = _run(main())
        trace_ids = [h["X-Trace-Id"] for _, _, h in responses]
        assert len(set(trace_ids)) == len(nodes)
        for trace_id in trace_ids:
            trace = get_tracer().trace(trace_id)
            # Exactly one handler root per trace; every span in the
            # trace carries that trace id (no cross-request bleed).
            assert len(_by_name(trace, "http.request")) == 1
            assert {s["trace_id"] for s in trace} == {trace_id}

    def test_client_trace_id_is_adopted(self):
        get_tracer().clear()
        supplied = new_trace_id()

        async def main():
            service = _service()
            try:
                return await service.handle_request(
                    "GET", "/healthz", b"",
                    {"x-request-id": supplied},
                )
            finally:
                service.close()

        _status, _payload, headers = _run(main())
        assert headers["X-Trace-Id"] == supplied
        assert headers["X-Request-Id"] == supplied
        assert len(get_tracer().trace(supplied)) == 1


class TestDispatcherThread:
    def test_grid_eval_nests_under_batch_dispatch(self):
        """handler -> grid eval is one trace.

        The request is answered in one pass, so its one grid call is
        a ``perf.optimize_batch`` span directly under ``http.request``.
        """
        get_tracer().clear()

        async def main():
            service = _service()
            try:
                return await service.handle_request(
                    "POST", "/v1/speedup", _speedup_body(), _TRACED
                )
            finally:
                service.close()

        _status, _payload, headers = _run(main())
        trace = get_tracer().trace(headers["X-Trace-Id"])

        root = _by_name(trace, "http.request")[0]
        (grid,) = _by_name(trace, "perf.optimize_batch")

        assert grid["parent_id"] == root["span_id"]
        assert grid["attributes"] == {
            "chip": "GTX285", "f": 0.9, "r_max": 16, "batch_size": 1,
        }
        assert {s["name"] for s in trace} == {
            "http.request", "perf.optimize_batch",
        }


class TestCampaignPool:
    SPEC = CampaignSpec(
        name="trace-test",
        figures=("F8",),
        pareto=(ParetoTask(workload="mmm", f=0.99, node_nm=22),),
    )

    def _run_campaign(self, tmp_path, executor, workers=2):
        get_tracer().clear()
        runner = CampaignRunner(
            store=ResultStore(tmp_path),
            executor=executor,
            workers=workers,
            backoff_base_s=0.0,
        )
        report = runner.run(self.SPEC)
        assert report.ok
        return get_tracer().spans()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_trace_covers_run_and_every_task(
        self, tmp_path, executor
    ):
        spans = self._run_campaign(tmp_path, executor)
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["campaign.run"]
        root = roots[0]
        assert root["attributes"]["executed"] == 3

        tasks = _by_name(spans, "campaign.task")
        assert len(tasks) == 3
        for task in tasks:
            assert task["trace_id"] == root["trace_id"]
            assert task["parent_id"] == root["span_id"]
            assert task["attributes"]["status"] == "executed"
            assert task["attributes"]["attempts"] == 1

    @pytest.mark.parametrize("executor", ["process"])
    def test_pooled_tasks_expose_queue_wait(self, tmp_path, executor):
        spans = self._run_campaign(tmp_path, executor)
        for task in _by_name(spans, "campaign.task"):
            wait_ms = task["attributes"]["queue_wait_ms"]
            assert wait_ms >= 0
            # Backdating rebased the span to its submit instant, so
            # its duration covers at least the measured queue wait.
            assert task["duration_ms"] >= wait_ms

    def test_store_writes_nest_under_their_task(self, tmp_path):
        spans = self._run_campaign(tmp_path, "serial")
        lookup = _lookup(spans)
        writes = _by_name(spans, "campaign.store.serialize")
        assert len(writes) == 3
        for write in writes:
            assert lookup[write["parent_id"]]["name"] == "campaign.task"

    def test_cached_rerun_settles_without_reexecution(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(
            store=store, executor="serial", backoff_base_s=0.0
        )
        runner.run(self.SPEC)
        get_tracer().clear()
        report = runner.run(self.SPEC)
        assert (report.executed, report.cached) == (0, 3)
        spans = get_tracer().spans()
        tasks = _by_name(spans, "campaign.task")
        assert {t["attributes"]["status"] for t in tasks} == {"cached"}
        assert not _by_name(spans, "campaign.store.serialize")


class TestJobsAdoptRequestTraces:
    def test_job_campaign_spans_join_the_submitting_trace(
        self, tmp_path
    ):
        get_tracer().clear()
        supplied = new_trace_id()
        body = json.dumps({"figures": ["F8"]}).encode()

        async def main():
            service = ModelService(
                ServiceConfig(
                    store_dir=str(tmp_path), drain_timeout_s=5.0
                )
            )
            try:
                status, payload, headers = (
                    await service.handle_request(
                        "POST", "/v1/jobs", body,
                        {"x-request-id": supplied},
                    )
                )
                assert status == 202
                job_id = payload["job_id"]
                for _ in range(1500):
                    _s, payload = await service.handle(
                        "GET", f"/v1/jobs/{job_id}"
                    )
                    if payload["state"] in ("succeeded", "failed"):
                        return payload, headers
                    await asyncio.sleep(0.02)
                raise AssertionError(f"job never settled: {payload}")
            finally:
                service.close()

        payload, headers = _run(main())
        assert payload["state"] == "succeeded"
        assert payload["trace_id"] == supplied
        assert headers["X-Trace-Id"] == supplied

        trace = get_tracer().trace(supplied)
        names = {s["name"] for s in trace}
        # The submitting HTTP request, the job's campaign run, and
        # its tasks all share the client's trace id.
        assert {"http.request", "campaign.run", "campaign.task"} <= names
        run = _by_name(trace, "campaign.run")[0]
        lookup = _lookup(trace)
        # campaign.run is parented inside the job span chain, which
        # itself descends from the submitting request's root span.
        node = run
        hops = 0
        while node["parent_id"] is not None:
            node = lookup[node["parent_id"]]
            hops += 1
            assert hops < 10, "parent chain does not terminate"
        assert node["name"] == "http.request"


class TestSpanGrain:
    """Spans open at the call that owns a loop, never inside it, so a
    trace's size follows the work's structure, not its iteration
    count -- and a campaign's trace always holds its own tasks."""

    SCENARIO = builtin_scenario("baseline")

    def _spec(self, trials, grid):
        scenario_json = self.SCENARIO.canonical()
        return CampaignSpec(
            name=f"grain-{trials}",
            sensitivity=(
                SensitivityTask(
                    workload="mmm", f=0.99, node_nm=22, trials=trials
                ),
            ),
            dse_pareto=(
                ParetoFrontTask(
                    scenario_json=scenario_json,
                    area_scale_grid=grid,
                    power_scale_grid=grid,
                ),
            ),
            dse_halving=(
                SuccessiveHalvingTask(
                    scenario_json=scenario_json,
                    area_scale_grid=grid,
                    power_scale_grid=grid,
                ),
            ),
        )

    def _drain(self, tmp_path, trials, grid=(1.0,)):
        tracer = get_tracer()
        tracer.clear()
        before = tracer.stats()
        report = CampaignRunner(
            store=ResultStore(tmp_path / f"store-{trials}"),
            executor="serial",
            backoff_base_s=0.0,
        ).run(self._spec(trials, grid))
        assert report.ok
        after = tracer.stats()
        return report, after["exported"] - before["exported"], (
            after["dropped"] - before["dropped"]
        )

    def test_campaign_trace_keeps_every_task(self, tmp_path):
        # Sized so that one span per kernel call or DSE config would
        # overflow the 4096-span ring several hundred spans over.
        report, _spans, dropped = self._drain(
            tmp_path, trials=400, grid=(0.5, 1.0, 2.0)
        )
        assert dropped == 0
        [trace_id] = {o.trace_id for o in report.outcomes}
        settled = {
            s["span_id"]
            for s in _by_name(get_tracer().trace(trace_id), "campaign.task")
        }
        assert len(report.outcomes) == 3
        assert {o.span_id for o in report.outcomes} <= settled

    def test_span_count_does_not_follow_trials(self, tmp_path):
        _r, few, _d = self._drain(tmp_path, trials=5)
        _r, many, _d = self._drain(tmp_path, trials=50)
        assert few == many

    @pytest.mark.parametrize("grid", [(1.0,), (0.5, 1.0, 2.0, 4.0)])
    def test_untraced_sweep_is_one_root_span(self, grid):
        configs = expand_configs(self.SCENARIO, grid, grid)
        get_tracer().clear()
        _points, infeasible = exhaustive_sweep(configs)
        [span] = get_tracer().spans()
        assert span["parent_id"] is None
        assert span["attributes"]["dse.configs"] == len(configs)
        assert span["attributes"]["dse.infeasible"] == infeasible

    @pytest.mark.parametrize("trials", [5, 40])
    def test_untraced_sensitivity_is_one_root_span(self, trials):
        get_tracer().clear()
        run_sensitivity("mmm", 0.99, config=SensitivityConfig(trials=trials))
        [span] = get_tracer().spans()
        assert span["parent_id"] is None
        assert span["attributes"]["trials"] == trials
