"""JobManager lifecycle and the /v1/jobs service endpoints."""

import asyncio
import json

import pytest

from repro.campaign.jobs import JobManager, JobState
from repro.campaign.spec import CampaignSpec, SensitivityTask, task_hash
from repro.campaign.store import ResultStore
from repro.errors import ModelError
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ModelService, ServiceConfig

SMALL_SPEC = CampaignSpec(
    figures=("F8",),
    sensitivity=(
        SensitivityTask(workload="mmm", f=0.99, node_nm=11, trials=5),
    ),
)


def run(coro):
    return asyncio.run(coro)


class TestJobManager:
    def test_submit_runs_to_success(self, tmp_path):
        manager = JobManager(store=ResultStore(tmp_path))
        record = manager.submit(SMALL_SPEC)
        assert record.job_id.startswith("job-0001-")
        assert manager.join(timeout=60)
        assert record.state == JobState.SUCCEEDED
        payload = manager.payload(record)
        assert payload["progress"] == {
            "total": 3, "done": 3, "executed": 3, "cached": 0,
            "failed": 0,
        }
        assert [t["status"] for t in payload["tasks"]] == ["executed"] * 3
        assert len(payload["results"]) == 3
        manager.close()

    def test_resubmitted_spec_resumes_from_the_shared_store(
        self, tmp_path
    ):
        manager = JobManager(store=ResultStore(tmp_path))
        manager.submit(SMALL_SPEC)
        assert manager.join(timeout=60)
        second = manager.submit(SMALL_SPEC)
        assert manager.join(timeout=60)
        payload = manager.payload(second)
        assert payload["state"] == JobState.SUCCEEDED
        assert payload["progress"]["cached"] == 3
        assert payload["progress"]["executed"] == 0
        manager.close()

    def test_invalid_spec_fails_the_submit_not_the_job(self, tmp_path):
        manager = JobManager(store=ResultStore(tmp_path))
        with pytest.raises(ModelError, match="F42"):
            manager.submit(CampaignSpec(figures=("F42",)))
        assert manager.stats()["total"] == 0
        manager.close()

    def test_metrics_observe_job_lifecycle(self, tmp_path):
        registry = MetricsRegistry()
        manager = JobManager(
            store=ResultStore(tmp_path), registry=registry
        )
        manager.submit(SMALL_SPEC)
        assert manager.join(timeout=60)
        jobs = registry.counter("repro_service_jobs_total")
        assert jobs.value(state=JobState.QUEUED) == 1
        assert jobs.value(state=JobState.SUCCEEDED) == 1
        manager.close()

    def test_stats_surface_store_counters(self, tmp_path):
        manager = JobManager(store=ResultStore(tmp_path))
        manager.submit(SMALL_SPEC)
        assert manager.join(timeout=60)
        stats = manager.stats()
        assert stats["states"] == {JobState.SUCCEEDED: 1}
        assert stats["store"]["writes"] == 3
        manager.close()

    def test_closed_manager_rejects_submissions(self, tmp_path):
        manager = JobManager(store=ResultStore(tmp_path))
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(SMALL_SPEC)
        manager.close()  # idempotent

    def test_tasks_settle_in_spec_order(self, tmp_path):
        # A slow task ahead of a fast one: a pool would settle the fast
        # one first, a serial drain never does.
        spec = CampaignSpec(
            sensitivity=(
                SensitivityTask(workload="mmm", f=0.99, node_nm=11,
                                trials=2000),
                SensitivityTask(workload="bs", f=0.9, node_nm=11,
                                trials=5),
            ),
        )
        manager = JobManager(store=ResultStore(tmp_path))
        record = manager.submit(spec)
        assert manager.join(timeout=60)
        assert record.state == JobState.SUCCEEDED
        assert [t["hash"] for t in record.tasks] == [
            task_hash(t) for t in spec.tasks()
        ]
        manager.close()

    def test_list_payload_ordered_without_results(self, tmp_path):
        manager = JobManager(store=ResultStore(tmp_path))
        a = manager.submit(SMALL_SPEC)
        b = manager.submit(SMALL_SPEC)
        assert manager.join(timeout=60)
        listing = manager.list_payload()
        assert [p["job_id"] for p in listing] == [a.job_id, b.job_id]
        assert all("results" not in p for p in listing)
        manager.close()


JOB_BODY = json.dumps(
    {
        "figures": ["F8"],
        "sensitivity": [
            {"workload": "mmm", "f": 0.99, "node_nm": 11, "trials": 5}
        ],
    }
).encode()


async def _submit_and_wait(service, body=JOB_BODY, deadline_s=60.0):
    status, payload = await service.handle("POST", "/v1/jobs", body)
    assert status == 202
    job_id = payload["job_id"]
    for _ in range(int(deadline_s / 0.02)):
        status, payload = await service.handle(
            "GET", f"/v1/jobs/{job_id}"
        )
        assert status == 200
        if payload["state"] in JobState.TERMINAL:
            return payload
        await asyncio.sleep(0.02)
    raise AssertionError(f"job never settled: {payload}")


class TestJobsEndpoints:
    def make_service(self, tmp_path):
        return ModelService(
            ServiceConfig(store_dir=str(tmp_path), drain_timeout_s=1.0)
        )

    def test_post_then_poll_to_success(self, tmp_path):
        service = self.make_service(tmp_path)

        async def main():
            payload = await _submit_and_wait(service)
            assert payload["state"] == JobState.SUCCEEDED
            assert payload["progress"]["total"] == 3
            kinds = [r["kind"] for r in payload["results"]]
            assert kinds == ["figure", "figure", "sensitivity"]

        try:
            run(main())
        finally:
            service.close()

    def test_jobs_survive_in_the_store_across_services(self, tmp_path):
        first = self.make_service(tmp_path)
        try:
            run(_submit_and_wait(first))
        finally:
            first.close()
        # A new service over the same store resumes, not recomputes.
        second = self.make_service(tmp_path)

        async def main():
            payload = await _submit_and_wait(second)
            assert payload["progress"]["cached"] == 3
            assert payload["progress"]["executed"] == 0

        try:
            run(main())
        finally:
            second.close()

    def test_get_unknown_job_is_404(self, tmp_path):
        service = self.make_service(tmp_path)

        async def main():
            status, payload = await service.handle(
                "GET", "/v1/jobs/job-9999-deadbeef"
            )
            assert status == 404
            assert "job-9999-deadbeef" in payload["message"]

        try:
            run(main())
        finally:
            service.close()

    def test_bad_spec_is_400(self, tmp_path):
        service = self.make_service(tmp_path)

        async def main():
            status, payload = await service.handle(
                "POST", "/v1/jobs", b'{"figures": ["F42"]}'
            )
            assert status == 400
            assert "F42" in payload["message"]
            status, payload = await service.handle(
                "POST", "/v1/jobs", b'{}'
            )
            assert status == 400
            assert "empty campaign" in payload["message"]
            status, payload = await service.handle(
                "POST",
                "/v1/jobs",
                json.dumps(
                    {"sensitivity": [
                        {"workload": "mmm", "f": 0.5,
                         "trials": 10_000_000}
                    ]}
                ).encode(),
            )
            assert status == 400
            assert "trials" in payload["message"]

        try:
            run(main())
        finally:
            service.close()

    @pytest.mark.parametrize("body, message", [
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "f": 0.5, "r_max": 0}]},
            "'r_max' must be >= 1, got 0", id="sensitivity-r_max",
        ),
        pytest.param(
            {"pareto": [{"workload": "mmm", "f": 0.5, "r_max": -3}]},
            "'r_max' must be >= 1, got -3", id="pareto-r_max",
        ),
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "trials": "7"}]},
            "'trials' must be an integer, got '7'", id="string-trials",
        ),
        pytest.param(
            {"pareto": [{"workload": "mmm", "f": [0.5]}]},
            "'f' must be a number, got [0.5]", id="list-f",
        ),
        pytest.param(
            {"pareto": [{"workload": "mmm", "node_nm": True}]},
            "'node_nm' must be an integer, got True", id="bool-node",
        ),
        pytest.param(
            {"dse_pareto": [{"scenario_json": "{}", "r_max": None}]},
            "'r_max' must be an integer, got None", id="dse-null-r_max",
        ),
        # A sigma is a log-normal width: finite and >= 0.  The server's
        # JSON parser accepts NaN, and ``nan < 0`` is False.
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "trials": 2,
                              "mu_sigma": -1}]},
            "'mu_sigma' must be a finite number >= 0, got -1",
            id="negative-mu_sigma",
        ),
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "trials": 2,
                              "phi_sigma": float("nan")}]},
            "'phi_sigma' must be a finite number >= 0, got nan",
            id="nan-phi_sigma",
        ),
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "trials": 2,
                              "bandwidth_sigma": float("inf")}]},
            "'bandwidth_sigma' must be a finite number >= 0, got inf",
            id="inf-bandwidth_sigma",
        ),
        pytest.param(
            {"sensitivity": [{"workload": "mmm", "trials": 2,
                              "power_sigma": -0.5}]},
            "'power_sigma' must be a finite number >= 0, got -0.5",
            id="negative-power_sigma",
        ),
        # The tensor-store build is `repro-hetsim materialize build`,
        # not a campaign task.
        pytest.param(
            {"materialize": [{"workload": "mmm", "design": "ASIC",
                              "f_grid": [0.5], "r_grid": [1]}]},
            "unknown campaign field(s) ['materialize']", id="materialize",
        ),
    ])
    def test_submit_checks_every_entry(self, tmp_path, body, message):
        """A bad entry is a 400 naming its field, never a queued job
        that fails later or a request that drops its connection."""
        service = self.make_service(tmp_path)
        try:
            status, payload = run(service.handle(
                "POST", "/v1/jobs", json.dumps(body).encode()
            ))
        finally:
            service.close()
        assert status == 400
        assert message in payload["message"]

    def test_jobs_listing_and_method_guards(self, tmp_path):
        service = self.make_service(tmp_path)

        async def main():
            await _submit_and_wait(service)
            status, listing = await service.handle("GET", "/v1/jobs")
            assert status == 200
            assert len(listing["jobs"]) == 1
            status, payload = await service.handle(
                "DELETE", "/v1/jobs"
            )
            assert status == 405
            status, payload = await service.handle(
                "POST", "/v1/jobs/job-0001-whatever"
            )
            assert status == 405

        try:
            run(main())
        finally:
            service.close()

    def test_metrics_include_campaign_sections(self, tmp_path):
        service = self.make_service(tmp_path)

        async def main():
            await _submit_and_wait(service)
            status, metrics = await service.handle("GET", "/metrics")
            assert status == 200
            assert metrics["campaign"]["states"] == {
                JobState.SUCCEEDED: 1
            }
            store = metrics["campaign"]["store"]
            assert store["writes"] == 3
            assert metrics["jobs"][JobState.SUCCEEDED] == 1
            # The perf-cache layer is surfaced too (model-layer
            # memoization, distinct from the response cache).
            perf = metrics["perf_cache"]
            assert set(perf) == {"caches", "hits", "misses", "entries"}
            assert perf["caches"] >= 1

        try:
            run(main())
        finally:
            service.close()
