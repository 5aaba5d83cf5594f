"""CampaignRunner: checkpointing, resume, retries, pool equivalence.

The headline acceptance test lives here: a campaign killed mid-run and
re-invoked with resume completes without re-executing finished tasks
(execution counts are asserted via the store's write/hit counters) and
produces output bit-identical to an uninterrupted run.
"""

import json

import pytest

from repro.campaign import runner as runner_mod
from repro.campaign.runner import CampaignReport, CampaignRunner
from repro.campaign.spec import (
    CampaignSpec,
    ParetoTask,
    SensitivityTask,
    task_hash,
)
from repro.campaign.store import ResultStore
from repro.errors import ModelError

#: A small but heterogeneous campaign: 2 figure panels, 1 Pareto
#: sweep, 1 Monte-Carlo batch.
SPEC = CampaignSpec(
    name="test",
    figures=("F8",),
    pareto=(ParetoTask(workload="mmm", f=0.99, node_nm=22),),
    sensitivity=(
        SensitivityTask(workload="mmm", f=0.99, node_nm=11, trials=10),
    ),
)


def serial_runner(store, **kwargs):
    kwargs.setdefault("executor", "serial")
    kwargs.setdefault("backoff_base_s", 0.0)
    return CampaignRunner(store=store, **kwargs)


class TestValidation:
    def test_bad_executor(self):
        with pytest.raises(ModelError, match="executor"):
            CampaignRunner(executor="gpu")

    def test_bad_workers(self):
        with pytest.raises(ModelError, match="workers"):
            CampaignRunner(workers=0)

    def test_bad_retries(self):
        with pytest.raises(ModelError, match="retries"):
            CampaignRunner(retries=-1)


class TestBasicRun:
    def test_executes_every_task_in_spec_order(self, tmp_path):
        store = ResultStore(tmp_path)
        report = serial_runner(store).run(SPEC)
        assert [o.task for o in report.outcomes] == list(SPEC.tasks())
        assert (report.executed, report.cached, report.failed) == (4, 0, 0)
        assert report.ok
        assert store.stats().writes == 4

    def test_result_payloads_have_their_kind(self, tmp_path):
        report = serial_runner(ResultStore(tmp_path)).run(SPEC)
        kinds = [o.result["kind"] for o in report.outcomes]
        assert kinds == ["figure", "figure", "pareto", "sensitivity"]
        figure = report.outcomes[0].result
        assert figure["winner"]["design"] == "ASIC"
        sens = report.outcomes[3].result
        assert sens["trials"] == 10
        assert sum(sens["win_counts"].values()) == 10

    def test_rerun_is_all_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        first = serial_runner(store).run(SPEC)
        second = serial_runner(store).run(SPEC)
        assert (second.executed, second.cached) == (0, 4)
        assert second.results_json() == first.results_json()
        assert store.stats().writes == 4  # nothing was re-stored

    def test_resume_false_recomputes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        serial_runner(store).run(SPEC)
        again = serial_runner(store, resume=False).run(SPEC)
        assert (again.executed, again.cached) == (4, 0)

    def test_progress_callback_sees_every_task(self, tmp_path):
        seen = []
        runner = serial_runner(
            ResultStore(tmp_path),
            progress=lambda o, done, total: seen.append(
                (o.status, done, total)
            ),
        )
        runner.run(SPEC)
        assert len(seen) == 4
        assert seen[-1][1:] == (4, 4)


class TestInterruptAndResume:
    """Kill mid-run, resume, demand bit-identical output."""

    def test_killed_campaign_resumes_without_reexecution(
        self, tmp_path, monkeypatch
    ):
        # Reference: an uninterrupted run into its own fresh store.
        reference = serial_runner(
            ResultStore(tmp_path / "reference")
        ).run(SPEC)

        # Interrupted run: the real executor dies after 2 tasks, as if
        # the process were killed.
        store = ResultStore(tmp_path / "victim")
        real_execute = runner_mod.execute_task
        calls = {"n": 0}

        def dying_execute(task):
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_execute(task)

        monkeypatch.setattr(runner_mod, "execute_task", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            serial_runner(store).run(SPEC)
        monkeypatch.setattr(runner_mod, "execute_task", real_execute)

        # The two finished tasks were checkpointed before the kill...
        assert store.stats().writes == 2
        manifest = serial_runner(store).read_manifest(SPEC)
        assert len(manifest["completed"]) == 2
        assert manifest["total"] == 4

        # ...and the resume executes ONLY the remaining two (asserted
        # via the store: exactly 2 new writes, 2 hits).
        resumed = serial_runner(store).run(SPEC)
        assert (resumed.executed, resumed.cached, resumed.failed) == (
            2, 2, 0
        )
        assert store.stats().writes == 4

        # Resumed output is bit-identical to the uninterrupted run.
        assert resumed.results_json() == reference.results_json()

    def test_manifest_reaches_complete_state(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = serial_runner(store)
        runner.run(SPEC)
        manifest = runner.read_manifest(SPEC)
        assert manifest["spec_hash"] == SPEC.spec_hash()
        assert sorted(manifest["tasks"]) == manifest["completed"]
        assert manifest["spec"] == SPEC.payload()

    def test_manifest_bytes_are_the_sorted_full_encoding(self, tmp_path):
        """The manifest is written when a run starts and once when it
        ends, each time exactly what encoding the whole manifest with
        sorted keys would, for an empty, a partial and a full
        completed set.  The runner encodes the rest once and splices
        ``completed`` in front, which holds only while no other key
        sorts before it."""
        store = ResultStore(tmp_path)
        path = serial_runner(store).manifest_path(SPEC)
        written = []
        serial_runner(
            store, progress=lambda *_: written.append(path.read_text())
        ).run(SPEC)
        manifest = json.loads(path.read_text())
        head = {k: v for k, v in manifest.items() if k != "completed"}
        hashes = manifest["tasks"]

        def encoded(completed):
            return json.dumps(
                dict(head, completed=sorted(completed)),
                indent=2, sort_keys=True,
            ) + "\n"

        render = runner_mod._manifest_renderer(head)
        for completed in ([], hashes[2::-1], hashes):
            assert render(completed) == encoded(completed)
        # The start state holds while the tasks settle, the full set
        # after the run.
        assert written == [encoded([])] * len(hashes)
        assert path.read_text() == encoded(hashes)

    def test_spec_is_serialized_once_per_run_not_per_settle(
        self, tmp_path, monkeypatch
    ):
        """The manifest is written when a run starts and when it ends;
        the spec's payload is derived once per run, however many tasks
        settle."""
        real_payload = CampaignSpec.payload
        calls = {"n": 0}

        def counting_payload(spec):
            calls["n"] += 1
            return real_payload(spec)

        monkeypatch.setattr(CampaignSpec, "payload", counting_payload)
        per_run = []
        for spec in (
            CampaignSpec(name="one", pareto=SPEC.pareto),
            SPEC,
        ):
            calls["n"] = 0
            serial_runner(ResultStore(tmp_path / spec.name)).run(spec)
            per_run.append(calls["n"])
        assert per_run[0] == per_run[1]


class TestRetries:
    def test_flaky_task_retries_until_success(self, tmp_path, monkeypatch):
        real_execute = runner_mod.execute_task
        failures = {"left": 2}

        def flaky_execute(task):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient flake")
            return real_execute(task)

        monkeypatch.setattr(runner_mod, "execute_task", flaky_execute)
        spec = CampaignSpec(
            pareto=(ParetoTask(workload="mmm", f=0.99, node_nm=22),)
        )
        report = serial_runner(
            ResultStore(tmp_path), retries=2
        ).run(spec)
        assert report.ok
        assert report.outcomes[0].attempts == 3

    def test_exhausted_retries_mark_failed_without_aborting(
        self, tmp_path, monkeypatch
    ):
        real_execute = runner_mod.execute_task

        def poisoned_execute(task):
            if task.kind == "pareto":
                raise RuntimeError("permanently broken")
            return real_execute(task)

        monkeypatch.setattr(runner_mod, "execute_task", poisoned_execute)
        report = serial_runner(
            ResultStore(tmp_path), retries=1
        ).run(SPEC)
        assert not report.ok
        assert (report.executed, report.failed) == (3, 1)
        bad = [o for o in report.outcomes if o.status == "failed"][0]
        assert bad.task.kind == "pareto"
        assert "permanently broken" in bad.error
        assert bad.attempts == 2
        assert bad.result is None

    def test_backoff_schedule_is_exponential_and_capped(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            runner_mod.time, "sleep", lambda s: sleeps.append(s)
        )

        def always_fails(task):
            raise RuntimeError("nope")

        monkeypatch.setattr(runner_mod, "execute_task", always_fails)
        with pytest.raises(RuntimeError):
            runner_mod._run_with_retries(
                SPEC.tasks()[0], retries=4,
                backoff_base_s=0.1, backoff_cap_s=0.5,
            )
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5])


class TestPoolEquivalence:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pools_match_serial_bit_for_bit(self, tmp_path, executor):
        serial = serial_runner(ResultStore(tmp_path / "serial")).run(SPEC)
        pooled = CampaignRunner(
            store=ResultStore(tmp_path / executor),
            workers=2,
            executor=executor,
        ).run(SPEC)
        assert pooled.results_json() == serial.results_json()
        assert [o.status for o in pooled.outcomes] == ["executed"] * 4

    def test_workers_one_forces_serial(self, tmp_path):
        report = CampaignRunner(
            store=ResultStore(tmp_path), workers=1, executor="process"
        ).run(SPEC)
        assert report.executed == 4


class TestSensitivityDeterminism:
    """Fixed seed => identical summaries, regardless of worker count."""

    SENS_SPEC = CampaignSpec(
        sensitivity=(
            SensitivityTask(workload="mmm", f=0.99, node_nm=11,
                            trials=25, seed=7),
            SensitivityTask(workload="fft", f=0.99, node_nm=11,
                            fft_size=1024, trials=25, seed=7),
            SensitivityTask(workload="bs", f=0.9, node_nm=11,
                            trials=25, seed=7),
        )
    )

    def test_identical_across_runs(self, tmp_path):
        a = serial_runner(ResultStore(tmp_path / "a")).run(self.SENS_SPEC)
        b = serial_runner(ResultStore(tmp_path / "b")).run(self.SENS_SPEC)
        assert a.results_json() == b.results_json()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_across_worker_counts(self, tmp_path, workers):
        serial = serial_runner(
            ResultStore(tmp_path / "serial")
        ).run(self.SENS_SPEC)
        pooled = CampaignRunner(
            store=ResultStore(tmp_path / f"w{workers}"),
            workers=workers,
            executor="thread",
        ).run(self.SENS_SPEC)
        assert pooled.results_json() == serial.results_json()

    def test_seed_changes_the_outcome(self, tmp_path):
        reseeded = CampaignSpec(
            sensitivity=(
                SensitivityTask(workload="mmm", f=0.99, node_nm=11,
                                trials=25, seed=8),
            )
        )
        base = CampaignSpec(
            sensitivity=(
                SensitivityTask(workload="mmm", f=0.99, node_nm=11,
                                trials=25, seed=7),
            )
        )
        a = serial_runner(ResultStore(tmp_path / "a")).run(base)
        b = serial_runner(ResultStore(tmp_path / "b")).run(reseeded)
        assert a.results_json() != b.results_json()


class TestReport:
    def test_results_mapping_keyed_by_task(self, tmp_path):
        from dataclasses import asdict

        report = serial_runner(ResultStore(tmp_path)).run(SPEC)
        results = report.results()
        for task in SPEC.tasks():
            assert results[task]["kind"] == task.kind
            assert results[task]["task"] == asdict(task)

    def test_empty_report_counts(self):
        report = CampaignReport(spec=SPEC)
        assert (report.executed, report.cached, report.failed) == (0, 0, 0)
        assert report.ok
