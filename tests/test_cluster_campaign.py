"""Coordination-free campaign joins (executor="cluster").

Multiple ``campaign --join`` processes share only a store directory;
lease files decide who runs what, and the content-addressed store
guarantees the merged result is bit-identical to a serial run even
when workers die mid-task.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.runner import _EXECUTORS, CampaignRunner, _spawn_context
from repro.campaign.spec import CampaignSpec, task_hash
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.errors import ModelError

SPEC_KWARGS = dict(name="cli-figures", figures=("F6",), method="batch")


def _serial_results(tmp_path):
    runner = CampaignRunner(
        store=ResultStore(tmp_path / "serial"), executor="serial"
    )
    return runner.run(CampaignSpec(**SPEC_KWARGS)).results_json()


def _join_worker(store_dir, out_q):
    spec = CampaignSpec(**SPEC_KWARGS)
    store = ResultStore(store_dir)
    runner = CampaignRunner(
        store=store, executor="cluster", resume=True, lease_ttl_s=2.0
    )
    report = runner.run(spec)
    out_q.put(
        {
            "executed": report.executed,
            "cached": report.cached,
            "failed": report.failed,
            "results": report.results_json(),
            "leases": store.lease_stats(),
        }
    )


def _doomed_claimer(store_dir, started):
    """Claim the first task, then hang without heartbeating."""
    from repro.cluster.lease import LeaseManager

    spec = CampaignSpec(**SPEC_KWARGS)
    store = ResultStore(store_dir)
    lease = LeaseManager(store, ttl_s=1.0)
    assert lease.claim(task_hash(spec.tasks()[0]))
    started.set()
    time.sleep(3600)


def _join_worker_fast_ttl(store_dir, out_q):
    spec = CampaignSpec(**SPEC_KWARGS)
    store = ResultStore(store_dir)
    runner = CampaignRunner(
        store=store, executor="cluster", resume=True, lease_ttl_s=1.0
    )
    report = runner.run(spec)
    out_q.put(
        {
            "executed": report.executed,
            "failed": report.failed,
            "results": report.results_json(),
            "leases": store.lease_stats(),
        }
    )


class TestClusterExecutor:
    def test_single_process_cluster_run_matches_serial(self, tmp_path):
        serial = _serial_results(tmp_path)
        store = ResultStore(tmp_path / "cluster")
        runner = CampaignRunner(
            store=store, executor="cluster", resume=True
        )
        report = runner.run(CampaignSpec(**SPEC_KWARGS))
        assert report.failed == 0
        assert report.results_json() == serial
        stats = store.lease_stats()
        assert stats["claimed"] == report.executed
        assert stats["released"] == report.executed

    def test_two_joined_processes_split_work_byte_equal(self, tmp_path):
        serial = _serial_results(tmp_path)
        store_dir = tmp_path / "shared"
        store_dir.mkdir()
        spawn = _spawn_context()
        queue = spawn.Queue()
        peers = [
            spawn.Process(
                target=_join_worker, args=(str(store_dir), queue)
            )
            for _ in range(2)
        ]
        for peer in peers:
            peer.start()
        outputs = [queue.get(timeout=300) for _ in peers]
        for peer in peers:
            peer.join(30)

        total_tasks = len(CampaignSpec(**SPEC_KWARGS).tasks())
        executed = sum(out["executed"] for out in outputs)
        for out in outputs:
            assert out["failed"] == 0
            # Every peer reports the full merged campaign, and it is
            # byte-identical to what one serial process produces.
            assert out["results"] == serial
        # Leases keep the peers off each other's tasks: no task ran
        # twice (cached settles cover the rest).
        assert executed == total_tasks
        assert (
            sum(out["leases"].get("claimed", 0) for out in outputs)
            == total_tasks
        )

    def test_worker_death_mid_task_is_taken_over(self, tmp_path):
        serial = _serial_results(tmp_path)
        store_dir = tmp_path / "shared"
        store_dir.mkdir()
        spawn = _spawn_context()
        started = spawn.Event()
        doomed = spawn.Process(
            target=_doomed_claimer, args=(str(store_dir), started)
        )
        doomed.start()
        assert started.wait(120), "claimer never claimed"
        queue = spawn.Queue()
        peer = spawn.Process(
            target=_join_worker_fast_ttl, args=(str(store_dir), queue)
        )
        peer.start()
        time.sleep(0.3)
        doomed.kill()
        out = queue.get(timeout=300)
        peer.join(30)
        doomed.join(10)

        assert out["failed"] == 0
        assert out["results"] == serial
        assert out["leases"].get("stolen", 0) >= 1
        assert out["leases"].get("expired", 0) >= 1

    def test_cluster_requires_durable_store(self):
        with pytest.raises(ModelError):
            CampaignRunner(executor="cluster")
        with pytest.raises(ModelError):
            CampaignRunner(store=ResultStore(), executor="cluster")

    def test_lease_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ModelError):
            CampaignRunner(
                store=ResultStore(tmp_path),
                executor="cluster",
                lease_ttl_s=0.0,
            )


class TestSpawnPinning:
    def test_pool_start_method_is_spawn(self):
        # Campaign pools must behave identically on Linux and macOS:
        # fork is never used.
        assert _spawn_context().get_start_method() == "spawn"
        assert "cluster" in _EXECUTORS


class TestCli:
    def test_join_requires_store_dir(self, capsys):
        code = main(["campaign", "--figures", "F6", "--join"])
        assert code == 2  # usage error
        err = capsys.readouterr().err
        assert "--store-dir" in err

    def test_join_summary_reports_leases(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--figures",
                "F6",
                "--join",
                "--store-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "leases: " in out
        assert "claimed=" in out and "released=" in out

    def test_cluster_executor_is_a_cli_choice(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--figures",
                "F6",
                "--executor",
                "cluster",
                "--store-dir",
                str(tmp_path),
                "--lease-ttl-s",
                "5.0",
            ]
        )
        assert code == 0


def _campaign_cli(store_dir, *flags):
    """A ``repro-hetsim campaign --figures F6 F7`` child process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign",
         "--figures", "F6", "F7", "--store-dir", str(store_dir), *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def _tree(root):
    """Every file under ``root`` but lease residue, as path -> bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "leases" not in path.relative_to(root).parts
    }


class TestCliStores:
    def test_join_and_process_pool_match_the_default_store(self, tmp_path):
        """Two concurrent ``--join`` processes, and a 2-worker process
        pool, leave byte for byte the store a default campaign leaves
        (leases are coordination residue, not results)."""
        default = tmp_path / "default"
        _finish(_campaign_cli(default))
        joined = tmp_path / "joined"
        peers = [_campaign_cli(joined, "--join") for _ in range(2)]
        outs = [_finish(peer) for peer in peers]
        # A peer that starts after the other drained everything
        # settles from the store and takes no lease.
        assert any("leases: " in out for out in outs)
        pooled = tmp_path / "pooled"
        _finish(_campaign_cli(pooled, "--executor", "process", "--jobs", "2"))

        expected = _tree(default)
        assert expected
        assert _tree(joined) == expected
        assert _tree(pooled) == expected
