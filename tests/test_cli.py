"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import build_parser, exit_code_for, main
from repro.errors import (
    CalibrationError,
    InfeasibleDesignError,
    ModelError,
    ReproError,
    ServiceTimeoutError,
    UnknownExperimentError,
    UnknownWorkloadError,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_speedup_arguments(self):
        args = build_parser().parse_args(
            ["speedup", "--workload", "fft", "--f", "0.99"]
        )
        assert args.workload == "fft"
        assert args.f == 0.99
        assert args.fft_size == 1024
        assert args.scenario == "baseline"

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.figures == ["F6", "F7", "F8", "F9"]
        assert args.jobs is None
        assert args.executor == "serial"
        assert args.method == "batch"

    def test_campaign_rejects_bad_executor(self):
        for executor in ("gpu", "thread"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["campaign", "--executor", executor]
                )

    def test_campaign_store_flags(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs is None
        assert args.store_dir is None
        assert args.resume is False
        assert args.retries == 2
        args = build_parser().parse_args(
            ["campaign", "--jobs", "3", "--store-dir", "/tmp/s",
             "--resume", "--retries", "0"]
        )
        assert args.jobs == 3
        assert args.store_dir == "/tmp/s"
        assert args.resume is True
        assert args.retries == 0

    def test_serve_store_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.store_dir is None
        assert args.drain_timeout_s == 5.0
        args = build_parser().parse_args(
            ["serve", "--store-dir", "/tmp/s", "--drain-timeout-s", "2"]
        )
        assert args.store_dir == "/tmp/s"
        assert args.drain_timeout_s == 2.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        # No evaluation deadline: the bounded grid is the bound.  No
        # admission queue: an evaluation never waits, so none forms.
        # The response cache has a fixed size, the profiler a fixed rate.
        for gone in ("timeout_s", "max_inflight", "queue_depth",
                     "cache_size", "profile_hz"):
            assert not hasattr(args, gone), gone

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9999", "--no-profile"]
        )
        assert args.port == 9999
        assert args.profile is False
        for gone in ("--max-inflight", "--queue-depth", "--cache-size",
                     "--profile-hz"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", gone, "2"])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestExitCodes:
    """ReproError subclasses map to stable exit codes (no tracebacks)."""

    @pytest.mark.parametrize("exc, code", [
        (ModelError("bad f"), 2),
        (UnknownWorkloadError("nope"), 2),
        (UnknownExperimentError("F99"), 2),
        (ServiceTimeoutError("deadline"), 2),
        (InfeasibleDesignError("no design"), 3),
        (CalibrationError("inconsistent"), 4),
        (ReproError("anything else"), 1),
    ])
    def test_mapping(self, exc, code):
        assert exit_code_for(exc) == code

    def test_validation_error_exits_2_via_entrypoint(self, capsys):
        """The console entry point raises SystemExit with the code."""
        with pytest.raises(SystemExit) as excinfo:
            sys.exit(main(["speedup", "--workload", "fft", "--f", "2"]))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_one_line_message_not_traceback(self, capsys):
        assert main(["run", "F99"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T5" in out
        assert "F10" in out

    def test_run_single(self, capsys):
        assert main(["run", "T6"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "T1", "T2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out

    def test_run_unknown_id_fails_cleanly(self, capsys):
        assert main(["run", "F99"]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_speedup_command(self, capsys):
        code = main(
            ["speedup", "--workload", "bs", "--f", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ASIC" in out
        assert "(ba)" in out

    def test_speedup_with_scenario(self, capsys):
        code = main(
            [
                "speedup", "--workload", "fft", "--f", "0.99",
                "--scenario", "high-bandwidth",
            ]
        )
        assert code == 0
        assert "scenario=high-bandwidth" in capsys.readouterr().out

    def test_bad_f_value_fails_cleanly(self, capsys):
        assert main(["speedup", "--workload", "fft", "--f", "1.5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_scenario_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["speedup", "--workload", "fft", "--f", "0.5",
                  "--scenario", "utopia"])

    def test_campaign_serial(self, capsys):
        code = main(
            ["campaign", "--figures", "F8", "--executor", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 panels" in out
        assert "ASIC" in out

    def test_campaign_jobs_flag(self, capsys):
        # Only a process pool has a width: a serial run names none.
        assert main(["campaign", "--figures", "F6", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "(serial, method=" in out
        assert "jobs=" not in out
        code = main(
            ["campaign", "--figures", "F6", "--executor", "process",
             "--jobs", "2"]
        )
        assert code == 0
        assert "(process, jobs=2, method=" in capsys.readouterr().out

    def test_campaign_without_store_dir_writes_no_store(
        self, tmp_path, monkeypatch, capsys
    ):
        """No --store-dir: nothing to resume from, so no checkpoint --
        no store put and no temp directory."""
        import tempfile

        from repro.campaign.store import ResultStore

        puts = []
        monkeypatch.setattr(
            ResultStore, "put", lambda self, *args: puts.append(args)
        )
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["campaign", "--figures", "F8"]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 resumed" in out
        assert "store:" not in out
        assert puts == []
        assert list(tmp_path.glob("repro-campaign-*")) == []

    def test_campaign_unknown_figure_fails_cleanly(self, capsys):
        assert main(["campaign", "--figures", "F42"]) == 2
        assert "F42" in capsys.readouterr().err

    def test_campaign_resume_roundtrip(self, tmp_path, capsys):
        """A second --resume run serves every panel from the store."""
        store = str(tmp_path / "store")
        argv = ["campaign", "--figures", "F8", "--executor", "serial",
                "--store-dir", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 resumed" in first
        assert store in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 resumed" in second
        assert "cached" in second


class TestFullRun:
    def test_all_experiments_via_cli(self, capsys):
        """`repro-hetsim all` regenerates every artefact cleanly."""
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 5", "Figure 6", "Figure 10",
                       "Roofline", "chip models"):
            assert marker in out


class TestMaterializeCommand:
    def test_parser_accepts_actions_and_flags(self):
        args = build_parser().parse_args(
            ["materialize", "build", "--dir", "tensors",
             "--scenario", "baseline"]
        )
        assert args.action == "build"
        assert args.tensor_dir == "tensors"
        assert args.scenario == "baseline"
        # The build checkpoints nothing, so there is no store to name.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["materialize", "build", "--dir", "tensors",
                 "--store-dir", "results"]
            )

    def test_parser_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["materialize", "rebuild", "--dir", "x"]
            )

    def test_serve_accepts_tensor_dir(self):
        args = build_parser().parse_args(
            ["serve", "--tensor-dir", "tensors"]
        )
        assert args.tensor_dir == "tensors"
        assert build_parser().parse_args(["serve"]).tensor_dir is None

    def test_verify_missing_store_exits_1(self, tmp_path, capsys):
        code = main(
            ["materialize", "verify", "--dir", str(tmp_path / "nope")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no tensor store")

    def test_build_verify_refresh(self, tmp_path, capsys):
        tensors = str(tmp_path / "tensors")
        assert main(["materialize", "build", "--dir", tensors]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"materialized 18 designs into {tensors}\n")
        assert "3 groups, 18 designs, 146880 cells" in out
        assert main(["materialize", "verify", "--dir", tensors]) == 0
        assert "ok (21 channel files verified)" in capsys.readouterr().out
        assert main(["materialize", "refresh", "--dir", tensors]) == 0
        assert "is current; nothing to do" in capsys.readouterr().out
